"""Command-line entry point.

Subcommands map one-to-one onto the harness sweep and validation functions;
every run writes a CSV result table plus a JSON manifest of the resolved
configuration.  Exit codes: 0 success, 1 configuration error, 2 numeric or
convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, FrisecError
from .harness import (POLICIES, SWEEP_COLUMNS, VALIDATE_BOUND_COLUMNS,
                      VALIDATE_FIT_COLUMNS, ExperimentConfig,
                      config_from_mapping, dump_correlation_csv, sweep_size,
                      sweep_snr, validate_bounds, validate_fits,
                      write_results)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of configuration keys")
    sub.add_argument("--seed", type=int, help="64-bit experiment seed")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    sub.add_argument("--workers", type=int, help="parallel workers over trial blocks")
    sub.add_argument("--policy", choices=POLICIES)
    sub.add_argument("--m-on", type=int, dest="m_on", help="active element count")
    sub.add_argument("--out", required=True, help="output CSV path")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object of keys")
        mapping.update(loaded)
    for key in ("seed", "trials", "workers", "policy", "m_on"):
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    return config_from_mapping(mapping)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="frisec",
                     description="Fluid-RIS secrecy performance simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("sweep-asc", "average secrecy capacity vs average SNR"),
        ("sweep-sop", "secrecy outage probability vs average SNR"),
        ("sweep-size", "metrics vs total element count at fixed active count"),
        ("validate-fits", "frozen-configuration gain-law validation"),
        ("validate-bounds", "closed-form bounds vs frozen-config Monte Carlo"),
        ("dump-correlation", "write the correlation matrix as CSV"),
    ):
        sub = subs.add_parser(name, help=descr)
        _add_common(sub)
        if name == "validate-fits":
            sub.add_argument("--m-on-list", default=None,
                             help="comma-separated active counts, e.g. 10,50,100")

    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.command in ("sweep-asc", "sweep-sop"):
            rows = sweep_snr(config)
            write_results(args.out, rows, SWEEP_COLUMNS, config,
                          {"metric_focus": "asc" if args.command == "sweep-asc" else "sop"})
        elif args.command == "sweep-size":
            rows = sweep_size(config)
            write_results(args.out, rows, SWEEP_COLUMNS, config)
        elif args.command == "validate-fits":
            m_on_list = None
            if args.m_on_list:
                try:
                    m_on_list = tuple(int(v) for v in args.m_on_list.split(","))
                except ValueError as exc:
                    raise ConfigError(f"bad --m-on-list: {exc}") from exc
            rows = validate_fits(config, m_on_list)
            write_results(args.out, rows, VALIDATE_FIT_COLUMNS, config)
            for row in rows:
                if row["status"] == "ok" and (row["ks_bob"] > 0.05 or row["ks_eve"] > 0.05):
                    print(f"advisory: KS distance above 0.05 at m_on={row['m_on']} "
                          f"(bob {row['ks_bob']:.4f}, eve {row['ks_eve']:.4f})",
                          file=sys.stderr)
        elif args.command == "validate-bounds":
            rows = validate_bounds(config)
            write_results(args.out, rows, VALIDATE_BOUND_COLUMNS, config)
            for row in rows:
                if row["status"] != "ok":
                    continue
                if not row["sop_bound_ok"]:
                    print(f"warning: outage bound violated at "
                          f"{row['avg_snr_bob_db']} dB", file=sys.stderr)
                if not row["asc_bound_ok"]:
                    print(f"note: capacity closed form below MC mean at "
                          f"{row['avg_snr_bob_db']} dB "
                          f"(approximation, recorded in CSV)", file=sys.stderr)
        elif args.command == "dump-correlation":
            diag = dump_correlation_csv(config, args.out)
            print(f"wrote {diag['n_elements']}x{diag['n_elements']} matrix; "
                  f"rank {diag['rank']}, eigen floor {diag['eigen_floor']:.3e}, "
                  f"clamped mass {diag['clamped_mass']:.3e}")
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"frisec: config error: {exc}", file=sys.stderr)
        return 1
    except FrisecError as exc:
        print(f"frisec: numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
