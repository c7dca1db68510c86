"""frisec benchmark: one workload, timed end to end, optionally traced by layer.

    python3 benchmarks/run.py --workload sop-ref --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every measured step runs in a fresh interpreter started from
this single process, one at a time, so set-up time, CPU time and peak memory
belong to that step alone:

1. set-up batches: import frisec and build every correlation matrix the
   workload uses, at least twice and for at least a second per batch;
2. timed runs: the workload's ``frisec`` CLI calls, plus on ``validate`` the
   closed-form-vs-oracle checks against an mpmath reference (see
   ``check_oracles``).  Each run's outputs are checked.  Set-up
   batches and timed runs alternate until ``--seconds`` have passed (at
   least one timed run), ending with a set-up batch, so the set-ups sample
   the same stretch of machine time as the runs; ``setup_s`` and the other
   end-to-end metrics are medians over all set-ups and timed runs;
3. with ``--trace 1``, one more run with the tracer installed (see
   tracer.py); it reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name and unit, ``fail_ratio`` and the run record.  A
summary with per-run values and CSV hashes goes to
``.bench_work/<workload>-seed<seed>[-trace].json``.

The child interpreters inherit the environment unchanged, BLAS thread
settings included: the benchmark measures frisec as a user runs it, and the
run record states the threads in effect.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"

SETUP_BATCH_MIN = 2
SETUP_BATCH_SECONDS = 1.0
CHILD_TIMEOUT_S = 150
SOP_REL_TOL = 1e-6  # acceptance C1's tolerance on the outage closed form
C1_RATIOS = (1e-3, 1e6)  # the ratios z over which C1 checks the SOP oracle
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

REFERENCE_SNR_DB = [float(v) for v in range(60, 125, 5)]

# Layers every workload reaches through a sweep or validation CLI call.
COMMON_LAYERS = (
    "surface.build_correlation", "specfun.bessel_j0", "channel.draw_block",
    "channel.correlated_images_batch", "harness.simulate_gains",
    "harness.records_for_budget", "harness.estimate_sop", "harness.estimate_asc",
    "harness.ks_statistic", "secrecy.reg_lower_inc_gamma", "harness.reference_fits",
    "secrecy.sop_lower_bound", "secrecy.asc_upper_bound", "harness.write_results",
    "cli.main",
)


@dataclass(frozen=True)
class Workload:
    config: dict                # frisec config keys; the seed comes from --seed
    commands: tuple             # CLI calls, each without the common flags
    workers: int
    geometries: tuple           # (m_x, m_z, width_x, width_z) in wavelengths
    simulations: int            # simulate_gains calls, each of config["trials"]
    oracle_checks: bool = False
    layers: tuple = field(default=COMMON_LAYERS)  # must record calls when traced


WORKLOADS = {
    # The paper's headline figure.  Philox draw, coloring GEMM and the greedy
    # kernel do most of the work; the per-budget reduction runs 26 times over
    # 100k trials; no quadrature oracle runs.
    "sop-ref": Workload(
        config={"m_x": 20, "m_z": 20, "aperture_x": 3.0, "aperture_z": 3.0,
                "conventional_m": 100, "policy": "greedy", "m_on": 100,
                "trials": 100_000, "snr_sweep_db": REFERENCE_SNR_DB},
        commands=(("sweep-sop",),), workers=1,
        geometries=((20, 20, 3.0, 3.0), (10, 10, 5.0, 5.0)),
        simulations=2),
    # M grows in a fixed aperture while the field rank stays near 47: the
    # coloring GEMM grows as M^2, the eigendecomposition as M^3.  The only
    # workload on the threaded block path, where pool workers compete with
    # BLAS threads for two cores.
    "dense-pool": Workload(
        config={"aperture_x": 3.0, "aperture_z": 3.0, "m_on": 64, "trials": 8192,
                "size_sweep": [400, 900, 1600]},
        commands=(("sweep-size",),), workers=2,
        geometries=((20, 20, 3.0, 3.0), (30, 30, 3.0, 3.0), (40, 40, 3.0, 3.0),
                    (8, 8, 4.0, 4.0)),
        simulations=6),
    # Frozen-configuration kernel with row-sliced coloring, KS through the
    # scalar incomplete gamma, and the quadrature oracles.  No greedy
    # selection and no full-pool coloring at M=400: a greedy-kernel or
    # dense-sampler change should leave it unchanged.
    "validate": Workload(
        config={"m_x": 10, "m_z": 10, "aperture_x": 3.0, "aperture_z": 3.0, "m_on": 100,
                "trials": 50_000, "snr_sweep_db": REFERENCE_SNR_DB},
        commands=(("validate-fits", "--m-on-list", "10,50,100"), ("validate-bounds",)),
        workers=1, geometries=((10, 10, 3.0, 3.0),), simulations=4, oracle_checks=True,
        layers=COMMON_LAYERS + ("secrecy.sop_lower_oracle", "secrecy.asc_oracle",
                                "specfun.integrate_semi_infinite")),
}

class BenchError(Exception):
    """The benchmark could not produce a result."""


def _units(section: str) -> dict:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def _child(args: list, env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, str(CHILD), *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child {args[0]} exceeded {CHILD_TIMEOUT_S} s") from exc


def _tail(text: str, lines: int = 5) -> str:
    return "\n".join(text.strip().splitlines()[-lines:])


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None  # benchmark checkouts are plain file trees
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_record(workload: Workload, env: dict) -> dict:
    proc = _child(["info"], env)
    if proc.returncode != 0:
        raise BenchError(f"info child failed:\n{_tail(proc.stderr)}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record.update(
        nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        thread_env={name: os.environ.get(name) for name in BLAS_ENV},
        workers=workload.workers, git_commit=_git_commit(), src_lines=_src_lines())
    return record


def time_setup(plan_path: Path, env: dict) -> float:
    """Wall time from spawning an interpreter to the last matrix built."""
    start = time.perf_counter()
    proc = _child(["setup", plan_path], env)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{_tail(proc.stderr)}")
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading is comparable with ours and excludes interpreter teardown.
    return json.loads(proc.stdout.splitlines()[-1])["done"] - start


def setup_batch(plan_path: Path, env: dict) -> list[float]:
    batch, start = [], time.perf_counter()
    while len(batch) < SETUP_BATCH_MIN or time.perf_counter() - start < SETUP_BATCH_SECONDS:
        batch.append(time_setup(plan_path, env))
    return batch


def check_csv(path: Path) -> tuple[str | None, str | None]:
    """(sha256, problem) for one CLI output table."""
    if not path.exists():
        return None, "no CSV written"
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    if not rows:
        return None, "CSV has no rows"
    bad = [row.get("status") for row in rows if row.get("status") != "ok"]
    digest = hashlib.sha256(data).hexdigest()
    return digest, f"{len(bad)} rows with status != ok: {bad[:3]}" if bad else None


@functools.lru_cache(maxsize=None)
def exact_sop(shape: float, z: float) -> float:
    """The outage integral z * int_0^inf P(shape, t) e^(-z t) dt, by mpmath.

    An independent reference for the closed form and for frisec's SOP
    oracle: 20-digit arithmetic, with breakpoints at the scale 1/z of the
    decay and at the bulk of P(shape, t).  Raises BenchError when mpmath's
    own error estimate is not far below the tolerance being checked.
    """
    import mpmath

    with mpmath.workdps(20):
        k, zm = mpmath.mpf(shape), mpmath.mpf(z)
        points = sorted({mpmath.mpf(0), k / zm, k / 4, k, 4 * k, 1 / zm, 10 / zm})
        value, error = mpmath.quad(
            lambda t: mpmath.gammainc(k, 0, t, regularized=True) * mpmath.exp(-zm * t) * zm,
            points + [mpmath.inf], error=True)
    if not error <= 1e-12 * value:
        raise BenchError(f"no SOP reference at shape {shape!r}, ratio {z!r}: "
                         f"mpmath error estimate {float(error):.3g} of {float(value):.3g}")
    return float(value)


def check_oracles(rows: list) -> tuple[list[str | None], list[str]]:
    """Verdicts of the graded checks (None when one passes), and findings.

    At every grid point the closed-form SOP must lie within SOP_REL_TOL of
    the mpmath reference, and the capacity oracle must be finite.  frisec's
    SOP oracle is held to the same tolerance on the ratios acceptance C1
    covers, C1_RATIOS; below them it is known to miss the boundary layer of
    its integrand, so a miss there is a finding, printed and recorded but not
    graded.
    """
    verdicts, findings = [], []
    for row in rows:
        at = f"{row['avg_snr_bob_db']} dB (ratio {row['ratio']:.3g})"
        exact = exact_sop(row["shape"], row["ratio"])
        rel = abs(row["sop_bound"] - exact) / exact
        verdicts.append(None if rel <= SOP_REL_TOL else
                        f"sop_lower_bound {row['sop_bound']!r} vs exact {exact!r} "
                        f"at {at}: rel {rel:.3g}")
        oracle = row["sop_oracle"]
        in_c1 = C1_RATIOS[0] <= row["ratio"] <= C1_RATIOS[1]
        if oracle is None:
            verdicts.append(f"sop_lower_oracle failed at {at}: {row['sop_oracle_error']}")
        else:
            rel = abs(oracle - exact) / exact
            verdict = None if rel <= SOP_REL_TOL else \
                f"sop_lower_oracle {oracle!r} vs exact {exact!r} at {at}: rel {rel:.3g}"
            if in_c1:
                verdicts.append(verdict)
            elif verdict:
                findings.append(verdict + ", below acceptance C1's ratios")
        asc = row["asc_oracle"]
        verdicts.append(None if asc is not None and math.isfinite(asc)
                        else f"asc_oracle not finite at {at}: {asc!r} "
                             f"{row.get('asc_oracle_error', '')}")
    return verdicts, findings


class Session:
    """State of one benchmark invocation: its files, counts and findings."""

    def __init__(self, workload: Workload, seed: int, env: dict, tmp: Path):
        self.workload = workload
        self.env = env
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.findings: list[str] = []
        self.hashes: dict[str, str] = {}
        self.runs: list[dict] = []
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        self.outputs = [tmp / f"{cmd[0]}.csv" for cmd in workload.commands]
        commands = [[*cmd, "--config", str(config_path), "--seed", str(seed),
                     "--workers", str(workload.workers), "--out", str(out)]
                    for cmd, out in zip(workload.commands, self.outputs)]
        plan = {"config": workload.config, "commands": commands,
                "geometries": workload.geometries, "workers": workload.workers,
                "oracle_checks": workload.oracle_checks}
        self.plan_path = tmp / "plan.json"
        self.plan_path.write_text(json.dumps(plan), encoding="utf-8")

    def _fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def run_once(self, trace: bool) -> dict | None:
        """One timed run with its output checks; None if the child died."""
        for out in self.outputs:
            out.unlink(missing_ok=True)
        result_path = self.tmp / "result.json"
        result_path.unlink(missing_ok=True)
        proc = _child(["run", self.plan_path, result_path, *(["--trace"] if trace else [])],
                      self.env)
        # a run that dies is charged every oracle check it could have made
        n_checks = 3 * len(self.workload.config["snr_sweep_db"]) \
            if self.workload.oracle_checks else 0
        self.attempted += len(self.outputs)
        if proc.returncode != 0 or not result_path.exists():
            self.attempted += n_checks
            self._fail(f"run child exited {proc.returncode}:\n{_tail(proc.stderr)}",
                       len(self.outputs) + n_checks)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for command, code, out in zip(self.workload.commands, result["codes"], self.outputs):
            digest, problem = check_csv(out)
            if code != 0:
                problem = f"exit code {code}: {_tail(proc.stderr)}"
            elif problem is None and self.hashes.setdefault(command[0], digest) != digest:
                problem = "CSV differs from the first run with the same seed"
            if problem:
                self._fail(f"{command[0]}: {problem}")
        return result

    def grade_oracles(self, result: dict) -> None:
        """Count and report the closed-form-vs-oracle checks of one run."""
        verdicts, findings = check_oracles(result["checks"])
        self.attempted += len(verdicts)
        for verdict in filter(None, verdicts):
            self._fail(verdict)
        for finding in findings:
            print(f"FINDING: {finding}", file=sys.stderr)
        self.findings += findings


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (final result object, summary for the record)."""
    if not (ROOT / "src" / "frisec" / "__init__.py").is_file():
        raise BenchError(f"no frisec sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        session = Session(workload, seed, env, tmp)
        record = run_record(workload, env)
        setups = []
        start = time.perf_counter()
        while True:
            setups += setup_batch(session.plan_path, env)
            if session.runs and time.perf_counter() - start >= seconds:
                break
            result = session.run_once(trace=False)
            if result is None:
                break
            session.runs.append(result)
        if not session.runs:
            raise BenchError("no timed run completed")
        traced = session.run_once(trace=True) if trace else None
        if trace and traced is None:
            raise BenchError("traced run did not complete")
        # after the timed window: the first reference integrals take seconds
        for result in session.runs + ([traced] if trace else []):
            session.grade_oracles(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    trials = workload.simulations * workload.config["trials"]
    run_s = statistics.median(r["run_s"] for r in session.runs)
    e2e = {
        "run_s": run_s,
        "trials_per_s": statistics.median(trials / r["run_s"] for r in session.runs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in session.runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in session.runs),
    }
    summary = {"record": record, "seed": seed, "end_to_end": e2e, "setups_s": setups,
               "runs": [{k: r[k] for k in ("run_s", "cpu_s", "peak_rss_mb")}
                        for r in session.runs],
               "csv_sha256": session.hashes, "failures": session.failures,
               "findings": session.findings,
               "attempted": session.attempted}
    if trace:
        layers = traced["layers"]
        idle = [name for name in workload.layers if not layers.get(name + ".calls")]
        if idle:
            raise BenchError(f"traced run recorded no calls for declared layers {idle}")
        layers["trace.overhead_s"] = traced["run_s"] - run_s
        summary["layers"] = layers
    values, section = (layers, "per_layer") if trace else (e2e, "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in _units(section).items()}
    final = {"correct": session.failed == 0, "attempted": session.attempted,
             "failed": session.failed, "metrics": metrics}
    return final, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="override the workload's trials per simulation (smoke tests)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.trials is not None:
        workload = replace(workload, config={**workload.config, "trials": args.trials})
    try:
        final, summary = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (WORK / f"{name}.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    trials = workload.simulations * workload.config["trials"]
    print(f"{args.workload} seed {args.seed}: {len(summary['runs'])} timed runs, "
          f"{len(summary['setups_s'])} set-ups, {trials} trials per run")
    for metric, entry in final["metrics"].items():
        print(f"  {metric:<50} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'fail_ratio':<50} {final['failed'] / final['attempted']:.6g} ratio "
          f"({final['failed']}/{final['attempted']})")
    if summary["findings"]:
        print(f"  findings (reported, not graded): {len(summary['findings'])}, "
              f"first: {summary['findings'][0]}")
    print("run record: " + json.dumps(summary["record"], sort_keys=True))
    print("csv sha256: " + json.dumps(summary["csv_sha256"], sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
