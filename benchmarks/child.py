"""One step of the benchmark, run in a fresh interpreter by run.py.

    python3 benchmarks/child.py info
    python3 benchmarks/child.py setup PLAN
    python3 benchmarks/child.py run PLAN RESULT [--trace]

``info`` prints the interpreter, numpy and BLAS facts for the run record.
``setup`` imports frisec and builds every correlation matrix the workload
uses, then prints the monotonic clock so the caller can time it from spawn.
``run`` makes the workload's CLI calls (and, where the plan asks, the
closed-form-vs-oracle checks) and writes wall, CPU and peak-memory figures,
exit codes and check values to RESULT; with ``--trace`` it also records
per-layer spans and counters.  PLAN is the JSON file run.py writes.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import sys
import time


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
    }


def setup(plan: dict) -> float:
    from frisec.harness import config_from_mapping
    from frisec.surface import SurfaceGeometry, build_correlation

    wavelength = config_from_mapping(plan["config"]).wavelength
    for m_x, m_z, width_x, width_z in plan["geometries"]:
        build_correlation(SurfaceGeometry(m_x, m_z, width_x, width_z, wavelength))
    return time.perf_counter()


def oracle_checks(config_map: dict) -> list:
    """Closed forms and their quadrature oracles at every SNR grid point."""
    from frisec import harness, secrecy, surface
    from frisec.errors import FrisecError

    config = harness.config_from_mapping(config_map)
    corr = surface.build_correlation(config.fris_geometry())
    fit_b, fit_e = harness.reference_fits(corr, config.m_on)
    base, target = config.budget(), config.target()
    rows = []
    for snr_db in config.snr_sweep_db:
        budget = base.with_avg_snr_bob(harness.db_to_linear(snr_db))
        row = {"avg_snr_bob_db": snr_db, "shape": fit_b.shape,
               "ratio": secrecy.sop_ratio(fit_b, fit_e, budget, target),
               "sop_bound": secrecy.sop_lower_bound(fit_b, fit_e, budget, target),
               "asc_bound": secrecy.asc_upper_bound(fit_b, fit_e, budget)}
        for key, oracle, args in (
                ("sop_oracle", secrecy.sop_lower_oracle, (fit_b, fit_e, budget, target)),
                ("asc_oracle", secrecy.asc_oracle, (fit_b, fit_e, budget))):
            try:
                row[key] = oracle(*args)
            except FrisecError as exc:
                row[key], row[key + "_error"] = None, str(exc)
        rows.append(row)
    return rows


def run(plan: dict, trace: bool) -> dict:
    import frisec.cli

    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    codes = [frisec.cli.main(argv) for argv in plan["commands"]]
    checks = oracle_checks(plan["config"]) if plan["oracle_checks"] else []
    run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "codes": codes, "checks": checks, "run_s": run_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.counters, tracer.main_thread,
                                         plan["workers"])
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "info":
        print(json.dumps(info()))
        return 0
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    if mode == "setup":
        print(json.dumps({"done": setup(plan)}))
        return 0
    result = run(plan, trace="--trace" in argv[3:])
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
