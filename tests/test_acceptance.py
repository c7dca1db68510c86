"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Closed-form checks run against independent numerical oracles.  Monte Carlo
bound checks run in the frozen-configuration regime whose statistics the
moment-matched fits actually describe; trend checks run the adaptive
selection policy they name, against the conventional half-wavelength surface
that fills the same aperture.  Known model-level tensions (the capacity
closed form not being a certified bound; adaptive selection helping the
eavesdropper through the shared feed leg) are measured and surfaced here
rather than hidden: see the repository README for the full discussion.
"""

import math
import time

import numpy as np
import pytest

from frisec.channel import ChannelStream
from frisec.harness import (SWEEP_COLUMNS, VALIDATE_BOUND_COLUMNS,
                            ExperimentConfig, db_to_linear,
                            estimate_asc, estimate_sop, records_for_budget,
                            reference_fits, rows_to_csv, simulate_gains,
                            sweep_size, validate_bounds, validate_fits,
                            write_results)
from frisec.secrecy import (asc_oracle, asc_upper_bound, sop_bound_from_ratio,
                            sop_lower_bound, sop_oracle_from_ratio)
from frisec.surface import build_correlation

from oracles import meijer_g_2122, meijer_g_2122_oracle, wilson_estimate

SEED = 1234
TRIALS = 100_000


def report(cid: str, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def reference_config():
    # reference scenario: 20x20 surface in a 3-wavelength square aperture,
    # 100 active elements, 2.4 GHz, 20/30/30 m links, 30 dBm vs -90/-80 dBm
    return ExperimentConfig(trials=TRIALS, seed=SEED, m_on=100,
                            snr_sweep_db=tuple(float(v) for v in range(60, 125, 5)))


@pytest.fixture(scope="module")
def bound_rows(reference_config):
    start = time.monotonic()
    rows = validate_bounds(reference_config)
    return rows, time.monotonic() - start


def test_c1_sop_closed_form_matches_oracle():
    start = time.monotonic()
    shapes = np.logspace(math.log10(0.5), math.log10(50.0), 10)
    ratios = np.logspace(-3.0, 6.0, 20)
    worst = 0.0
    count = 0
    for k in shapes:
        for z in ratios:
            closed = sop_bound_from_ratio(float(k), float(z))
            oracle = sop_oracle_from_ratio(float(k), float(z))
            worst = max(worst, abs(closed - oracle) / oracle)
            count += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 10.0 and count >= 200
    report("C1", "outage closed form vs quadrature oracle", ok,
           f"({count} points, worst rel {worst:.2e}, {elapsed:.1f}s)")
    assert count >= 200
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_c2_meijer_reduction_matches_contour_oracle():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for k in np.logspace(math.log10(0.25), math.log10(64.0), 6):
        for z in np.logspace(-6.0, 6.0, 10):
            red = meijer_g_2122(float(z), float(k))
            orc = meijer_g_2122_oracle(float(z), float(k), 4096)
            worst = max(worst, abs(red - orc) / orc)
            count += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and elapsed < 30.0 and count >= 50
    report("C2", "Meijer G reduction vs Mellin-Barnes oracle", ok,
           f"({count} points, worst rel {worst:.2e}, {elapsed:.1f}s)")
    assert count >= 50
    assert worst <= 1e-7
    assert elapsed < 30.0


def test_c3_outage_bound_validity(bound_rows):
    rows, elapsed = bound_rows
    violations = [r for r in rows if not r["sop_bound_ok"]]
    ok = not violations and elapsed < 300.0
    worst_margin = min(r["sop_mc"] - (r["sop_bound"] - 2 * r["sop_se"]) for r in rows)
    report("C3", "MC outage >= closed-form lower bound - 2 SE", ok,
           f"({len(rows)} points 60-120 dB, {TRIALS} trials, "
           f"min margin {worst_margin:.2e}, {elapsed:.0f}s)")
    assert not violations, f"bound violated at {[r['avg_snr_bob_db'] for r in violations]}"
    assert elapsed < 300.0


def test_c4_diversity_slope_of_closed_form():
    # the closed form must decay like (average SNR)^-shape once the outage
    # ratio is deep in its tail; fitted over the top decade of a wide sweep
    settings = ((10, 10, 10), (10, 10, 50), (20, 20, 100))
    details = []
    ok = True
    for m_x, m_z, m_on in settings:
        cfg = ExperimentConfig(m_x=m_x, m_z=m_z, m_on=m_on, trials=10, seed=SEED)
        corr = build_correlation(cfg.fris_geometry())
        fit_b, fit_e = reference_fits(corr, m_on)
        base = cfg.budget()
        dbs = np.linspace(150.0, 160.0, 5)  # top decade of a 100-160 dB sweep
        vals = [sop_lower_bound(fit_b, fit_e, base.with_avg_snr_bob(db_to_linear(d)),
                                cfg.target()) for d in dbs]
        slope = float(np.polyfit(dbs / 10.0, np.log10(vals), 1)[0])
        rel = abs(slope + fit_b.shape) / fit_b.shape
        ok = ok and rel <= 0.05
        details.append(f"M={m_x * m_z}/on={m_on}: slope {slope:.3f} vs -{fit_b.shape:.3f} "
                       f"({rel:.2%})")
    report("C4", "high-SNR slope equals fitted shape", ok, "; ".join(details))
    assert ok


def test_c5_gain_law_validation():
    cfg = ExperimentConfig(m_x=10, m_z=10, trials=TRIALS, seed=SEED, m_on=100)
    rows = validate_fits(cfg, (10, 50, 100))
    ok = all(r["status"] == "ok" and r["rel_err_bob"] <= 0.01 and
             r["rel_err_eve"] <= 0.02 for r in rows)
    details = "; ".join(
        f"on={r['m_on']}: bob {r['rel_err_bob']:.2%}, eve {r['rel_err_eve']:.2%}, "
        f"KS(bob)={r['ks_bob']:.3f} KS(eve)={r['ks_eve']:.3f}" for r in rows)
    report("C5", "frozen-config gain means match trace formulas", ok, details)
    for r in rows:
        if r["ks_bob"] > 0.05 or r["ks_eve"] > 0.05:
            print(f"  advisory: KS above 0.05 at m_on={r['m_on']} (bob "
                  f"{r['ks_bob']:.3f}, eve {r['ks_eve']:.3f}); the fits match "
                  "means, not the full frozen-configuration law")
    for r in rows:
        assert r["rel_err_bob"] <= 0.01, f"bob mean off at m_on={r['m_on']}"
        assert r["rel_err_eve"] <= 0.02, f"eve mean off at m_on={r['m_on']}"


@pytest.fixture(scope="module")
def trend_gains(reference_config):
    corr = build_correlation(reference_config.fris_geometry())
    fris = simulate_gains(corr, "greedy", 100, TRIALS, ChannelStream(SEED, 0))
    # baseline: the half-wavelength all-ON grid over the same 3x3 aperture
    m_conv = reference_config.conventional_m
    conv = simulate_gains(build_correlation(reference_config.conventional_geometry()),
                          "greedy", m_conv, TRIALS, ChannelStream(SEED, 1))
    return fris, conv


def test_c6_selective_surface_outperforms_conventional(reference_config, trend_gains):
    fris, conv = trend_gains
    base = reference_config.budget()
    target = reference_config.target()
    rows = []
    for db in [d for d in reference_config.snr_sweep_db if d >= 90.0]:
        budget = base.with_avg_snr_bob(db_to_linear(db))
        cap_f, cap_c = records_for_budget(fris, budget), records_for_budget(conv, budget)
        asc_f, asc_c = estimate_asc(cap_f), estimate_asc(cap_c)
        sop_f, sop_c = estimate_sop(cap_f, target), estimate_sop(cap_c, target)
        rows.append((db, asc_f, asc_c, sop_f, sop_c))
        print(f"  {db:5.0f} dB: ASC fris {asc_f.point:.3f} vs conv {asc_c.point:.3f} | "
              f"SOP fris {sop_f.point:.5f} vs conv {sop_c.point:.5f}")
    asc_dominates = all(f.ci_low > c.ci_high for _, f, c, _, _ in rows)
    # An SOP interval cannot sit below a zero-outage count's upper Wilson
    # limit, so separation is required only where the baseline's lower end
    # clears that limit; the point estimate must never be worse.
    zero_count_limit = wilson_estimate(0, TRIALS).ci_high
    sop_not_worse = all(f.point <= c.point for _, _, _, f, c in rows)
    sop_resolved = [(db, f, c) for db, _, _, f, c in rows if c.ci_low > zero_count_limit]
    sop_dominates = sop_not_worse and all(f.ci_high < c.ci_low for _, f, c in sop_resolved)
    gaps = [f.point - c.point for _, f, c, _, _ in rows]
    gap_widens = gaps[-1] > gaps[0]
    ok = asc_dominates and sop_dominates and gap_widens
    report("C6", "selective surface beats same-aperture conventional baseline "
           "(adaptive MC)", ok,
           f"(ASC dominance {asc_dominates}, SOP dominance {sop_dominates} with "
           f"separate intervals at {[db for db, _, _ in sop_resolved]} dB, "
           f"gap first/last {gaps[0]:+.3f}/{gaps[-1]:+.3f})")
    if not ok:
        print("  measured mechanism: adaptive selection conditions the shared "
              "feed-leg fading, so the eavesdropper's mean gain rises with the "
              "selection gain; a baseline larger than the selective surface's "
              "aperture keeps a better legitimate-to-eavesdropper gain ratio.")
    assert asc_dominates, "ASC dominance does not hold against the same-aperture baseline"
    assert sop_not_worse, "selective surface has the higher SOP at some point"
    assert sop_dominates, "SOP intervals overlap where the baseline's outage is resolved"
    assert gap_widens


def test_c7_capacity_grows_with_surface_size(reference_config):
    # the abstract's density claim: at every pool size packed into the same
    # aperture, the selective surface beats the conventional surface there
    cfg = ExperimentConfig(trials=TRIALS, seed=SEED, m_on=64,
                           size_sweep=(100, 144, 196, 256, 324, 400))
    rows = sweep_size(cfg)
    fris = [r for r in rows if r["policy"] == "greedy"]
    conv = [r for r in rows if r["policy"] == "conventional"]
    for f, c in zip(fris, conv):
        print(f"  M={f['sweep_value']:4d}: ASC {f['asc_mc']:.4f} "
              f"[{f['asc_ci_low']:.4f}, {f['asc_ci_high']:.4f}] vs conventional "
              f"M={c['m_total']} {c['asc_mc']:.4f} [{c['asc_ci_low']:.4f}, "
              f"{c['asc_ci_high']:.4f}]")
    assert [f["sweep_value"] for f in fris] == [c["sweep_value"] for c in conv] \
        == list(cfg.size_sweep)
    beats_conventional = all(f["asc_ci_low"] > c["asc_ci_high"] for f, c in zip(fris, conv))
    conv_flat = max(r["asc_ci_low"] for r in conv) <= min(r["asc_ci_high"] for r in conv)
    ok = beats_conventional and conv_flat
    report("C7", "selective surface beats same-aperture conventional baseline at "
           "every pool size", ok,
           f"(greedy above conventional {beats_conventional}, conventional flat "
           f"{conv_flat}, greedy ASC first/last M {fris[0]['asc_mc']:.4f}/"
           f"{fris[-1]['asc_mc']:.4f})")
    if not ok:
        print("  measured mechanism: densifying the pool inside the fixed "
              "aperture strengthens spatial correlation and sharpens the "
              "feed-leg selection bias, which lifts the eavesdropper's gain "
              "along with the legitimate selection gain.")
    assert beats_conventional, "greedy ASC interval not above the baseline's at some size"
    assert conv_flat


def test_c8_capacity_bound_checked_and_violations_surfaced(reference_config, bound_rows):
    rows, _ = bound_rows
    assert len(rows) == len(reference_config.snr_sweep_db)
    violations = [r for r in rows if not r["asc_bound_ok"]]
    surfaced = []
    for r in rows:
        assert "asc_bound_ok" in r and "asc_bound_negative" in r  # recorded per row
        if not r["asc_bound_ok"]:
            surfaced.append(r["avg_snr_bob_db"])
            print(f"  surfaced: capacity closed form {r['asc_bound']:+.3f} below "
                  f"MC mean {r['asc_mc']:.3f} at {r['avg_snr_bob_db']:.0f} dB"
                  + (" (negative)" if r["asc_bound_negative"] else ""))
    # reference value: the quadrature capacity of the fitted laws
    corr = build_correlation(reference_config.fris_geometry())
    fit_b, fit_e = reference_fits(corr, reference_config.m_on)
    nominal = reference_config.budget()
    ub = asc_upper_bound(fit_b, fit_e, nominal)
    ref = asc_oracle(fit_b, fit_e, nominal)
    print(f"  fitted-law reference at nominal budget: closed form {ub:.3f} vs "
          f"quadrature {ref:.3f} (sign of difference: "
          f"{'+' if ub >= ref else '-'})")
    ok = len(surfaced) == len(violations)
    report("C8", "capacity closed form checked at every point, violations surfaced",
           ok, f"({len(violations)}/{len(rows)} points violated; "
               "closed form is an approximation, not a certified bound)")
    assert ok
    assert all(("asc_bound_ok" in r) for r in rows)


def test_c9_determinism(tmp_path):
    cfg = ExperimentConfig(m_x=6, m_z=6, m_on=9, conventional_m=9, trials=4096,
                           seed=SEED, snr_sweep_db=(80.0, 100.0, 120.0))
    from frisec.harness import sweep_snr
    csv_a = rows_to_csv(sweep_snr(cfg), SWEEP_COLUMNS)
    csv_b = rows_to_csv(sweep_snr(cfg), SWEEP_COLUMNS)
    cfg_workers = ExperimentConfig(m_x=6, m_z=6, m_on=9, conventional_m=9, trials=4096,
                                   seed=SEED, snr_sweep_db=(80.0, 100.0, 120.0),
                                   workers=4)
    csv_c = rows_to_csv(sweep_snr(cfg_workers), SWEEP_COLUMNS)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_results(str(p1), sweep_snr(cfg), SWEEP_COLUMNS, cfg, "sweep-sop")
    write_results(str(p2), sweep_snr(cfg), SWEEP_COLUMNS, cfg, "sweep-sop")
    same_rerun = csv_a == csv_b
    same_workers = csv_a == csv_c
    same_files = p1.read_bytes() == p2.read_bytes()
    ok = same_rerun and same_workers and same_files
    report("C9", "byte-identical reruns and worker-count invariance", ok,
           f"(rerun {same_rerun}, workers {same_workers}, files {same_files})")
    assert same_rerun and same_workers and same_files
