import json
import math

import numpy as np
import pytest

from frisec.channel import ChannelStream, LinkBudget
from frisec.errors import ConfigError, DomainError
from frisec.harness import (SWEEP_COLUMNS, VALIDATE_BOUND_COLUMNS,
                            VALIDATE_FIT_COLUMNS, ExperimentConfig,
                            GainSamples, MetricEstimate, TrialRecords,
                            config_from_mapping, db_to_linear, dbm_to_watts,
                            dump_correlation_csv, estimate_asc, estimate_sop,
                            ks_statistic, records_for_budget, reference_fits,
                            rows_to_csv, simulate_gains, sweep_size,
                            sweep_snr, validate_bounds, validate_fits,
                            write_results)
from frisec.secrecy import (GammaFit, SecrecyTarget, asc_oracle, fit_bob_gamma,
                            fit_eve_exponential, sop_bound_from_ratio)
from frisec.specfun import reg_lower_inc_gamma
from frisec.surface import build_correlation


def small_config(**overrides):
    defaults = dict(m_x=4, m_z=4, m_on=4, conventional_m=4, trials=2048, seed=3,
                    snr_sweep_db=(60.0, 90.0, 120.0))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def base_records(cfg, geometry, m_on):
    """Per-trial records of the configured policy on `geometry` at the base budget."""
    gains = simulate_gains(build_correlation(geometry), cfg.policy, m_on, cfg.trials,
                           ChannelStream(cfg.seed))
    return records_for_budget(gains, cfg.budget())


class TestConfig:
    def test_db_conversions(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12)
        assert db_to_linear(120.0) == pytest.approx(1e12)

    def test_default_budget_matches_reference_scenario(self):
        cfg = ExperimentConfig()
        b = cfg.budget()
        assert b.avg_snr_bob == pytest.approx(1e12)
        assert b.avg_snr_eve == pytest.approx(1e11)
        assert cfg.wavelength == pytest.approx(0.1249135, rel=1e-5)
        assert cfg.fris_geometry().n_elements == 400

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(snr_sweep_db=(90.0, 80.0))
        with pytest.raises(ConfigError):
            small_config(snr_sweep_db=())
        with pytest.raises(ConfigError):
            small_config(policy="optimal")
        with pytest.raises(ConfigError):
            small_config(seed=-1)
        with pytest.raises(ConfigError):
            small_config(m_on=17)

    def test_mapping_roundtrip(self):
        cfg = config_from_mapping({"m_x": 4, "m_z": 4, "m_on": 4, "trials": 100,
                                   "snr_sweep_db": [60, 70]})
        assert cfg.trials == 100
        assert cfg.snr_sweep_db == (60, 70)
        with pytest.raises(ConfigError):
            config_from_mapping({"m_xx": 4})


class TestEstimates:
    def test_proportion_basic(self):
        est = MetricEstimate.for_proportion(50, 100)
        assert est.point == pytest.approx(0.5)
        assert est.ci_low < 0.5 < est.ci_high
        assert est.std_error == pytest.approx(0.05)

    def test_proportion_zero_count(self):
        est = MetricEstimate.for_proportion(0, 1000)
        assert est.point == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high <= 0.004  # Wilson interval stays tight near zero

    def test_mean_constant(self):
        est = MetricEstimate.for_mean(np.full(50, 2.5))
        assert est.point == pytest.approx(2.5)
        assert est.std_error == 0.0
        assert est.ci_low == est.ci_high == pytest.approx(2.5)

    def test_mean_needs_two(self):
        with pytest.raises(DomainError):
            MetricEstimate.for_mean(np.array([1.0]))


class TestEngine:
    def test_records_reproducible(self):
        cfg = small_config(trials=1)
        r1 = base_records(cfg, cfg.fris_geometry(), cfg.m_on)
        r2 = base_records(cfg, cfg.fris_geometry(), cfg.m_on)
        assert np.array_equal(r1.g_bob, r2.g_bob)
        assert np.array_equal(r1.capacity, r2.capacity)
        assert r1.g_bob.size == 1

    def test_silenced_eavesdropper_gives_nonnegative_log_capacity(self):
        cfg = small_config(noise_eve_dbm=300.0, trials=512)  # huge noise power
        rec = base_records(cfg, cfg.fris_geometry(), cfg.m_on)
        expected = np.log1p(rec.snr_bob) / math.log(2.0)
        assert np.allclose(rec.capacity, expected, rtol=1e-9)
        assert np.all(rec.capacity >= 0.0)

    def test_conventional_policy_geometry(self):
        cfg = small_config(policy="conventional", conventional_m=4)
        rec = base_records(cfg, cfg.conventional_geometry(), cfg.conventional_m)
        assert rec.g_bob.size == cfg.trials

    def test_worker_independence(self):
        corr = build_correlation(small_config().fris_geometry())
        st = ChannelStream(5, 0)
        g1 = simulate_gains(corr, "greedy", 4, 3000, st, workers=1)
        g3 = simulate_gains(corr, "greedy", 4, 3000, st, workers=3)
        assert np.array_equal(g1.g_bob, g3.g_bob)
        assert np.array_equal(g1.g_eve, g3.g_eve)

    def test_fixed_uniform_mean_matches_traces(self):
        cfg = ExperimentConfig(m_x=6, m_z=6, m_on=12, trials=60_000, seed=12)
        corr = build_correlation(cfg.fris_geometry())
        fit_b, fit_e = reference_fits(corr, 12)
        gains = simulate_gains(corr, "fixed-uniform", 12, 60_000, ChannelStream(12, 1))
        assert gains.g_bob.mean() == pytest.approx(fit_b.mean, rel=0.04)
        assert gains.g_eve.mean() == pytest.approx(fit_e.mean, rel=0.04)

    def test_reference_fits_leading_block(self):
        corr = build_correlation(small_config().fris_geometry())
        fit_b, fit_e = reference_fits(corr, 5)
        idx = np.arange(5)
        assert fit_b == fit_bob_gamma(corr.matrix[np.ix_(idx, idx)])
        assert fit_e == fit_eve_exponential(corr.matrix[np.ix_(idx, idx)])
        assert reference_fits(corr, 16)[0] == fit_bob_gamma(corr.matrix)
        # these texts reach the status column of sweep-size and validate-fits rows
        with pytest.raises(DomainError, match="^selection index 16 out of range for a "
                                              "16-element surface$"):
            reference_fits(corr, 17)
        for m_on in (0, -1):
            with pytest.raises(DomainError, match="^selection must contain at least one"):
                reference_fits(corr, m_on)


class TestEstimators:
    def test_sop_all_outage(self):
        rec = TrialRecords(*[np.zeros(10)] * 4, capacity=np.zeros(10))
        est = estimate_sop(rec, SecrecyTarget(1.0))
        assert est.point == 1.0

    def test_sop_none_below(self):
        rec = TrialRecords(*[np.zeros(1000)] * 4, capacity=np.full(1000, 5.0))
        est = estimate_sop(rec, SecrecyTarget(1.0))
        assert est.point == 0.0
        assert est.ci_high <= 0.004

    def test_sop_boundary_counts_as_outage(self):
        rec = TrialRecords(*[np.zeros(4)] * 4, capacity=np.array([1.0, 1.0, 2.0, 0.5]))
        assert estimate_sop(rec, SecrecyTarget(1.0)).point == pytest.approx(0.75)

    def test_sop_synthetic_matches_closed_form(self):
        # exponential bob gain (shape 1), exponential eve: closed form 1/(1+z)
        rng = np.random.default_rng(17)
        n = 100_000
        a, b, rs = 2000.0, 1000.0, 1.0
        snr_b = rng.exponential(a, size=n)
        snr_e = rng.exponential(b, size=n)
        cap = np.maximum(0.0, (np.log1p(snr_b) - np.log1p(snr_e)) / math.log(2.0))
        rec = TrialRecords(snr_b / a, snr_e / b, snr_b, snr_e, cap)
        est = estimate_sop(rec, SecrecyTarget(rs))
        target = sop_bound_from_ratio(1.0, a / (b * 2.0 ** rs))
        assert est.ci_low <= target + 0.004 and target <= est.ci_high + 0.004

    def test_asc_degenerate(self):
        rec = TrialRecords(*[np.zeros(100)] * 4, capacity=np.full(100, 2.0))
        est = estimate_asc(rec)
        assert est.point == pytest.approx(2.0)
        assert est.std_error == 0.0

    def test_asc_synthetic_matches_oracle(self):
        rng = np.random.default_rng(23)
        n = 200_000
        fit_b = GammaFit(shape=2.0, scale=1.5)
        budget = LinkBudget(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        snr_b = rng.gamma(2.0, 1.5, size=n)
        snr_e = rng.exponential(1.0 / 0.7, size=n)
        cap = np.maximum(0.0, (np.log1p(snr_b) - np.log1p(snr_e)) / math.log(2.0))
        rec = TrialRecords(snr_b, snr_e, snr_b, snr_e, cap)
        est = estimate_asc(rec)
        from frisec.secrecy import ExpFit
        ref = asc_oracle(fit_b, ExpFit(rate=0.7), budget)
        assert abs(est.point - ref) <= 3.5 * est.std_error


class TestKs:
    def test_matches_own_distribution(self):
        rng = np.random.default_rng(29)
        samples = rng.gamma(2.0, 1.5, size=100_000)

        def cdf(x):
            return reg_lower_inc_gamma(2.0, x / 1.5)

        assert ks_statistic(samples, cdf) <= 0.01

    def test_degenerate_samples(self):
        samples = np.full(200, 0.3)
        stat = ks_statistic(samples, lambda x: np.clip(x, 0.0, 1.0))  # uniform CDF
        assert stat == pytest.approx(0.7)

    def test_cdf_called_once_on_sorted_samples(self):
        samples = np.random.default_rng(31).uniform(size=500)
        calls = []

        def cdf(x):
            calls.append(x.copy())
            return x

        stat = ks_statistic(samples, cdf)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.sort(samples))
        n = samples.size
        expected = max(np.max(np.arange(1, n + 1) / n - calls[0]),
                       np.max(calls[0] - np.arange(n) / n))
        assert stat == expected

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            ks_statistic(np.ones(10), lambda x: x)


class TestSweeps:
    def test_snr_sweep_rows(self):
        cfg = small_config()
        rows = sweep_snr(cfg)
        assert len(rows) == 2 * len(cfg.snr_sweep_db)  # policy + conventional
        for row in rows:
            assert row["status"] == "ok"
            assert 0.0 <= row["sop_mc"] <= 1.0
            assert row["sop_ci_low"] <= row["sop_mc"] <= row["sop_ci_high"]
            assert row["asc_ci_low"] <= row["asc_mc"] <= row["asc_ci_high"]
            assert set(SWEEP_COLUMNS) == set(row)

    def test_snr_sweep_deterministic(self):
        cfg = small_config()
        a = rows_to_csv(sweep_snr(cfg), SWEEP_COLUMNS)
        b = rows_to_csv(sweep_snr(cfg), SWEEP_COLUMNS)
        assert a == b

    def test_worker_count_invariance(self):
        base = small_config(size_sweep=(4, 9), trials=3000)
        multi = small_config(size_sweep=(4, 9), trials=3000, workers=3)
        for sweep, columns in ((sweep_snr, SWEEP_COLUMNS), (sweep_size, SWEEP_COLUMNS),
                               (lambda cfg: validate_fits(cfg, (2, 4)), VALIDATE_FIT_COLUMNS),
                               (validate_bounds, VALIDATE_BOUND_COLUMNS)):
            assert rows_to_csv(sweep(base), columns) == rows_to_csv(sweep(multi), columns)

    def test_size_sweep_rows(self):
        cfg = small_config(size_sweep=(4, 9), m_on=4, conventional_m=9)
        rows = sweep_size(cfg)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        conv = [r for r in rows if r["policy"] == "conventional"]
        assert len(conv) == 2
        assert all(r["m_total"] == r["m_on"] == cfg.conventional_m for r in conv)

    def test_size_sweep_rejects_non_square_gracefully(self):
        cfg = small_config(size_sweep=(4, 10), m_on=4)
        rows = sweep_size(cfg)
        bad = [r for r in rows if r["sweep_value"] == 10 and r["policy"] != "conventional"]
        assert any("error" in str(r["status"]) for r in bad)
        good = [r for r in rows if r["sweep_value"] == 4]
        assert all(r["status"] == "ok" for r in good)

    def test_validate_fits_rows(self):
        cfg = ExperimentConfig(m_x=4, m_z=4, m_on=4, trials=20_000, seed=5)
        rows = validate_fits(cfg, (2, 4))
        assert [r["m_on"] for r in rows] == [2, 4]
        for r in rows:
            assert r["status"] == "ok"
            assert r["rel_err_bob"] < 0.1
            assert set(VALIDATE_FIT_COLUMNS) == set(r)

    def test_validate_bounds_rows(self):
        cfg = small_config(trials=20_000)
        rows = validate_bounds(cfg)
        assert len(rows) == len(cfg.snr_sweep_db)
        for r in rows:
            assert r["sop_bound_ok"] == 1
            assert set(VALIDATE_BOUND_COLUMNS) == set(r)


class TestOutput:
    def test_csv_formatting(self):
        rows = [{"a": 1, "b": 0.5, "c": float("nan"), "d": "ok"}]
        text = rows_to_csv(rows, ("a", "b", "c", "d"))
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,c,d"
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert cells[1] == format(0.5, ".17e")
        assert cells[2] == "nan"
        assert cells[3] == "ok"

    def test_write_results_and_manifest(self, tmp_path):
        cfg = small_config()
        rows = validate_bounds(small_config(trials=1024))
        out = tmp_path / "res.csv"
        write_results(str(out), rows, VALIDATE_BOUND_COLUMNS, cfg)
        assert out.exists()
        manifest = json.loads((out.with_suffix(".csv.manifest.json")).read_text())
        assert manifest["config"]["seed"] == cfg.seed
        assert "version" in manifest
        assert "element_distance" in manifest["notes"]

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(trials=1024)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(str(p1), sweep_snr(cfg), SWEEP_COLUMNS, cfg)
        write_results(str(p2), sweep_snr(cfg), SWEEP_COLUMNS, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dump_correlation(self, tmp_path):
        cfg = small_config()
        out = tmp_path / "corr.csv"
        diag = dump_correlation_csv(cfg, str(out))
        grid = np.loadtxt(str(out), delimiter=",")
        corr = build_correlation(cfg.fris_geometry())
        assert np.array_equal(grid, corr.matrix)
        assert diag["n_elements"] == 16
