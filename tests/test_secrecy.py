import math
import sys

import numpy as np
import pytest

from frisec.channel import LinkBudget
from frisec.errors import DomainError
from frisec.harness import config_from_mapping, db_to_linear, reference_fits
from frisec.secrecy import (ExpFit, GammaFit, SecrecyTarget, asc_oracle, asc_upper_bound,
                            exp_cdf, fit_laws, gamma_cdf, sop_bound_from_ratio,
                            sop_lower_bound, sop_lower_oracle, sop_oracle_from_ratio,
                            sop_ratio)
from frisec.specfun import integrate_semi_infinite
from frisec.surface import build_correlation

from oracles import asc_oracle_nested, meijer_g_2122, secrecy_capacity, trace_power_direct


def unit_budget(snr_bob=1.0, snr_eve=1.0):
    return LinkBudget(ref_gain=1.0, pl_exponent=1.0, dist_feed_m=1.0, dist_bob_m=1.0,
                      dist_eve_m=1.0, tx_power_w=1.0, noise_bob_w=1.0 / snr_bob,
                      noise_eve_w=1.0 / snr_eve)


def spectrum(j):
    """mu of a symmetric J: its squared eigenvalues, whose sums are tr(J^2) and tr(J^4)."""
    return np.linalg.eigvalsh(j) ** 2


def traces(j):
    # tr(J^2) and tr(J^4) as the fits carry them: the exponential mean and
    # the Gamma scale times it
    fit_b, fit_e = fit_laws(spectrum(j))
    return fit_e.mean, fit_b.scale * fit_e.mean


class TestFits:
    def test_identity_reduced_matrix(self):
        fit, fit_e = fit_laws(spectrum(np.eye(6)))
        assert fit.shape == pytest.approx(6.0)
        assert fit.scale == pytest.approx(1.0)
        assert fit_e.rate == pytest.approx(1 / 6)

    def test_2x2_example(self):
        j = np.array([[1.0, 0.5], [0.5, 1.0]])
        fit, fit_e = fit_laws(spectrum(j))
        # frozen from the direct matrix-power oracle: tr2 = 2.5, tr4 = 5.125
        assert fit.shape == pytest.approx(6.25 / 5.125, rel=1e-12)
        assert fit.scale == pytest.approx(2.05, rel=1e-12)
        assert fit_e.rate == pytest.approx(0.4, rel=1e-12)

    def test_singleton(self):
        fit, fit_e = fit_laws(spectrum(np.array([[1.0]])))
        assert fit.shape == pytest.approx(1.0)
        assert fit.scale == pytest.approx(1.0)
        assert fit_e.rate == pytest.approx(1.0)

    def test_mean_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 10))
            a = rng.standard_normal((m, m))
            j = (a + a.T) / 2
            fit, fit_e = fit_laws(spectrum(j))
            tr2 = float(np.sum(j * j))
            assert fit.mean == pytest.approx(tr2, rel=1e-10)
            assert 1 / fit_e.rate == pytest.approx(tr2, rel=1e-10)
            assert fit.shape <= m + 1e-9  # Cauchy-Schwarz on eigenvalues

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            fit_laws(spectrum(np.zeros((3, 3))))

    def test_invalid_spectrum_rejected(self):
        for mu in ([], [0.0, 0.0], [1.0, -1e-300], [1.0, math.nan], [math.nan]):
            with pytest.raises(DomainError, match="spectrum"):
                fit_laws(np.array(mu))

    def test_traces_examples(self):
        assert traces(np.eye(7)) == pytest.approx((7.0, 7.0))
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        # frozen from the direct-multiplication oracle
        assert trace_power_direct(a, 2) == pytest.approx(2.5)
        assert trace_power_direct(a, 4) == pytest.approx(5.125)
        assert traces(a) == pytest.approx((2.5, 5.125), rel=1e-14)

    def test_traces_random_vs_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            a = rng.standard_normal((m, m))
            a = (a + a.T) / 2
            assert traces(a) == pytest.approx(
                (trace_power_direct(a, 2), trace_power_direct(a, 4)), rel=1e-11)

    def test_traces_cauchy_schwarz(self):
        # tr(A^4) >= tr(A^2)^2 / n, so the fitted shape never exceeds n
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(1, 14))
            a = rng.standard_normal((m, m))
            a = (a + a.T) / 2
            tr2, tr4 = traces(a)
            assert tr4 >= tr2 ** 2 / m - 1e-10


class TestDistributions:
    def test_gamma_cdf_limits(self):
        fit = GammaFit(shape=2.5, scale=1.3)
        assert gamma_cdf(0.0, fit) == 0.0
        assert gamma_cdf(1e6, fit) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_exponential_special_case(self):
        fit = GammaFit(shape=1.0, scale=1.0)
        assert gamma_cdf(math.log(2.0), fit) == pytest.approx(0.5, rel=1e-12)

    def test_exp_cdf_examples(self):
        fit = ExpFit(rate=0.25)
        assert exp_cdf(0.0, fit) == 0.0
        assert exp_cdf(math.log(2.0) / 0.25, fit) == pytest.approx(0.5, rel=1e-12)

    def test_negative_gain_rejected(self):
        with pytest.raises(DomainError):
            gamma_cdf(-1.0, GammaFit(1.0, 1.0))
        with pytest.raises(DomainError):
            exp_cdf(-1.0, ExpFit(1.0))


class TestSecrecyCapacity:
    def test_examples(self):
        assert secrecy_capacity(3.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert secrecy_capacity(5.5, 5.5) == 0.0
        assert secrecy_capacity(1.0, 3.0) == 0.0  # clamped
        # elementwise over arrays, as the per-budget records use it
        assert secrecy_capacity(np.array([3.0, 1.0]), np.array([1.0, 3.0])) == \
            pytest.approx([1.0, 0.0], rel=1e-14)
        with pytest.raises(DomainError):
            secrecy_capacity(np.array([1.0, -1.0]), np.zeros(2))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            b, e = rng.uniform(0, 100, size=2)
            c = secrecy_capacity(b, e)
            assert c >= 0.0
            assert (c == 0.0) == (b <= e)


class TestAscUpperBound:
    def test_equal_means_zero(self):
        fit_b = GammaFit(shape=2.0, scale=1.5)
        fit_e = ExpFit(rate=1.0 / 3.0)
        assert asc_upper_bound(fit_b, fit_e, unit_budget()) == pytest.approx(0.0, abs=1e-14)

    def test_direct_arithmetic(self):
        # bob mean term 3, eve mean term 1: log2(4 / 2) = 1
        fit_b = GammaFit(shape=1.0, scale=1.0)
        fit_e = ExpFit(rate=1.0)
        assert asc_upper_bound(fit_b, fit_e, unit_budget(snr_bob=3.0)) == pytest.approx(1.0)

    def test_monotonicity(self):
        fit_b = GammaFit(shape=2.0, scale=1.0)
        fit_e = ExpFit(rate=0.5)
        vals_b = [asc_upper_bound(fit_b, fit_e, unit_budget(snr_bob=s)) for s in
                  (0.1, 1.0, 10.0, 100.0)]
        assert all(y > x for x, y in zip(vals_b, vals_b[1:]))
        vals_e = [asc_upper_bound(fit_b, fit_e, unit_budget(snr_eve=s)) for s in
                  (0.1, 1.0, 10.0, 100.0)]
        assert all(y < x for x, y in zip(vals_e, vals_e[1:]))

    def test_negative_allowed(self):
        fit_b = GammaFit(shape=1.0, scale=1.0)
        fit_e = ExpFit(rate=1.0)
        assert asc_upper_bound(fit_b, fit_e, unit_budget(snr_eve=50.0)) < 0.0


class TestSopBound:
    def test_ratio_drops_feed_leg(self):
        # changing the feed distance must not move the outage ratio
        fit_b = GammaFit(shape=2.0, scale=1.5)
        fit_e = ExpFit(rate=0.25)
        t = SecrecyTarget(1.0)
        near = LinkBudget(1.0, 2.0, 1.0, 30.0, 30.0, 1.0, 1e-9, 1e-8)
        far = LinkBudget(1.0, 2.0, 500.0, 30.0, 30.0, 1.0, 1e-9, 1e-8)
        assert sop_ratio(fit_b, fit_e, near, t) == pytest.approx(
            sop_ratio(fit_b, fit_e, far, t), rel=1e-12)

    def test_certain_outage_limit(self):
        assert sop_bound_from_ratio(2.0, 0.0) == 1.0
        assert sop_bound_from_ratio(2.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_is_reduced_meijer_kernel(self):
        # The paper's bound is z G(z) / Gamma(k) with the Meijer kernel G that
        # acceptance C2 checks against its contour oracle; on C2's grid the
        # library's (1 + z)^-k must be that same number wherever it is a
        # normal float.
        compared = 0
        for k in np.logspace(math.log10(0.25), math.log10(64.0), 6):
            for z in np.logspace(-6.0, 6.0, 10):
                k, z = float(k), float(z)
                bound = sop_bound_from_ratio(k, z)
                if bound < sys.float_info.min:
                    continue
                assert bound == pytest.approx(z * meijer_g_2122(z, k) / math.gamma(k), rel=1e-12)
                compared += 1
        assert compared >= 50

    def test_known_points_vs_oracle(self):
        # frozen from the defining-integral oracle
        assert sop_oracle_from_ratio(1.0, 1.0) == pytest.approx(0.5, abs=1e-8)
        assert sop_oracle_from_ratio(2.0, 3.0) == pytest.approx(0.0625, abs=1e-8)
        assert sop_bound_from_ratio(1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert sop_bound_from_ratio(2.0, 3.0) == pytest.approx(0.0625, rel=1e-12)

    def test_budget_level_consistency(self):
        fit_b = GammaFit(shape=3.0, scale=2.0)
        fit_e = ExpFit(rate=0.5)
        budget = LinkBudget(1.0, 2.5, 20.0, 30.0, 30.0, 1.0, 1e-12, 1e-11)
        t = SecrecyTarget(1.0)
        closed = sop_lower_bound(fit_b, fit_e, budget, t)
        oracle = sop_lower_oracle(fit_b, fit_e, budget, t)
        assert closed == pytest.approx(oracle, abs=1e-8)

    def test_matched_exponential_symmetry(self):
        # zero target rate, both links exponential with equal means: 1/2
        fit_b = GammaFit(shape=1.0, scale=4.0)
        fit_e = ExpFit(rate=0.25)
        t = SecrecyTarget(0.0)
        assert sop_lower_bound(fit_b, fit_e, unit_budget(), t) == pytest.approx(0.5)
        assert sop_lower_oracle(fit_b, fit_e, unit_budget(), t) == pytest.approx(0.5, abs=1e-8)

    def test_silent_eavesdropper(self):
        fit_b = GammaFit(shape=2.0, scale=1.0)
        fit_e = ExpFit(rate=1.0)
        b = unit_budget(snr_bob=1.0, snr_eve=1e-12)
        assert sop_lower_bound(fit_b, fit_e, b, SecrecyTarget(1.0)) <= 1e-20

    def test_monotonicity_properties(self):
        fit_e = ExpFit(rate=0.5)
        t = SecrecyTarget(1.0)
        # nonincreasing in bob's average SNR
        vals = [sop_lower_bound(GammaFit(2.0, 1.0), fit_e, unit_budget(snr_bob=s), t)
                for s in (0.1, 1.0, 10.0, 100.0)]
        assert all(y < x for x, y in zip(vals, vals[1:]))
        # nonincreasing in the fitted shape at fixed ratio
        zs = sop_ratio(GammaFit(2.0, 1.0), fit_e, unit_budget(), t)
        assert sop_bound_from_ratio(3.0, zs) < sop_bound_from_ratio(2.0, zs)
        # nondecreasing in the target rate
        lo = sop_lower_bound(GammaFit(2.0, 1.0), fit_e, unit_budget(), SecrecyTarget(0.5))
        hi = sop_lower_bound(GammaFit(2.0, 1.0), fit_e, unit_budget(), SecrecyTarget(2.0))
        assert hi > lo

    def test_oracle_resolves_small_ratios(self):
        # for z << 1/k the outage is 1 - k z to first order; the oracle must
        # resolve that deficit rather than round the outage up to 1
        for k in (0.5, 1.0, 3.0, 16.08, 50.0):
            for z in np.logspace(-7.0, -4.0, 7):
                exact = -math.expm1(-k * math.log1p(z))
                assert 1.0 - sop_oracle_from_ratio(k, z) == pytest.approx(exact, rel=1e-6)

    def test_closed_form_oracle_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = 10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0))
            z = 10.0 ** rng.uniform(-3, 6)
            closed = sop_bound_from_ratio(k, z)
            oracle = sop_oracle_from_ratio(k, z)
            assert abs(closed - oracle) / oracle <= 1e-6


def validate_grid_cases(snr_grid_db):
    """(fits, budget) of the reference 10x10 pool at each average SNR in dB."""
    config = config_from_mapping({"m_x": 10, "m_z": 10, "aperture_x": 3.0,
                                  "aperture_z": 3.0, "m_on": 100})
    fit_b, fit_e = reference_fits(build_correlation(config.fris_geometry()), config.m_on)
    return [(fit_b, fit_e, config.budget().with_avg_snr_bob(db_to_linear(snr_db)))
            for snr_db in snr_grid_db]


class TestAscOracle:
    def test_vanishing_bob(self):
        fit_b = GammaFit(shape=2.0, scale=1.0)
        fit_e = ExpFit(rate=1.0)
        assert asc_oracle(fit_b, fit_e, unit_budget(snr_bob=1e-14)) <= 1e-8

    def test_eve_absent_reduces_to_single_integral(self):
        # shape 1: capacity of an exponential-SNR link, eavesdropper silenced
        fit_b = GammaFit(shape=1.0, scale=1.0)
        fit_e = ExpFit(rate=1.0)
        a = 5.0
        val = asc_oracle(fit_b, fit_e, unit_budget(snr_bob=a, snr_eve=1e-13))
        single = integrate_semi_infinite(
            lambda x: np.log1p(a * x) / math.log(2.0) * np.exp(-x),
            rel_tol=1e-10, max_subdivisions=2000)
        assert val == pytest.approx(single, rel=1e-6)

    def test_matches_independent_identity(self):
        # the one-integral identity against the iterated quadrature of the
        # same expectation, on a unit case and on the 13 budgets of the
        # reference 10x10 pool's validation grid (60 to 120 dB)
        cases = [(GammaFit(shape=3.0, scale=2.0), ExpFit(rate=0.5),
                  unit_budget(snr_bob=5.0, snr_eve=1.0))]
        cases += validate_grid_cases(range(60, 125, 5))
        assert len(cases) == 14
        for fit_b, fit_e, budget in cases:
            assert asc_oracle(fit_b, fit_e, budget) == pytest.approx(
                asc_oracle_nested(fit_b, fit_e, budget), rel=1e-9)

    def test_against_mpmath(self):
        # 20-digit quadrature of the defining integral of F_Y (1 - F_X) g',
        # with breakpoints at both mean SNRs
        mpmath = pytest.importorskip("mpmath")
        for fit_b, fit_e, budget in validate_grid_cases((60, 90, 120)):
            with mpmath.workdps(20):
                shape = mpmath.mpf(fit_b.shape)
                scale_b = mpmath.mpf(budget.snr_scale("bob") * fit_b.scale)
                mean_e = mpmath.mpf(budget.snr_scale("eve") * fit_e.mean)

                def integrand(t):
                    return (-mpmath.expm1(-t / mean_e)
                            * mpmath.gammainc(shape, t / scale_b, mpmath.inf, regularized=True)
                            / ((1 + t) * mpmath.log(2)))

                points = sorted({mpmath.mpf(0), mean_e, 10 * mean_e, scale_b,
                                 shape * scale_b, 4 * shape * scale_b})
                ref, err = mpmath.quad(integrand, points + [mpmath.inf], error=True)
                assert err <= 1e-12 * ref
            assert asc_oracle(fit_b, fit_e, budget) == pytest.approx(float(ref), rel=1e-9)

    def test_bound_vs_oracle_direction_reported(self):
        # the closed form is not a certified bound; just confirm both evaluate
        fit_b = GammaFit(shape=4.0, scale=1.0)
        fit_e = ExpFit(rate=1.0)
        budget = unit_budget(snr_bob=100.0, snr_eve=10.0)
        ub = asc_upper_bound(fit_b, fit_e, budget)
        ref = asc_oracle(fit_b, fit_e, budget)
        assert math.isfinite(ub) and math.isfinite(ref) and ref > 0


class TestOracleQuadratureCost:
    def test_validate_grid_oracles_batch_their_panels(self, monkeypatch):
        # the 26 oracle integrals of the reference 10x10 validation grid: one
        # call of the integrand per refinement pass keeps each to a few calls,
        # and each oracle hands the integrator its own tolerances
        import frisec.secrecy as secrecy
        calls, given = [], []

        def counting(f, **tolerances):
            calls.append(0)
            given.append(tolerances)

            def counted(x):
                calls[-1] += 1
                return f(x)
            return integrate_semi_infinite(counted, **tolerances)

        monkeypatch.setattr(secrecy, "integrate_semi_infinite", counting)
        target = SecrecyTarget(1.0)
        for fit_b, fit_e, budget in validate_grid_cases(range(60, 125, 5)):
            sop_lower_oracle(fit_b, fit_e, budget, target)
            asc_oracle(fit_b, fit_e, budget)
        assert len(calls) == 26
        assert max(calls) <= 12
        assert sum(calls) <= 150
        # one SOP integral, then one ASC integral, per budget
        assert given == 13 * [{"abs_tol": 1e-320, "rel_tol": 1e-9, "max_subdivisions": 2000},
                              {"abs_tol": 1e-300, "rel_tol": 1e-10, "max_subdivisions": 2000}]
