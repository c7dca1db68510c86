import math

import numpy as np
import pytest

from frisec.errors import ConvergenceError, DomainError
from frisec.specfun import (QuadratureSpec, bessel_j0, integrate_semi_infinite,
                            meijer_g_2122, reg_lower_inc_gamma)

from oracles import (bessel_j0_integral, bessel_j0_series, meijer_g_2122_oracle,
                     reg_gamma_tail_quadrature, reg_lower_inc_gamma_loop)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_root(self):
        # root location frozen from the series/recurrence oracle
        assert abs(bessel_j0(2.404825557695773)) <= 1e-10

    def test_at_pi(self):
        # value frozen from the ascending-series oracle (agrees to 1e-14)
        assert bessel_j0_series(math.pi) == pytest.approx(-0.3042421776440938, abs=1e-15)
        assert bessel_j0(math.pi) == pytest.approx(-0.3042421776440938, abs=1e-14)

    def test_even_exactly(self):
        for x in (0.5, 3.25, 7.9, 12.5, 44.0, 9999.0):
            assert bessel_j0(-x) == bessel_j0(x)

    @pytest.mark.parametrize("x", list(np.linspace(0.1, 30.0, 40)) +
                             [60.0, 150.0, 1234.5, 9999.0, 1e4])
    def test_against_integral_oracle(self, x):
        assert abs(bessel_j0(x) - bessel_j0_integral(x)) <= 1e-12

    def test_against_scipy(self):
        # a dense grid plus both sides of the switches between the series,
        # the backward recurrence and the asymptotic expansion
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.linspace(0.0, 200.0, 4001),
                            np.nextafter([8.0, 8.0, 17.0, 17.0], [0.0, 9.0, 0.0, 18.0])])
        np.testing.assert_allclose([bessel_j0(v) for v in x], special.j0(x),
                                   rtol=0.0, atol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            bessel_j0(float("nan"))
        with pytest.raises(DomainError):
            bessel_j0(float("inf"))


class TestRegLowerIncGamma:
    def test_exponential_special_case(self):
        assert reg_lower_inc_gamma(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_zero(self):
        assert reg_lower_inc_gamma(2.5, 0.0) == 0.0
        assert reg_lower_inc_gamma(77.0, 0.0) == 0.0

    def test_against_quadrature_oracle(self):
        # spec-level check point plus a spread of shapes
        assert reg_lower_inc_gamma(2.5, 2.5) == pytest.approx(
            reg_gamma_tail_quadrature(2.5, 2.5), abs=1e-10)
        for k, x in [(0.3, 0.2), (1.7, 4.0), (10.0, 9.5), (50.0, 60.0)]:
            assert reg_lower_inc_gamma(k, x) == pytest.approx(
                reg_gamma_tail_quadrature(k, x), rel=1e-8)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = float(rng.uniform(0.1, 40.0))
            x1, x2 = sorted(rng.uniform(0.0, 80.0, size=2))
            assert reg_lower_inc_gamma(k, x1) <= reg_lower_inc_gamma(k, x2) + 1e-15

    def test_range_and_limits(self):
        assert 0.0 < reg_lower_inc_gamma(2.5, 2.5) < 1.0
        assert reg_lower_inc_gamma(2.0, 800.0) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(-2.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(1.0, -0.5)

    @staticmethod
    def branch_grid(k):
        # zero, the series branch, both sides of the switch at k + 1, and the
        # continued-fraction branch
        kp1 = k + 1.0
        return np.array([0.0, 0.1 * k, 0.5 * k, 0.9 * k, np.nextafter(kp1, 0.0), kp1,
                         np.nextafter(kp1, np.inf), 1.2 * kp1, 2.0 * kp1, 4.0 * kp1])

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 16.6, 50.0, 200.0])
    def test_against_scipy(self, k):
        special = pytest.importorskip("scipy.special")
        x = self.branch_grid(k)
        np.testing.assert_allclose(reg_lower_inc_gamma(k, x), special.gammainc(k, x),
                                   rtol=1e-12, atol=0.0)

    def test_array_matches_per_element_calls(self):
        for k in (0.5, 16.6, 200.0):
            x = np.concatenate([self.branch_grid(k),
                                np.random.default_rng(5).gamma(k, 1.0, size=300)])
            vals = reg_lower_inc_gamma(k, x.reshape(2, -1))
            assert vals.shape == (2, x.size // 2)
            assert np.array_equal(vals.ravel(), [reg_lower_inc_gamma(k, xi) for xi in x])

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 16.6, 50.0, 200.0])
    def test_matches_scalar_loop(self, k):
        # same arithmetic except numpy's log and exp for math's: the front
        # factor x^k e^-x / Gamma(k) may move by a few roundings of its
        # exponent, relative in P on the series side and in 1 - P beyond k + 1
        x = np.concatenate([self.branch_grid(k)[1:],
                            np.random.default_rng(6).gamma(k, 1.0, size=2000)])
        vals = reg_lower_inc_gamma(k, x)
        loop = np.array([reg_lower_inc_gamma_loop(k, xi) for xi in x])
        exponent = k * np.abs(np.log(x)) + x + abs(math.lgamma(k)) + 1.0
        tol = 4.0 * np.finfo(float).eps * exponent * np.where(x < k + 1.0, loop, 1.0 - loop)
        assert np.all(np.abs(vals - loop) <= tol)
        assert reg_lower_inc_gamma(k, 0.0) == reg_lower_inc_gamma_loop(k, 0.0) == 0.0

    def test_scalar_and_0d_inputs_give_floats(self):
        for x in (2.5, np.float64(2.5), np.array(2.5), 0.0, np.array(0.0)):
            assert type(reg_lower_inc_gamma(2.5, x)) is float
        assert reg_lower_inc_gamma(2.5, np.array(2.5)) == reg_lower_inc_gamma(2.5, 2.5)
        assert reg_lower_inc_gamma(2.5, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, float("nan"), float("inf"), -float("inf")])
    def test_bad_entry_in_array_raises(self, bad):
        with pytest.raises(DomainError):
            reg_lower_inc_gamma(2.0, np.array([0.5, 1.0, bad, 3.0]))


class TestMeijerG:
    def test_known_values_via_oracle(self):
        # both frozen from the Mellin-Barnes oracle
        assert meijer_g_2122_oracle(1.0, 1.0, 4096) == pytest.approx(0.5, rel=1e-8)
        assert meijer_g_2122_oracle(1.0, 2.0, 4096) == pytest.approx(0.25, rel=1e-8)
        assert meijer_g_2122(1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert meijer_g_2122(1.0, 2.0) == pytest.approx(0.25, rel=1e-12)

    def test_reduction_point(self):
        expected = math.gamma(0.5) / (10.0 * math.sqrt(11.0))
        assert meijer_g_2122_oracle(10.0, 0.5, 4096) == pytest.approx(expected, rel=1e-8)
        assert meijer_g_2122(10.0, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_small_argument_limit(self):
        assert meijer_g_2122_oracle(1e-6, 3.0, 4096) == pytest.approx(2e6, rel=1e-5)

    def test_decays_monotonically(self):
        zs = np.logspace(-3, 6, 40)
        vals = [meijer_g_2122(z, 2.5) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12

    def test_normalized_form_is_survival_like(self):
        # z * G / Gamma(k) equals (1+z)^-k: in (0, 1], nonincreasing in z
        prev = 1.1
        for z in np.logspace(-6, 6, 30):
            val = meijer_g_2122(z, 3.0) * z / math.gamma(3.0)
            assert 0.0 < val <= 1.0
            assert val <= prev
            prev = val

    def test_reduction_matches_oracle_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = 10.0 ** rng.uniform(-6, 6)
            k = 10.0 ** rng.uniform(math.log10(0.25), math.log10(64.0))
            red = meijer_g_2122(z, k)
            orc = meijer_g_2122_oracle(z, k, 4096)
            assert abs(red - orc) / orc <= 1e-7

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for k in (0.25, 1.0, 3.7, 16.6):
            for z in np.logspace(-6.0, 6.0, 7):
                ref = float(mpmath.meijerg([[-k], [0]], [[0, -1], []], z))
                assert meijer_g_2122(z, k) == pytest.approx(ref, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            meijer_g_2122(0.0, 1.0)
        with pytest.raises(DomainError):
            meijer_g_2122(1.0, -1.0)
        with pytest.raises(DomainError):
            meijer_g_2122_oracle(1.0, 1.0, 100)  # too few contour points


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)

    def test_exponential(self):
        assert integrate_semi_infinite(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-10)

    def test_first_moment(self):
        assert integrate_semi_infinite(lambda x: x * np.exp(-x)) == pytest.approx(1.0, rel=1e-10)

    def test_with_inc_gamma_factor(self):
        # closed form (1 + 1/r)^-k with r = 1, k = 2
        def f(x):
            return np.exp(-x) * reg_lower_inc_gamma(2.0, x)

        assert integrate_semi_infinite(f) == pytest.approx(0.25, rel=1e-9)

    @staticmethod
    def peak(x):
        # the Gamma(51) density, whose mass sits near x = 50
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(50.0 * np.log(x[pos]) - x[pos] - math.lgamma(51.0))
        return out

    def test_sharp_peak_far_out(self):
        # the subdivision must find the peak's mass
        assert integrate_semi_infinite(self.peak) == pytest.approx(1.0, rel=1e-9)

    def test_budget_exhaustion_reports_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-15, max_subdivisions=1)
        with pytest.raises(ConvergenceError) as err:
            integrate_semi_infinite(lambda x: np.cos(x) ** 2 * np.exp(-0.01 * x), spec)
        assert err.value.estimate is not None
        assert err.value.error_bound > 0

    def test_vector_components_match_scalar_integrals(self):
        rates = np.array([0.5, 1.0, 3.0, 20.0])

        def f(x):
            return np.exp(-np.outer(x, rates)) * np.array([1.0, 1e-6, 1e6, 1.0])

        spec = QuadratureSpec(rel_tol=1e-10)
        vals = integrate_semi_infinite(f, spec)
        assert isinstance(vals, np.ndarray) and vals.shape == (4,)
        for i, rate in enumerate(rates):
            alone = integrate_semi_infinite(lambda x: f(x)[:, i], spec)
            assert isinstance(alone, float)
            assert vals[i] == pytest.approx(alone, rel=1e-10)
            assert vals[i] == pytest.approx(f(np.zeros(1))[0, i] / rate, rel=1e-10)

    def test_hard_component_keeps_mesh_subdividing(self):
        # the easy component alone converges at once; sharing the mesh with
        # the peak, the loop must run until the peak has converged too
        counts = {}

        def counted(name, f):
            def wrapped(x):
                counts[name] = counts.get(name, 0) + 1
                return f(x)
            return wrapped

        easy = counted("easy", lambda x: np.exp(-x))
        both = counted("both", lambda x: np.stack([np.exp(-x), self.peak(x)], axis=1))
        assert integrate_semi_infinite(easy) == pytest.approx(1.0, rel=1e-10)
        vals = integrate_semi_infinite(both)
        assert vals[0] == pytest.approx(1.0, rel=1e-10)
        assert vals[1] == pytest.approx(1.0, rel=1e-9)
        assert counts["both"] > 2 * counts["easy"]

    def test_vector_budget_exhaustion_reports_arrays(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-15, max_subdivisions=1)
        with pytest.raises(ConvergenceError) as err:
            integrate_semi_infinite(
                lambda x: np.stack([np.exp(-x), np.cos(x) ** 2 * np.exp(-0.01 * x)], axis=1),
                spec)
        estimate, bound = err.value.estimate, err.value.error_bound
        assert isinstance(estimate, np.ndarray) and estimate.shape == (2,)
        assert isinstance(bound, np.ndarray) and bound.shape == (2,)
        assert np.all(bound > 0) and np.all(np.isfinite(estimate))

    def test_gauss_rules_integrate_polynomials_exactly(self):
        # guards the quadrature backbone: leggauss(15) is exact to degree 29
        from frisec.specfun import _gauss_rule
        x15, w15 = _gauss_rule(15)
        for deg in (0, 5, 17, 29):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert np.dot(w15, x15 ** deg) == pytest.approx(exact, abs=1e-13)
