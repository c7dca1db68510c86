"""Selection and phasing policies, checked through the batched kernels that
every simulation runs."""

import math

import numpy as np
import pytest

from frisec.channel import ChannelStream, correlated_images_batch
from frisec.errors import ConfigError, DomainError
from frisec.harness import ExperimentConfig, _fixed_selection, simulate_gains
from frisec.surface import SurfaceGeometry, build_correlation

from oracles import (adaptive_block, correlation_block, fixed_block, greedy_kernel,
                     select_exhaustive, three_link_draws, trace_power_direct)

WAVELENGTH = 0.12491352


def realization(side=3, aperture=1.5, trial=0, seed=2):
    """One trial's correlated images of the three links as a batch of one: (1, 3, M)."""
    corr = build_correlation(SurfaceGeometry(side, side, aperture, aperture, WAVELENGTH))
    draws = three_link_draws(seed, corr.rank, trial + 1)[trial:]
    return corr, correlated_images_batch(draws, corr.factor)


def greedy(corr, images, m_on):
    """The library kernel's (legitimate gain, eavesdropper variance) of a (1, 3, M) batch."""
    g_bob, var_eve = greedy_kernel(images[:, :2].transpose(1, 0, 2), corr.factor, m_on)
    return g_bob[0], var_eve[0]


def cophased_gains(corr, images, subset):
    """Oracle gains of one trial with `subset` ON, co-phased for Bob: the legitimate
    gain, the eavesdropper's drawn gain, and its variance a^H J_S a given the feed and
    the legitimate link, with the block J_S of J on the subset."""
    v, u_bob, u_eve = images[0, 0], images[0, 1], images[0, 2]
    idx = list(subset)
    terms = np.conj(u_bob[idx]) * v[idx]
    a = v[idx] * np.exp(-1j * np.angle(terms))
    h_eve = np.sum(np.conj(u_eve[idx]) * a)
    var_eve = float(np.real(np.conj(a) @ correlation_block(corr, idx) @ a))
    return float(np.sum(np.abs(terms))) ** 2, abs(h_eve) ** 2, var_eve


class TestGreedy:
    def test_full_selection_sums_all(self):
        corr, images = realization()
        h_bob, _ = adaptive_block(images, corr.n_elements)
        expected = float(np.sum(np.abs(np.conj(images[0, 1]) * images[0, 0])))
        assert h_bob[0] == pytest.approx(expected, rel=1e-12)
        assert greedy(corr, images, corr.n_elements)[0] == pytest.approx(expected ** 2,
                                                                         rel=1e-12)

    def test_single_is_argmax(self):
        corr, images = realization()
        h_bob, h_eve = adaptive_block(images, 1)
        v, u_bob, u_eve = images[0, 0], images[0, 1], images[0, 2]
        k = int(np.argmax(np.abs(np.conj(u_bob) * v)))
        assert h_bob[0] == pytest.approx(abs(np.conj(u_bob[k]) * v[k]), rel=1e-12)
        # one element ON: the eavesdropper sees exactly that element, whose
        # image has unit variance, so its variance is |v_k|^2
        assert abs(h_eve[0]) == pytest.approx(abs(np.conj(u_eve[k]) * v[k]), rel=1e-12)
        g_bob, var_eve = greedy(corr, images, 1)
        assert g_bob == pytest.approx(h_bob[0] ** 2, rel=1e-12)
        assert var_eve == pytest.approx(abs(v[k]) ** 2, rel=1e-12)

    def test_bad_count(self):
        corr, _ = realization()
        for m_on in (0, corr.n_elements + 1):
            with pytest.raises(DomainError):
                simulate_gains(corr, "greedy", m_on, 10, ChannelStream(1, 0))

    @pytest.mark.parametrize("side,m_on", [(3, 3), (3, 5)])
    def test_matches_exhaustive_small(self, side, m_on):
        corr, images = realization(side=side, trial=3)
        h_bob, h_eve = adaptive_block(images, m_on)
        brute = select_exhaustive(images[0, 1], images[0, 0], m_on)
        g_bob, g_eve, var_eve = cophased_gains(corr, images, brute)
        assert abs(h_bob[0]) ** 2 == pytest.approx(g_bob, rel=1e-12)
        # the eavesdropper gain pins down the subset, not just its objective
        assert abs(h_eve[0]) ** 2 == pytest.approx(g_eve, rel=1e-9)
        assert greedy(corr, images, m_on) == pytest.approx((g_bob, var_eve), rel=1e-9)

    def test_matches_exhaustive_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            corr, images = realization(side=3, aperture=2.0, trial=int(rng.integers(1000)))
            m_on = int(rng.integers(1, 9))
            h_bob, h_eve = adaptive_block(images, m_on)
            g_bob, g_eve, var_eve = cophased_gains(
                corr, images, select_exhaustive(images[0, 1], images[0, 0], m_on))
            assert abs(h_bob[0]) ** 2 == pytest.approx(g_bob, rel=1e-12)
            assert abs(h_eve[0]) ** 2 == pytest.approx(g_eve, rel=1e-9)
            assert greedy(corr, images, m_on) == pytest.approx((g_bob, var_eve), rel=1e-9)

    def test_cophasing_beats_random_phases(self):
        rng = np.random.default_rng(31)
        corr, images = realization(trial=9)
        best = math.sqrt(greedy(corr, images, 6)[0])
        subset = list(select_exhaustive(images[0, 1], images[0, 0], 6))
        for _ in range(50):
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=(1, 6)))
            h_bob, _ = fixed_block(images[:, :, subset], phases)
            assert abs(h_bob[0]) <= best * (1 + 1e-12)

    @pytest.mark.parametrize("m_on", [1, 5, 15, 16])
    def test_rank_one_pool_selects_exactly_m_on(self, m_on):
        # a rank-1 pool: every element's image is the same, so every cascade
        # magnitude ties; m_on of them are ON, and the eavesdropper's sum is
        # m_on times one element's
        factor = np.ones((16, 1))
        draws = three_link_draws(5, 1, 64)[:, :2].transpose(1, 0, 2)
        v, u_bob = correlated_images_batch(draws, factor)
        g_bob, var_eve = greedy_kernel(np.stack((v, u_bob)), factor, m_on)
        assert g_bob == pytest.approx((m_on * np.abs(v[:, 0] * u_bob[:, 0])) ** 2, rel=1e-12)
        assert var_eve == pytest.approx((m_on * np.abs(v[:, 0])) ** 2, rel=1e-12)

    def test_ties_at_the_threshold_keep_the_lowest_indices(self):
        # magnitudes 1, 3, 2, 2, 2: two ON are element 1 and element 2, the
        # first of the three tied at the threshold
        rng = np.random.default_rng(8)
        factor = rng.standard_normal((5, 3))
        u_bob = np.array([1.0, 3.0, 2.0, 2.0, 2.0]) * np.exp(2j * math.pi * rng.uniform(size=5))
        images = np.stack((np.ones((1, 5), complex), u_bob[None, :]))
        g_bob, var_eve = greedy_kernel(images, factor, 2)
        a = np.zeros(5, complex)
        a[[1, 2]] = u_bob[[1, 2]] / np.abs(u_bob[[1, 2]])
        assert g_bob[0] == 25.0
        assert var_eve[0] == pytest.approx(np.linalg.norm(factor.T @ a) ** 2, rel=1e-12)

    def test_exhaustive_budget(self):
        _, images = realization(side=3)
        u_bob = np.concatenate([images[0, 1]] * 5)  # fake a 45-element surface
        v_feed = np.concatenate([images[0, 0]] * 5)
        with pytest.raises(DomainError):
            select_exhaustive(u_bob, v_feed, 20)


class TestEveNonAlignment:
    def test_eve_channel_mean_near_zero(self):
        # adaptive configs align only the legitimate channel; the eavesdropper
        # equivalent channel must stay zero-mean, the premise of the library's
        # law CN(0, sigma^2) for it given the other two links
        corr = build_correlation(SurfaceGeometry(4, 4, 2.0, 2.0, WAVELENGTH))
        total = 0j
        n = 0
        for b in range(98):
            _, he = adaptive_block(correlated_images_batch(three_link_draws(77 + b, corr.rank),
                                                           corr.factor), 6)
            total += he.sum()
            n += he.size
        mean = total / n
        # standard error of each component is sigma/sqrt(n) with sigma^2 ~ E|he|^2/2
        images = correlated_images_batch(three_link_draws(77, corr.rank), corr.factor)
        sigma = math.sqrt(float(np.mean(np.abs(images[:, 2]) ** 2)) * 6)
        assert abs(mean) <= 3.0 * sigma / math.sqrt(n)


class TestConventional:
    def test_square_layout(self):
        cfg = ExperimentConfig(conventional_m=100)
        geom = cfg.conventional_geometry()
        assert (geom.m_x, geom.m_z) == (10, 10)
        assert geom.spacing_x == pytest.approx(WAVELENGTH / 2)
        assert geom.spacing_z == pytest.approx(WAVELENGTH / 2)
        assert geom.n_elements == 100

    def test_single_element(self):
        corr = build_correlation(ExperimentConfig(conventional_m=1).conventional_geometry())
        assert np.array_equal(correlation_block(corr, [0]), np.array([[1.0]]))

    def test_aperture_scales_with_count(self):
        geom = ExperimentConfig(conventional_m=400).conventional_geometry()
        assert geom.width_x == pytest.approx(10.0)  # 20 elements at half-wavelength
        assert geom.m_x == 20

    def test_non_square_rejected(self):
        for m_conv in (150, 0, -4):
            with pytest.raises(ConfigError):
                ExperimentConfig(conventional_m=m_conv)


class TestFixedConfigs:
    def test_uniform_mode(self):
        indices, phases = _fixed_selection(16, 5, "fixed-uniform", seed=1)
        assert indices.tolist() == [0, 1, 2, 3, 4]
        assert all(p == 0.0 for p in phases)

    def test_uniform_full_mask_trace_identity(self):
        # with every element on and equal phases, the effective reflection
        # operator F^T P F on the draws satisfies tr(A A^H) = tr(J^2) exactly
        corr = build_correlation(SurfaceGeometry(3, 3, 1.0, 1.0, WAVELENGTH))
        a = corr.factor.T @ np.eye(9) @ corr.factor
        assert np.trace(a @ a.conj().T).real == pytest.approx(
            trace_power_direct(correlation_block(corr, np.arange(9)), 2), rel=1e-10)

    def test_masked_trace_identity(self):
        corr = build_correlation(SurfaceGeometry(3, 3, 1.0, 1.0, WAVELENGTH))
        idx, _ = _fixed_selection(9, 4, "fixed-uniform", seed=1)
        mask = np.zeros((9, 9))
        mask[idx, idx] = 1.0
        a = corr.factor.T @ mask @ corr.factor
        reduced = correlation_block(corr, idx)
        assert np.trace(a @ a.conj().T).real == pytest.approx(
            trace_power_direct(reduced, 2), rel=1e-10)

    def test_random_mode(self):
        indices, phases = _fixed_selection(16, 6, "fixed-random", seed=3)
        assert len(set(indices.tolist())) == 6
        assert np.all(np.diff(indices) > 0) and 0 <= indices[0] and indices[-1] < 16
        assert all(0.0 <= p < 2 * math.pi for p in phases)

    def test_random_mode_keyed_by_seed(self):
        # the frozen random configuration is a pure function of the seed
        same = [_fixed_selection(16, 6, "fixed-random", seed=3) for _ in range(2)]
        other = _fixed_selection(16, 6, "fixed-random", seed=4)
        assert np.array_equal(same[0][0], same[1][0])
        assert np.array_equal(same[0][1], same[1][1])
        assert not np.array_equal(same[0][1], other[1])

    def test_random_phase_breaks_trace_identity(self):
        # the equal-phase trace identity tr(P J~ P^H J~) = tr(J~^2) does not
        # survive general unit-modulus phases; averaged over uniform phases
        # only the diagonal mass remains
        corr = build_correlation(SurfaceGeometry(3, 3, 1.0, 1.0, WAVELENGTH))
        idx = np.arange(6)
        reduced = correlation_block(corr, idx)
        tr2 = trace_power_direct(reduced, 2)
        rng = np.random.default_rng(19)
        vals = []
        for _ in range(400):
            p = np.exp(1j * rng.uniform(0, 2 * math.pi, size=6))
            phi = np.diag(p)
            vals.append(float(np.trace(phi @ reduced @ phi.conj().T @ reduced).real))
        equal = np.trace(reduced @ reduced)
        assert equal == pytest.approx(tr2, rel=1e-12)  # equal phases: exact
        mean_random = float(np.mean(vals))
        diag_mass = float(np.sum(np.diag(reduced) ** 2))
        assert tr2 > diag_mass  # correlated surface has off-diagonal mass
        assert mean_random == pytest.approx(diag_mass, rel=0.05)

    def test_single_element_phase_immaterial(self):
        _, images = realization()
        rng = np.random.default_rng(4)
        one = images[:, :, 3:4]
        hb, _ = fixed_block(one, np.ones((1, 1)))
        hs, _ = fixed_block(one, np.exp(1j * rng.uniform(0, 2 * math.pi, size=(1, 1))))
        assert abs(hb[0]) == pytest.approx(abs(hs[0]), rel=1e-12)

    def test_bad_mode(self):
        corr, _ = realization()
        with pytest.raises(DomainError):
            simulate_gains(corr, "chaotic", 6, 10, ChannelStream(1, 0))
