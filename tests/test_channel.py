import math

import numpy as np
import pytest

from frisec.channel import (TRIALS_PER_BLOCK, ChannelStream, LinkBudget,
                            correlated_images_batch, path_loss)
from frisec.errors import DomainError
from frisec.harness import (POLICIES, GainSamples, _fixed_selection, _greedy_block,
                            _GreedyWorkspace, estimate_asc, ks_statistic, records_for_budget,
                            simulate_gains)
from frisec.surface import SurfaceGeometry, build_correlation

from oracles import (adaptive_block, block_matrix_images, fixed_block, full_root_gains,
                     greedy_kernel, ks_two_sample, real_planes, three_link_draws)


def small_corr(side=4, aperture=2.0):
    g = SurfaceGeometry(side, side, aperture, aperture, 0.125)
    return build_correlation(g)


def block_images(corr, seed):
    """A (trials, 3, M) block of the three links' images, for the oracle kernels."""
    return correlated_images_batch(three_link_draws(seed, corr.rank), corr.factor)


def colored(draws, corr):
    """The (2, trials, M) images of a draw block's feed and legitimate links."""
    return correlated_images_batch(draws[:, :, :corr.rank], corr.factor)


class TestDraws:
    def test_deterministic(self):
        corr = small_corr()
        st = ChannelStream(seed=42, stream=3)
        d1, d2 = st.draw_block(corr.rank, 17), st.draw_block(corr.rank, 17)
        assert np.array_equal(d1, d2)
        assert np.array_equal(colored(d1, corr), colored(d2, corr))

    @pytest.mark.parametrize("power", [False, True])
    def test_out_holds_the_same_bits(self, power):
        st = ChannelStream(seed=42, stream=3)
        want = st.draw_block(6, 17, power=power)
        out = np.full_like(want, np.nan)
        assert st.draw_block(6, 17, power=power, out=out) is out
        assert np.array_equal(out, want)
        # a reused buffer holds the next block's draws, not a mix
        st.draw_block(6, 18, power=power, out=out)
        assert np.array_equal(out, st.draw_block(6, 18, power=power))

    def test_out_must_match_the_block(self):
        st = ChannelStream(seed=42, stream=3)
        strided = np.empty((2, 2 * TRIALS_PER_BLOCK, 7), np.complex128)[:, ::2]
        for out in (np.empty((2, TRIALS_PER_BLOCK, 6), np.complex128), strided,
                    np.empty((2, TRIALS_PER_BLOCK, 7))):
            with pytest.raises(DomainError, match="C-contiguous"):
                st.draw_block(6, 17, out=out)

    def test_different_trials_differ(self):
        corr = small_corr()
        blk = ChannelStream(seed=42, stream=3).draw_block(corr.rank, 0)
        assert not np.array_equal(blk[0, 0], blk[0, 1])

    def test_identity_passthrough(self):
        corr = build_correlation(SurfaceGeometry(1, 1, 0.5, 0.5, 0.1))
        blk = ChannelStream(1, 0).draw_block(1, 0)
        images = colored(blk, corr)
        assert images[1, 5, 0] == blk[1, 5, 0]
        assert images[0, 5, 0] == blk[0, 5, 0]

    def test_unit_power(self):
        # law-of-large-numbers check on the per-entry variance
        st = ChannelStream(seed=9, stream=0)
        n_blocks = 100_000 // TRIALS_PER_BLOCK + 1
        acc, count = 0.0, 0
        for b in range(n_blocks):
            blk = st.draw_block(4, b)
            acc += float(np.sum(np.abs(blk) ** 2))
            count += blk.size
        assert acc / count == pytest.approx(1.0, abs=0.02)

    def test_power_draw(self):
        st = ChannelStream(seed=42, stream=3)
        # powers come as one link; complex normals link-major as the two
        # colored links (feed, bob), with the eavesdropper's one normal after
        # the feed's
        first = st.draw_block(6, 17, power=True)
        assert first.dtype == np.float64
        assert first.shape == (TRIALS_PER_BLOCK, 1, 6)
        assert np.array_equal(first, st.draw_block(6, 17, power=True))
        assert not np.array_equal(first, st.draw_block(6, 18, power=True))
        normals = st.draw_block(6, 17)
        assert normals.dtype == np.complex128
        assert normals.shape == (2, TRIALS_PER_BLOCK, 7)

    def test_power_draw_is_unit_exponential(self):
        # |w|^2 of a unit circular normal is Exp(1): one-sample KS against
        # 1 - exp(-x) at level 0.001 (1.949 / sqrt(n)) and the mean to
        # law-of-large-numbers precision, on 102400 draws
        st = ChannelStream(seed=9, stream=0)
        powers = np.concatenate([st.draw_block(4, b, power=True).ravel()
                                 for b in range(25)])
        assert powers.size == 102_400
        assert ks_statistic(powers, lambda x: -np.expm1(-x)) <= 1.949 / math.sqrt(powers.size)
        assert powers.mean() == pytest.approx(1.0, abs=0.02)

    def test_batch_matches_single_trial(self):
        # trial t on its own (the last of a run of t + 1 trials) equals trial t
        # of a longer batched run, for a t in the second counter block
        corr = small_corr()
        st = ChannelStream(seed=5, stream=2)
        t = TRIALS_PER_BLOCK + 7
        for policy in POLICIES:
            batch = simulate_gains(corr, policy, 5, 3 * TRIALS_PER_BLOCK, st)
            one = simulate_gains(corr, policy, 5, t + 1, st)
            assert one.g_bob[-1] == batch.g_bob[t]
            assert one.g_eve[-1] == batch.g_eve[t]
            assert one.var_eve[-1] == batch.var_eve[t]

    def test_covariance_matches_correlation(self):
        corr = small_corr(side=3, aperture=1.0)  # M = 9, strongly correlated
        m = corr.n_elements
        st = ChannelStream(seed=11, stream=0)
        n_blocks = 100_000 // TRIALS_PER_BLOCK + 1
        acc = np.zeros((m, m), dtype=complex)
        n = 0
        for b in range(n_blocks):
            u = colored(st.draw_block(corr.rank, b), corr)[1]
            acc += u.T @ u.conj()
            n += u.shape[0]
        emp = (acc / n).real
        assert np.max(np.abs(emp - corr.block(np.arange(m)))) <= 0.02


class TestColoring:
    # The complex product against the real block-matrix GEMM it replaced.
    # Both sum the same r or E terms, in orders BLAS picks, so they can differ
    # in the last bit (a 3x3 pool does).  The transposed factor and the
    # complex symmetric r x r cascade F_S^T Phi F_S of a fixed-random
    # selection cancel most of the magnitude in the weak eigen-directions, so
    # the bound is on each (trial, link) vector relative to its norm.
    @pytest.mark.parametrize("side, aperture", [(3, 1.5), (6, 3.0), (10, 5.0), (20, 3.0),
                                                (40, 3.0)])
    def test_matches_block_matrix_gemm(self, side, aperture):
        corr = small_corr(side=side, aperture=aperture)
        draws = ChannelStream(3, 1).draw_block(corr.rank, 0)[:, :200, :corr.rank]
        images = correlated_images_batch(draws, corr.factor)
        assert images.shape == (2, 200, corr.n_elements)
        back_draws = images[:1]
        indices, phases = _fixed_selection(corr.n_elements, -(-corr.n_elements // 2),
                                           "fixed-random", seed=3)
        rows = corr.factor[indices]
        cascade = (rows.T * np.exp(1j * phases)) @ rows
        assert cascade.shape == (corr.rank, corr.rank)
        assert np.allclose(cascade, cascade.T, rtol=0, atol=1e-14 * np.abs(cascade).max())
        for got, want in ((images, block_matrix_images(draws, corr.factor)),
                          (correlated_images_batch(back_draws, corr.factor.T),
                           block_matrix_images(back_draws, corr.factor.T)),
                          (correlated_images_batch(draws, cascade),
                           block_matrix_images(draws, cascade))):
            assert got.dtype == np.complex128
            error = np.linalg.norm(got - want, axis=-1)
            assert np.all(error <= 1e-14 * np.linalg.norm(want, axis=-1))


class TestSamplerLaw:
    # The eigen-factor sampler draws r < M normals per link, and a fixed
    # policy draws only the feed's r and one normal per receiver; the gains
    # must have the law of the full-root sampler's, which colors M normals on
    # each of the three links.  The ratio g_bob / g_eve checks the joint law,
    # which a fixed policy's receivers get through their shared sigma^2.
    # Independent streams on each side, fixed seeds, 20480 trials per side.
    # Critical value of the two-sample KS distance at level 0.001:
    # 1.949 * sqrt(2 / n) = 0.0193.
    TRIALS = 20 * TRIALS_PER_BLOCK
    CRITICAL = 1.949 * math.sqrt(2.0 / TRIALS)

    def check_law(self, corr, policy, m_on, seed):
        new = simulate_gains(corr, policy, m_on, self.TRIALS, ChannelStream(seed, 5))
        matrix = corr.block(np.arange(corr.n_elements))
        old_bob, old_eve = full_root_gains(matrix, policy, m_on, self.TRIALS,
                                           selection_seed=seed,
                                           rng=np.random.default_rng(31337))
        assert ks_two_sample(new.g_bob, old_bob) <= self.CRITICAL
        assert ks_two_sample(new.g_eve, old_eve) <= self.CRITICAL
        assert ks_two_sample(new.g_bob / new.g_eve, old_bob / old_eve) <= self.CRITICAL

    @pytest.mark.parametrize("policy", ["greedy", "fixed-uniform", "fixed-random"])
    def test_matches_full_root_sampler(self, policy):
        corr = small_corr(side=10, aperture=3.0)  # M = 100, rank 43
        assert corr.rank < corr.n_elements
        self.check_law(corr, policy, 25, 2024)

    @pytest.mark.parametrize("side, aperture, m_on", [(3, 1.0, 1), (3, 1.0, 9), (6, 2.5, 36)])
    @pytest.mark.parametrize("policy", ["fixed-uniform", "fixed-random"])
    def test_fixed_policies_across_selections(self, policy, side, aperture, m_on):
        # one element, a whole strongly correlated pool, and a whole pool at
        # nearly full rank
        self.check_law(small_corr(side=side, aperture=aperture), policy, m_on, 77)


class TestPathLoss:
    def test_reference(self):
        assert path_loss(1.0, 2.5, 1.0) == 1.0

    def test_square_law(self):
        assert path_loss(1.0, 2.0, 100.0) == pytest.approx(1e-4, rel=1e-14)

    def test_log_domain_cross_check(self):
        direct = path_loss(1.0, 2.5, 20.0)
        assert direct == pytest.approx(math.exp(-2.5 * math.log(20.0)), rel=1e-13)
        assert direct == pytest.approx(5.59017e-4, rel=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            path_loss(1.0, 2.5, 0.0)


def unit_budget(snr_bob=1.0, snr_eve=1.0):
    # distances of 1 m and exponent 1 so every loss factor is exactly 1
    return LinkBudget(ref_gain=1.0, pl_exponent=1.0, dist_feed_m=1.0, dist_bob_m=1.0,
                      dist_eve_m=1.0, tx_power_w=1.0, noise_bob_w=1.0 / snr_bob,
                      noise_eve_w=1.0 / snr_eve)


class TestBudget:
    def test_derived_quantities(self):
        b = LinkBudget(ref_gain=1.0, pl_exponent=2.5, dist_feed_m=20.0, dist_bob_m=30.0,
                       dist_eve_m=30.0, tx_power_w=1.0, noise_bob_w=1e-12,
                       noise_eve_w=1e-11)
        assert b.avg_snr_bob == pytest.approx(1e12)
        assert b.avg_snr_eve == pytest.approx(1e11)
        assert b.loss_feed == pytest.approx(20.0 ** -2.5)
        assert b.loss_bob == b.loss_eve

    def test_validation(self):
        with pytest.raises(DomainError):
            unit_budget(snr_bob=-1.0)
        with pytest.raises(DomainError):
            LinkBudget(1.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_snr_override(self):
        b = unit_budget().with_avg_snr_bob(1e6)
        assert b.avg_snr_bob == pytest.approx(1e6)
        assert b.avg_snr_eve == 1.0


class TestEquivalentChannel:
    def test_single_element_identity(self):
        corr = build_correlation(SurfaceGeometry(1, 1, 0.5, 0.5, 0.1))
        images = block_images(corr, 3)
        h_bob, h_eve = fixed_block(images, np.ones((1, 1)))
        assert np.array_equal(h_bob, np.conj(images[:, 1, 0]) * images[:, 0, 0])
        assert np.array_equal(h_eve, np.conj(images[:, 2, 0]) * images[:, 0, 0])

    def test_empty_selection_contract(self):
        # no element ON: the sum over active elements is exactly 0
        images = block_images(small_corr(), 3)[:, :, :0]
        h_bob, h_eve = fixed_block(images, np.ones((1, 0)))
        assert np.all(h_bob == 0) and np.all(h_eve == 0)

    def test_cophased_is_real_sum_of_magnitudes(self):
        corr = small_corr()
        images = block_images(corr, 8)
        h_bob, h_eve = adaptive_block(images, corr.n_elements)
        terms = np.conj(images[:, 1]) * images[:, 0]
        assert np.isrealobj(h_bob)
        assert h_bob == pytest.approx(np.abs(terms).sum(axis=1), rel=1e-12)
        # the library kernel, on the feed and legitimate links alone, gives the
        # same gain, and the variance of the eavesdropper's sum given them:
        # a^H J a for the co-phased feed a = |v| u_bob / |u_bob|
        g_bob, var_eve = greedy_kernel(images[:, :2].transpose(1, 0, 2), corr.factor,
                                       corr.n_elements)
        assert g_bob == pytest.approx(h_bob ** 2, rel=1e-12)
        a = np.abs(images[:, 0]) * images[:, 1] / np.abs(images[:, 1])
        j = corr.block(np.arange(corr.n_elements))
        assert var_eve == pytest.approx(np.einsum("ti,ij,tj->t", a.conj(), j, a).real,
                                        rel=1e-10)
        # the same co-phasing written as explicit per-element phase factors,
        # which the eavesdropper's channel sees as well
        h_fixed, h_fixed_eve = fixed_block(images[:1], np.exp(-1j * np.angle(terms[:1])))
        assert abs(h_fixed[0].imag) <= 1e-10 * abs(h_fixed[0].real)
        assert h_fixed[0].real == pytest.approx(h_bob[0], rel=1e-12)
        assert h_fixed_eve[0] == pytest.approx(h_eve[0], rel=1e-9)

    def test_all_selected_zero_phase_is_direct_triple_product(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            corr = small_corr(side=int(rng.integers(2, 4)), aperture=1.5)
            m = corr.n_elements
            blk = three_link_draws(21, corr.rank)
            t = int(rng.integers(100))
            images = correlated_images_batch(blk[t:t + 1], corr.factor)
            h_bob, h_eve = fixed_block(images, np.ones((1, m)))
            # h^H F^T F h_feed in the r draws; F^T F is the kept eigenvalues
            gram = corr.factor.T @ corr.factor
            h_feed = blk[t, 0]
            assert h_bob[0] == pytest.approx(complex(np.conj(blk[t, 1]) @ gram @ h_feed),
                                             rel=1e-9)
            assert h_eve[0] == pytest.approx(complex(np.conj(blk[t, 2]) @ gram @ h_feed),
                                             rel=1e-9)

    def test_receiver_validation(self):
        with pytest.raises(DomainError):
            unit_budget().snr_scale("mallory")


class TestGainAndSnr:
    def test_channel_gain(self):
        # greedy: the simulated power gain is the kernel's legitimate gain on
        # the four real planes of the feed's and the legitimate link's images,
        # colored by one real product with the factor, and the
        # eavesdropper's sigma^2 E, sigma^2 the kernel's variance and E the
        # power of the normal after the feed's r.  Fixed: both are sigma^2 E,
        # sigma^2 the feed's r unit exponentials weighted by the squared
        # singular values of the r x r cascade F_S^T Phi F_S of the frozen
        # rows and phases, the k = min(m_on, r) largest of them, which bound
        # its rank, and E the exponential after the feed's k in the trial's
        # one link of k + 2
        corr = small_corr()
        r = corr.rank
        k = min(5, r)
        for policy in ("greedy", "fixed-uniform", "fixed-random"):
            gains = simulate_gains(corr, policy, 5, 100, ChannelStream(6, 0))
            if policy == "greedy":
                draws = ChannelStream(6, 0).draw_block(r, 0)
                images = correlated_images_batch(real_planes(draws[:, :, :r]), corr.factor)
                g_bob, variance = _greedy_block(images, corr.factor, 5,
                                                _GreedyWorkspace(corr.n_elements, r, 1024))
                g_eve = variance * np.abs(draws[0, :, r]) ** 2
            else:
                powers = ChannelStream(6, 0).draw_block(k + 2, 0, power=True)
                indices, phases = _fixed_selection(corr.n_elements, 5, policy, seed=6)
                rows = corr.factor[indices]
                cascade = (rows.T * np.exp(1j * phases)) @ rows
                mu = np.linalg.svd(cascade, compute_uv=False)[:k] ** 2
                variance = correlated_images_batch(powers[:, :, :k], mu[None, :])[:, 0, 0]
                g_bob = variance * powers[:, 0, k]
                g_eve = variance * powers[:, 0, k + 1]
            assert np.array_equal(gains.g_bob, g_bob[:100])
            assert np.array_equal(gains.g_eve, g_eve[:100])
            assert np.array_equal(gains.var_eve, variance[:100])

    def test_fixed_gain_is_triple_product_variance(self):
        # mu are the eigenvalues of K^H K, K = F_S^T Phi F_S written out as the
        # triple product, largest first, and the k = min(m_on, r) kept ones
        # bound its rank; sigma^2 = sum_i mu_i E_i over the feed's drawn
        # exponentials, and the receivers share it: g_bob / g_eve = E_b / E_e.
        # For fixed-uniform K K^H = (F_S F_S^T)^2 = J_S^2 up to the clamped
        # eigenvalues, so the kept sum mu = tr(J_S^2) and sum mu^2 = tr(J_S^4),
        # the traces behind the Gamma fit
        corr = small_corr(side=5, aperture=2.5)
        k = min(7, corr.rank)
        for policy in ("fixed-uniform", "fixed-random"):
            gains = simulate_gains(corr, policy, 7, 50, ChannelStream(8, 4))
            powers = ChannelStream(8, 4).draw_block(k + 2, 0, power=True)[:50, 0]
            indices, phases = _fixed_selection(corr.n_elements, 7, policy, seed=8)
            rows = corr.factor[indices].astype(complex)
            cascade = rows.T @ np.diag(np.exp(1j * phases)) @ rows
            mu = np.linalg.eigvalsh(cascade.conj().T @ cascade)[::-1][:k]
            variance = powers[:, :k] @ mu
            assert gains.g_bob == pytest.approx(variance * powers[:, k], rel=1e-12)
            assert gains.g_eve == pytest.approx(variance * powers[:, k + 1], rel=1e-12)
            assert gains.var_eve == pytest.approx(variance, rel=1e-12)
            assert gains.g_bob / gains.g_eve == pytest.approx(powers[:, k] / powers[:, k + 1],
                                                              rel=1e-12)
            if policy == "fixed-uniform":
                block = corr.block(np.arange(7))
                squared = block @ block
                assert mu.sum() == pytest.approx(np.trace(squared), rel=1e-12)
                assert (mu ** 2).sum() == pytest.approx(np.trace(squared @ squared), rel=1e-12)

    def test_snr_examples(self):
        # a silent eavesdropper, of rate 1 / tiny after the clip, leaves capacity log2(1 + SNR_bob)
        snr_bob, rate_eve = records_for_budget(
            GainSamples(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)), unit_budget())
        tiny = np.finfo(float).tiny
        assert snr_bob.tolist() == [0.0, 1.0] and rate_eve.tolist() == [1.0 / tiny] * 2
        assert estimate_asc((snr_bob, rate_eve)).point == pytest.approx(0.5)

    def test_snr_linear_in_gain_and_power(self):
        gains = GainSamples(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 3.0]))

        def snr_bob(budget):
            return records_for_budget(gains, budget)[0]

        snr = snr_bob(unit_budget(snr_bob=5.0))
        assert snr[1] == pytest.approx(2 * snr[0])
        b2 = LinkBudget(ref_gain=1.0, pl_exponent=1.0, dist_feed_m=1.0, dist_bob_m=1.0,
                        dist_eve_m=1.0, tx_power_w=2.0, noise_bob_w=0.2, noise_eve_w=1.0)
        assert snr_bob(b2)[0] == pytest.approx(2 * 5.0)
        # the eavesdropper's rate is 1 / its mean SNR, its variance under its own budget
        assert records_for_budget(gains, b2)[1] == pytest.approx([0.5, 1.0 / 6.0])

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("field", ["g_bob", "g_eve", "var_eve"])
    def test_gain_samples_reject_negative_and_nan_entries(self, field, bad):
        samples = dict(g_bob=np.ones(3), g_eve=np.ones(3), var_eve=np.ones(3))
        samples[field][1] = bad
        with pytest.raises(DomainError, match="channel gains must be >= 0 and not nan"):
            GainSamples(**samples)

    def test_negative_gain_rejected(self):
        with pytest.raises(DomainError):
            records_for_budget(GainSamples(np.array([-1.0]), np.ones(1), np.ones(1)),
                               unit_budget())
