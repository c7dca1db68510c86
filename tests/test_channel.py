import math

import numpy as np
import pytest

from frisec.channel import (TRIALS_PER_BLOCK, ChannelStream, LinkBudget,
                            correlated_images_batch, path_loss)
from frisec.errors import DomainError
from frisec.harness import (POLICIES, GainSamples, _adaptive_block, _fixed_selection,
                            records_for_budget, simulate_gains)
from frisec.surface import SurfaceGeometry, build_correlation

from oracles import fixed_block, full_root_gains, ks_two_sample


def small_corr(side=4, aperture=2.0):
    g = SurfaceGeometry(side, side, aperture, aperture, 0.125)
    return build_correlation(g)


def block_images(corr, seed, block=0):
    return correlated_images_batch(ChannelStream(seed, 0).draw_block(corr.rank, block),
                                   corr.factor)


class TestDraws:
    def test_deterministic(self):
        corr = small_corr()
        st = ChannelStream(seed=42, stream=3)
        d1, d2 = st.draw_block(corr.rank, 17), st.draw_block(corr.rank, 17)
        assert np.array_equal(d1, d2)
        assert np.array_equal(correlated_images_batch(d1, corr.factor),
                              correlated_images_batch(d2, corr.factor))

    def test_different_trials_differ(self):
        corr = small_corr()
        blk = ChannelStream(seed=42, stream=3).draw_block(corr.rank, 0)
        assert not np.array_equal(blk[0, 0], blk[1, 0])

    def test_identity_passthrough(self):
        corr = build_correlation(SurfaceGeometry(1, 1, 0.5, 0.5, 0.1))
        blk = ChannelStream(1, 0).draw_block(1, 0)
        images = correlated_images_batch(blk, corr.factor)
        assert images[5, 1, 0] == blk[5, 1, 0]
        assert images[5, 0, 0] == blk[5, 0, 0]

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

    def test_covariance_matches_correlation(self):
        corr = small_corr(side=3, aperture=1.0)  # M = 9, strongly correlated
        m = corr.n_elements
        st = ChannelStream(seed=11, stream=0)
        n_blocks = 100_000 // TRIALS_PER_BLOCK + 1
        acc = np.zeros((m, m), dtype=complex)
        n = 0
        for b in range(n_blocks):
            u = correlated_images_batch(st.draw_block(corr.rank, b), corr.factor)[:, 1]
            acc += u.T @ u.conj()
            n += u.shape[0]
        emp = (acc / n).real
        assert np.max(np.abs(emp - corr.matrix)) <= 0.02


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
        old_bob, old_eve = full_root_gains(corr.matrix, policy, m_on, self.TRIALS,
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
        h_bob, h_eve = _adaptive_block(images, corr.n_elements)
        terms = np.conj(images[:, 1]) * images[:, 0]
        assert np.isrealobj(h_bob)
        assert h_bob == pytest.approx(np.abs(terms).sum(axis=1), rel=1e-12)
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
            blk = ChannelStream(21, 0).draw_block(corr.rank, 0)
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
        # greedy: the simulated power gain is |H|^2 of the kernel's equivalent
        # channel.  Fixed: it is sigma^2 |z|^2, sigma^2 the power of the phased
        # feed image of the frozen rows projected back through them, and z the
        # normal after the feed's r in the trial's one link of r + 2
        corr = small_corr()
        r = corr.rank
        for policy in ("greedy", "fixed-uniform", "fixed-random"):
            gains = simulate_gains(corr, policy, 5, 100, ChannelStream(6, 0))
            if policy == "greedy":
                draws = ChannelStream(6, 0).draw_block(r, 0)
                h_bob, h_eve = _adaptive_block(correlated_images_batch(draws, corr.factor), 5)
                g_bob, g_eve = np.abs(h_bob) ** 2, np.abs(h_eve) ** 2
            else:
                draws = ChannelStream(6, 0).draw_block(r + 2, 0, links=1)
                indices, phases = _fixed_selection(corr.n_elements, 5, policy, seed=6)
                rows = corr.factor[indices]
                feed = correlated_images_batch(draws[:, :, :r], rows) * np.exp(1j * phases)
                back = correlated_images_batch(feed, rows.T)[:, 0]
                variance = np.sum(np.abs(back) ** 2, axis=1)
                g_bob = variance * np.abs(draws[:, 0, r]) ** 2
                g_eve = variance * np.abs(draws[:, 0, r + 1]) ** 2
            assert np.array_equal(gains.g_bob, g_bob[:100])
            assert np.array_equal(gains.g_eve, g_eve[:100])

    def test_fixed_gain_is_triple_product_variance(self):
        # sigma^2 is ||F_S^T Phi F_S w_feed||^2 written out with complex matrix
        # products, and the receivers share it: g_bob / g_eve = |z_b|^2 / |z_e|^2
        corr = small_corr(side=5, aperture=2.5)
        r = corr.rank
        for policy in ("fixed-uniform", "fixed-random"):
            gains = simulate_gains(corr, policy, 7, 50, ChannelStream(8, 4))
            draws = ChannelStream(8, 4).draw_block(r + 2, 0, links=1)[:50, 0]
            indices, phases = _fixed_selection(corr.n_elements, 7, policy, seed=8)
            rows = corr.factor[indices]
            a = (draws[:, :r] @ rows.T.astype(complex)) * np.exp(1j * phases) @ rows
            variance = np.linalg.norm(a, axis=1) ** 2
            assert gains.g_bob == pytest.approx(variance * np.abs(draws[:, r]) ** 2, rel=1e-12)
            assert gains.g_eve == pytest.approx(variance * np.abs(draws[:, r + 1]) ** 2,
                                                rel=1e-12)

    def test_snr_examples(self):
        rec = records_for_budget(GainSamples(np.array([0.0, 1.0]), np.zeros(2)), unit_budget())
        assert rec.snr_bob[0] == 0.0
        assert rec.snr_bob[1] == pytest.approx(1.0)

    def test_snr_linear_in_gain_and_power(self):
        gains = GainSamples(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        snr = records_for_budget(gains, unit_budget(snr_bob=5.0)).snr_bob
        assert snr[1] == pytest.approx(2 * snr[0])
        b2 = LinkBudget(ref_gain=1.0, pl_exponent=1.0, dist_feed_m=1.0, dist_bob_m=1.0,
                        dist_eve_m=1.0, tx_power_w=2.0, noise_bob_w=0.2, noise_eve_w=1.0)
        assert records_for_budget(gains, b2).snr_bob[0] == pytest.approx(2 * 5.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(DomainError):
            records_for_budget(GainSamples(np.array([-1.0]), np.array([1.0])), unit_budget())
