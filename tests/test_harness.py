import csv
import functools
import io
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from frisec import channel, harness
from frisec.channel import ChannelStream, LinkBudget, blas_threads, correlated_images_batch
from frisec.cli import main
from frisec.errors import ConfigError, DomainError
from frisec.harness import (_Z95, CHUNK_TRIALS, KS_MIN_SAMPLES, KS_STRIDE, POLICIES,
                            SWEEP_COLUMNS, VALIDATE_BOUND_COLUMNS, VALIDATE_FIT_COLUMNS,
                            ExperimentConfig, GainSamples, MetricEstimate,
                            config_from_mapping, db_to_linear, dbm_to_watts,
                            dump_correlation_csv, estimate_asc, estimate_sop,
                            ks_statistic, records_for_budget, reference_fits,
                            rows_to_csv, simulate_gains, sweep_size,
                            sweep_snr, validate_bounds, validate_fits,
                            write_results)
from frisec.secrecy import (ExpFit, GammaFit, SecrecyTarget, asc_oracle, asc_upper_bound,
                            exp_cdf, fit_laws, gamma_cdf, sop_bound_from_ratio,
                            sop_lower_bound)
from frisec.specfun import reg_lower_inc_gamma
from frisec.surface import build_correlation

from oracles import (complex_greedy_block, correlation_block, ks_full, plain_estimates,
                     plain_gains, secrecy_capacity, trace_power_direct, whole_block_gains,
                     wilson_estimate)


def small_config(**overrides):
    defaults = dict(m_x=4, m_z=4, m_on=4, conventional_m=4, trials=2048, seed=3,
                    snr_sweep_db=(60.0, 90.0, 120.0))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def base_records(cfg, geometry, m_on):
    """Gains of the configured policy on `geometry` and their capacity at the base budget."""
    gains = simulate_gains(build_correlation(geometry), cfg.policy, m_on, cfg.trials,
                           ChannelStream(cfg.seed))
    return gains, records_for_budget(gains, cfg.budget())


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
        for trials in (0, 1):
            with pytest.raises(ConfigError, match="trials must be >= 2: a mean estimate"):
                small_config(trials=trials)
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
        for grid in ({"snr_sweep_db": 5}, {"size_sweep": None}, {"size_sweep": "abc"}):
            with pytest.raises(ConfigError, match="must be a list"):
                small_config(**grid)
        assert small_config(size_sweep=[4, 9]).size_sweep == (4, 9)

    def test_scalar_fields_follow_annotations(self):
        assert harness._INT_FIELDS == ("m_x", "m_z", "conventional_m", "m_on", "trials",
                                       "seed", "workers")
        assert harness._FLOAT_FIELDS == (
            "aperture_x", "aperture_z", "ref_gain", "pl_exponent",
            "dist_feed_m", "dist_bob_m", "dist_eve_m", "tx_power_dbm", "noise_bob_dbm",
            "noise_eve_dbm", "target_rate_bits")

    def test_readme_table_names_every_field(self):
        # the README's configuration table documents exactly the settable keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        schema = readme.split("### Configuration file schema")[1].split("\n### ")[0]
        rows = [line.split("|")[1] for line in schema.splitlines() if line.startswith("| `")]
        named = [name for cell in rows for name in re.findall(r"`(\w+)`", cell)]
        assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))

    def test_readme_tables_name_every_command_and_policy(self, capsys):
        # the README's subcommand and policy tables list exactly what the CLI accepts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

        def first_cells(heading):
            section = readme.split(heading)[1].split("\n### ")[0]
            return [re.findall(r"`([\w-]+)`", line.split("|")[1])[0]
                    for line in section.splitlines() if line.startswith("| `")]

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
        assert first_cells("## Command line") == commands
        assert first_cells("### Policies") == list(POLICIES)

    def test_mapping_roundtrip(self):
        cfg = config_from_mapping({"m_x": 4, "m_z": 4, "m_on": 4, "trials": 100,
                                   "snr_sweep_db": [60, 70]})
        assert cfg.trials == 100
        assert cfg.snr_sweep_db == (60, 70)
        with pytest.raises(ConfigError):
            config_from_mapping({"m_xx": 4})


@pytest.fixture(scope="module")
def aperture_pools():
    """Correlations of the 10x10, 20x20, 30x30, 40x40 and 60x60 pools and the 6x6
    baseline in 3x3 wavelengths."""
    cfg = ExperimentConfig()
    pools = {m: build_correlation(cfg.size_geometry(m)) for m in (100, 400, 900, 1600, 3600)}
    return {**pools, 36: build_correlation(cfg.conventional_geometry())}


def greedy_peak(corr, trials: int, workers: int) -> int:
    """tracemalloc's peak in bytes over one greedy simulation with m_on = 64."""
    tracemalloc.start()
    try:
        simulate_gains(corr, "greedy", 64, trials, ChannelStream(1, 0), workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedEngine:
    @pytest.mark.parametrize("policy, m_total, m_on", [
        ("greedy", 400, 100), ("greedy", 1600, 64), ("greedy", 36, 36),
        ("fixed-uniform", 100, 10), ("fixed-uniform", 100, 100),
        ("fixed-random", 100, 10), ("fixed-random", 100, 100)])
    @pytest.mark.parametrize("trials", [1, 130, 1025, 2048])
    def test_matches_whole_block_engine(self, aperture_pools, policy, m_total, m_on, trials):
        # greedy's chunks are 128 trials up to M = 400 and 32 at M = 1600
        corr = aperture_pools[m_total]
        stream = ChannelStream(7, 2)
        g_bob, g_eve, var_eve = whole_block_gains(corr, policy, m_on, trials, stream)
        for workers in (1, 2):
            gains = simulate_gains(corr, policy, m_on, trials, stream, workers=workers)
            assert np.array_equal(gains.g_bob, g_bob)
            assert np.array_equal(gains.g_eve, g_eve)
            assert np.array_equal(gains.var_eve, var_eve)

    @pytest.mark.parametrize("trials", [1, 130, 1025, 2048])
    def test_ragged_chunks_match_whole_block_engine(self, aperture_pools, trials):
        # 56-trial chunks at M = 900 do not divide a 1024-trial block, so each
        # block's last chunk holds 16.  The worker count changes no bit.  The
        # whole-block reference matches to rounding only: 900 is not a multiple
        # of 16, and OpenBLAS's AVX-512 kernels round the images of the last
        # M mod 16 elements by where a trial's columns fall in the product, so
        # a few gains move by an ulp or two there, with 56-trial chunks as with
        # 128-trial ones
        corr = aperture_pools[900]
        stream = ChannelStream(7, 2)
        want = whole_block_gains(corr, "greedy", 64, trials, stream)
        serial = simulate_gains(corr, "greedy", 64, trials, stream)
        pooled = simulate_gains(corr, "greedy", 64, trials, stream, workers=2)
        for one, two, reference in zip((serial.g_bob, serial.g_eve, serial.var_eve),
                                       (pooled.g_bob, pooled.g_eve, pooled.var_eve), want):
            assert np.array_equal(one, two)
            assert np.allclose(one, reference, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m_total, m_on", [(36, 36), (400, 100), (1600, 64)])
    def test_chunk_matches_complex_kernel(self, aperture_pools, m_total, m_on):
        # one chunk colored by one real product into a workspace, against the
        # complex product and the kernel on complex images: the same elements
        # ON, and the gain and variance to rounding
        corr = aperture_pools[m_total]
        m, r = corr.n_elements, corr.rank
        draws = ChannelStream(7, 2).draw_block(r, 3)[:, :CHUNK_TRIALS]
        work = harness._GreedyWorkspace(m, r, CHUNK_TRIALS)
        g_bob, g_eve, var_eve = harness._greedy_chunk(draws, corr.factor, m_on, work)
        want_bob, want_var, want_on = complex_greedy_block(
            correlated_images_batch(draws[:, :, :r], corr.factor), corr.factor, m_on)
        if m_on < m:
            assert np.array_equal(work.on[:CHUNK_TRIALS * m].reshape(CHUNK_TRIALS, m), want_on)
        assert np.allclose(g_bob, want_bob, rtol=1e-13, atol=0)
        assert np.allclose(var_eve, want_var, rtol=1e-13, atol=0)
        assert np.array_equal(g_eve, var_eve * np.abs(draws[0, :, r]) ** 2)

    @pytest.mark.parametrize("m_on", [1, 5, 15])
    def test_chunk_selection_on_a_rank_one_pool(self, m_on):
        # every element of a rank-one pool has the same image, so every term
        # ties; both kernels keep the lowest m_on indices
        factor = np.ones((16, 1))
        draws = ChannelStream(5, 0).draw_block(1, 0)[:, :CHUNK_TRIALS]
        work = harness._GreedyWorkspace(16, 1, CHUNK_TRIALS)
        g_bob, _, var_eve = harness._greedy_chunk(draws, factor, m_on, work)
        want_bob, want_var, want_on = complex_greedy_block(
            correlated_images_batch(draws[:, :, :1], factor), factor, m_on)
        on = work.on[:CHUNK_TRIALS * 16].reshape(CHUNK_TRIALS, 16)
        assert np.array_equal(on, want_on)
        assert np.all(on[:, :m_on]) and not np.any(on[:, m_on:])
        assert np.allclose(g_bob, want_bob, rtol=1e-13, atol=0)
        assert np.allclose(var_eve, want_var, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_coloring_product_per_chunk(self, aperture_pools, monkeypatch, policy):
        # 130 trials of one block are two 128-trial chunks of the 10x10 pool
        # and five 32-trial chunks of the 40x40 pool, whose 1600 elements
        # allow CHUNK_ELEMENTS // 1600 trials.  Greedy colors each chunk's
        # four real planes (feed re, feed im, bob re, bob im) by the real
        # M x r factor; a fixed policy weights the whole block's 1024 trials
        # of feed exponentials by the one row mu, in one product, whose
        # length min(m_on, r) bounds the rank of the cascade.  Every product
        # is real
        shapes = []

        def recording(draws, rows, out=None):
            shapes.append((draws.shape[:2], rows.shape, draws.dtype, rows.dtype))
            return correlated_images_batch(draws, rows, out)

        monkeypatch.setattr(harness, "correlated_images_batch", recording)
        real = (np.dtype(float), np.dtype(float))
        for m_total, chunk, chunks in ((100, 128, 2), (1600, 32, 5)):
            corr = aperture_pools[m_total]
            shapes.clear()
            simulate_gains(corr, policy, 10, 130, ChannelStream(7, 2))
            if policy == "greedy":
                assert shapes == [((4, chunk), (corr.n_elements, corr.rank), *real)] * chunks
            else:
                assert shapes == [((1024, 1), (1, 10), *real)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_draw_per_block(self, aperture_pools, monkeypatch, policy, workers):
        # 1024 + 130 trials are two blocks: two calls of ChannelStream.draw_block,
        # and of correlated_images_batch ten for greedy, one per chunk of eight
        # and two, and two for a fixed policy, one per block; the two layers a
        # traced benchmark run expects to see
        corr = aperture_pools[100]
        calls = {"draw": 0, "color": 0}
        draw_block = ChannelStream.draw_block

        def counting_draw(self, *args, **kwargs):
            calls["draw"] += 1
            return draw_block(self, *args, **kwargs)

        def counting_color(draws, rows, out=None):
            calls["color"] += 1
            return correlated_images_batch(draws, rows, out)

        monkeypatch.setattr(ChannelStream, "draw_block", counting_draw)
        monkeypatch.setattr(harness, "correlated_images_batch", counting_color)
        simulate_gains(corr, policy, 10, 1024 + 130, ChannelStream(7, 2), workers=workers)
        assert calls == {"draw": 2, "color": 10 if policy == "greedy" else 2}

    @pytest.mark.parametrize("m_on", [10, 43, 50, 100])
    @pytest.mark.parametrize("policy", ["fixed-uniform", "fixed-random"])
    def test_fixed_draws_sized_by_rank(self, aperture_pools, monkeypatch, policy, m_on):
        # K = F_S^T Phi F_S has rank at most k = min(m_on, r), so a fixed
        # policy draws k + 2 exponentials per trial, k of them for the k
        # largest mu; the dropped mu are zero up to rounding
        corr = aperture_pools[100]
        r = corr.rank
        k = min(m_on, r)
        asked = []
        draw_block = ChannelStream.draw_block

        def recording_draw(self, m, block, power=False, out=None):
            asked.append((m, power))
            return draw_block(self, m, block, power=power, out=out)

        monkeypatch.setattr(ChannelStream, "draw_block", recording_draw)
        stream = ChannelStream(5, 1)
        gains = simulate_gains(corr, policy, m_on, 1500, stream)
        assert asked == [(k + 2, True)] * 2
        monkeypatch.undo()

        indices, phases = harness._fixed_selection(corr.n_elements, m_on, policy, stream.seed)
        rows = corr.factor[indices]
        singular = np.linalg.svd((rows.T * np.exp(1j * phases)) @ rows, compute_uv=False)
        assert np.all(singular[k:] <= 1e-10 * singular[0])
        mu = singular[:k] ** 2
        powers = np.concatenate([stream.draw_block(k + 2, b, power=True)[:, 0]
                                 for b in range(2)])[:1500]
        with channel.one_blas_thread():
            variance = (powers[:, :k] @ mu[:, None])[:, 0]
        assert np.array_equal(gains.var_eve, variance)
        assert np.array_equal(gains.g_bob, variance * powers[:, k])
        assert np.array_equal(gains.g_eve, variance * powers[:, k + 1])

    def test_dense_pool_peak_memory(self, aperture_pools):
        # coloring whole 1024-trial blocks here holds about 240 MiB over two
        # workers (three image links of 1600 elements each, and as much in
        # kernel temporaries).  Each worker's workspace for 32-trial chunks
        # is 2.1 MiB and its block of draws 1.5 MiB, a peak of 7.4 MiB, where
        # 128-trial chunks peaked at 19.7 MiB; the bound leaves about a
        # quarter for numpy's own buffers
        assert greedy_peak(aperture_pools[1600], 2048, workers=2) < 9 * 2 ** 20

    def test_one_worker_dense_pool_peak_memory(self, aperture_pools):
        # one worker's greedy blocks run on two threads, each with one
        # workspace and one reused block of draws: 7.39 MiB, or 8.24 MiB as
        # a process's first run, against 3.8 MiB with one thread.  The bound
        # keeps the 1.3 MiB margin over the 7.39 MiB
        assert greedy_peak(aperture_pools[1600], 4096, workers=1) < 8.7 * 2 ** 20

    def test_worker_peak_memory_does_not_grow_with_the_pool(self, aperture_pools):
        # chunks of CHUNK_ELEMENTS // M trials keep a worker's workspace at
        # 2.0-2.3 MiB whatever M, and its draws depend on the rank alone (45 at
        # M = 400, 47 at 3600): 3.8 and 3.7 MiB, where 128-trial chunks at
        # M = 3600 peaked at 19.9 MiB.  The 60x60 pool may take at most a
        # quarter more than the 20x20 one
        small = greedy_peak(aperture_pools[400], 2048, workers=1)
        assert greedy_peak(aperture_pools[3600], 2048, workers=1) < 1.25 * small

    def test_dense_pool_build_peak_memory(self):
        # J of the 40x40 pool is 19.5 MiB; the build keeps its offset table and
        # decomposes the 66 x 66 plane-wave Gram, so J is never formed
        geometry = ExperimentConfig().size_geometry(1600)
        tracemalloc.start()
        try:
            build_correlation(geometry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1600 * 1600 * 8 / 4

    def test_pool_bounded_by_blocks_and_cpus(self, aperture_pools, monkeypatch):
        # the real executor, recording the pool size each run asks for
        requested = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers)

        corr = aperture_pools[100]
        stream = ChannelStream(4, 0)
        trials = 3 * 1024 + 5  # four blocks
        serial = simulate_gains(corr, "greedy", 10, trials, stream)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        for workers in (1, 10 ** 6):
            gains = simulate_gains(corr, "greedy", 10, trials, stream, workers=workers)
            assert np.array_equal(gains.g_bob, serial.g_bob)
            assert np.array_equal(gains.g_eve, serial.g_eve)
            assert np.array_equal(gains.var_eve, serial.var_eve)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        # greedy on one worker asks for two threads; a million ask for one per
        # block up to the CPUs.  One CPU runs both inline, with no executor
        assert requested == ([2, min(4, cpus)] if cpus > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_cpu_runs_inline(self, aperture_pools, monkeypatch, workers):
        corr = aperture_pools[100]
        stream = ChannelStream(4, 0)
        trials = 3 * 1024 + 5
        want = simulate_gains(corr, "greedy", 10, trials, stream, workers=workers)

        def no_pool(*args, **kwargs):
            raise AssertionError("built an executor on one CPU")

        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        gains = simulate_gains(corr, "greedy", 10, trials, stream, workers=workers)
        assert np.array_equal(gains.g_bob, want.g_bob)
        assert np.array_equal(gains.g_eve, want.g_eve)
        assert np.array_equal(gains.var_eve, want.var_eve)


@pytest.fixture
def draw_calls(monkeypatch):
    """Every `draw_block` call's thread, block and `out` buffer, in call order."""
    calls = []
    original = ChannelStream.draw_block

    def recording(self, m, block, power=False, out=None):
        calls.append((threading.get_ident(), block, out))
        return original(self, m, block, power, out=out)

    monkeypatch.setattr(ChannelStream, "draw_block", recording)
    return calls


def failing(monkeypatch, owner, name, after: int = 0, wait: float = 0.0):
    """Make owner.name raise at its call number `after` and sleep `wait` s in every
    other call.  Returns the thread of every call."""
    threads = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        threads.append(threading.get_ident())
        if len(threads) == after + 1:
            raise RuntimeError(f"injected {name} failure")
        time.sleep(wait)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return threads


class TestDrawAhead:
    """Greedy runs its blocks on min(max(workers, 2), blocks, CPUs) pool threads and a
    fixed policy on min(workers, blocks, CPUs); one thread runs them inline.  Each
    thread draws every block it runs into one buffer that it reuses."""

    TRIALS = 3 * 1024 + 5  # four blocks, so a thread draws into its buffer again

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # one usable CPU runs every policy inline; two take the pool anywhere
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("aperture", [3.0, 10.0])
    def test_matches_whole_block_engine_and_pool(self, aperture, draw_calls):
        # the 20x20 pool has rank 45 in the 3x3-wavelength aperture, 100 in
        # 10x10; one worker's greedy blocks run on two pool threads, as two
        # workers' do
        corr = build_correlation(ExperimentConfig(aperture_x=aperture,
                                                  aperture_z=aperture).fris_geometry())
        assert corr.rank == (45 if aperture == 3.0 else 100)
        stream = ChannelStream(7, 2)
        for trials in (self.TRIALS, 2 * 1024, 1024 + 1):
            want = whole_block_gains(corr, "greedy", 100, trials, stream)
            for workers in (1, 2):
                draw_calls.clear()
                gains = simulate_gains(corr, "greedy", 100, trials, stream, workers=workers)
                assert threading.get_ident() not in {thread for thread, _, _ in draw_calls}
                for got, reference in zip((gains.g_bob, gains.g_eve, gains.var_eve), want):
                    assert np.array_equal(got, reference)

    def test_each_block_drawn_once_into_its_buffer(self, aperture_pools, draw_calls):
        # a buffer per thread, reused for each of its blocks and shared with
        # no other thread; a fixed policy on one worker draws on the caller
        caller = threading.get_ident()
        for policy in POLICIES:
            for workers in (1, 2):
                draw_calls.clear()
                simulate_gains(aperture_pools[100], policy, 10, self.TRIALS,
                               ChannelStream(7, 2), workers=workers)
                assert sorted(block for _, block, _ in draw_calls) == [0, 1, 2, 3]
                buffers = {}
                for thread, _, out in draw_calls:
                    assert buffers.setdefault(thread, out) is out
                assert len(buffers) <= 2
                assert (caller in buffers) == (policy != "greedy" and workers == 1)
                if len(buffers) == 2:
                    assert not np.shares_memory(*buffers.values())

    def test_samples_share_no_memory_with_the_draws(self, aperture_pools, draw_calls):
        for policy in POLICIES:
            for workers in (1, 2):
                draw_calls.clear()
                gains = simulate_gains(aperture_pools[400], policy, 100, self.TRIALS,
                                       ChannelStream(7, 2), workers=workers)
                assert len(draw_calls) == 4
                for _, _, buffer in draw_calls:
                    for samples in (gains.g_bob, gains.g_eve, gains.var_eve):
                        assert not np.shares_memory(samples, buffer)

    def test_concurrent_runs_under_a_short_switch_interval(self, aperture_pools, draw_calls):
        # four runs at once, on one and two workers, are eight pool threads on
        # the cores, switching every microsecond: a buffer shared between
        # threads or a lost block would change a sample
        corr = aperture_pools[36]
        trials = 5 * 1024 + 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(simulate_gains, corr, "greedy", 20, trials,
                                    ChannelStream(7, 2), workers=1 + i % 2) for i in range(4)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(block for _, block, _ in draw_calls) == sorted(list(range(6)) * 4)
        want = whole_block_gains(corr, "greedy", 20, trials, ChannelStream(7, 2))
        for gains in results:
            for got, reference in zip((gains.g_bob, gains.g_eve, gains.var_eve), want):
                assert np.array_equal(got, reference)

    def test_one_block_draws_inline(self, aperture_pools, draw_calls):
        for workers in (1, 2):
            draw_calls.clear()
            simulate_gains(aperture_pools[100], "greedy", 10, 1024, ChannelStream(7, 2),
                           workers=workers)
            [(thread, block, out)] = draw_calls
            assert (thread, block) == (threading.get_ident(), 0) and out is not None

    @pytest.mark.parametrize("policy", ["fixed-uniform", "fixed-random"])
    def test_fixed_policies_draw_on_the_calling_thread(self, aperture_pools, draw_calls,
                                                       policy):
        # with one worker, into one buffer
        simulate_gains(aperture_pools[100], policy, 10, self.TRIALS, ChannelStream(7, 2))
        out = draw_calls[0][2]
        assert draw_calls == [(threading.get_ident(), block, out) for block in range(4)]

    def test_draw_thread_joined_on_return_and_on_error(self, aperture_pools, monkeypatch):
        corr = aperture_pools[100]  # 128-trial chunks: 8 per block
        before = threading.active_count()
        for workers in (1, 2):
            simulate_gains(corr, "greedy", 10, self.TRIALS, ChannelStream(7, 2), workers=workers)
            assert threading.active_count() == before
        original = harness._greedy_chunk
        for workers in (1, 2):
            failing(monkeypatch, harness, "_greedy_chunk", after=8)  # the ninth chunk fails
            with pytest.raises(RuntimeError, match="injected _greedy_chunk failure"):
                simulate_gains(corr, "greedy", 10, self.TRIALS, ChannelStream(7, 2),
                               workers=workers)
            monkeypatch.setattr(harness, "_greedy_chunk", original)
            assert threading.active_count() == before

    @pytest.mark.parametrize("layer, on_caller", [
        ("draw_block", True), ("draw_block", False), ("_greedy_block", True),
        ("_greedy_block", False)])
    def test_error_on_either_thread_reaches_the_caller(self, aperture_pools, monkeypatch,
                                                       layer, on_caller):
        # one block runs on the calling thread, four on the pool
        before = threading.active_count()
        owner = ChannelStream if layer == "draw_block" else harness
        original = getattr(owner, layer)
        for workers in (1, 2):
            threads = failing(monkeypatch, owner, layer)
            with pytest.raises(RuntimeError, match=f"injected {layer} failure"):
                simulate_gains(aperture_pools[100], "greedy", 10,
                               1024 if on_caller else self.TRIALS, ChannelStream(7, 2),
                               workers=workers)
            monkeypatch.setattr(owner, layer, original)
            assert (threads[0] == threading.get_ident()) == on_caller
            assert threading.active_count() == before

    def test_error_leaves_the_blocks_not_started_undone(self, aperture_pools, monkeypatch,
                                                        draw_calls):
        # the first draw fails while every other takes 20 ms; the caller
        # wakes and cancels the queued blocks long before 32 of them have run
        failing(monkeypatch, ChannelStream, "draw_block", wait=0.02)
        with pytest.raises(RuntimeError, match="injected draw_block failure"):
            simulate_gains(aperture_pools[100], "greedy", 10, 64 * 1024, ChannelStream(7, 2))
        assert len(draw_calls) < 32


class TestEstimates:
    def test_proportion_basic(self):
        est = wilson_estimate(50, 100)
        assert est.point == pytest.approx(0.5)
        assert est.ci_low < 0.5 < est.ci_high
        assert est.std_error == pytest.approx(0.05)

    def test_proportion_zero_count(self):
        est = wilson_estimate(0, 1000)
        assert est.point == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high <= 0.004  # Wilson interval stays tight near zero

    @pytest.mark.parametrize("successes, n", [(5, 3), (-1, 10)])
    def test_proportion_count_outside_trials(self, successes, n):
        with pytest.raises(DomainError, match=rf"successes must lie in \[0, {n}\], got {successes}"):
            wilson_estimate(successes, n)

    def test_mean_constant(self):
        est = MetricEstimate.for_mean(np.full(50, 2.5))
        assert est.point == pytest.approx(2.5)
        assert est.std_error == 0.0
        assert est.ci_low == est.ci_high == pytest.approx(2.5)

    def test_mean_needs_two(self):
        with pytest.raises(DomainError):
            MetricEstimate.for_mean(np.array([1.0]))


class TestEngine:
    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_trials_is_domain_error(self, aperture_pools, monkeypatch, policy, trials):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the trial count was checked")

        monkeypatch.setattr(ChannelStream, "draw_block", no_draw)
        with pytest.raises(DomainError, match="trials must be >= 1"):
            simulate_gains(aperture_pools[36], policy, 4, trials, ChannelStream(1))

    def test_records_reproducible(self):
        # a config needs two trials, the engine one
        cfg = small_config()
        corr = build_correlation(cfg.fris_geometry())
        g1, g2 = (simulate_gains(corr, cfg.policy, cfg.m_on, 1, ChannelStream(cfg.seed))
                  for _ in range(2))
        (snr1, rate1), (snr2, rate2) = (records_for_budget(g, cfg.budget()) for g in (g1, g2))
        assert np.array_equal(g1.g_bob, g2.g_bob)
        assert np.array_equal(snr1, snr2) and np.array_equal(rate1, rate2)
        assert g1.g_bob.size == snr1.size == rate1.size == 1

    def test_silenced_eavesdropper_gives_nonnegative_log_capacity(self):
        # a huge noise power: every trial's capacity term is log2(1 + SNR_bob),
        # and a trial is in outage exactly when that is at most the target
        cfg = small_config(noise_eve_dbm=300.0, trials=512)
        gains, records = base_records(cfg, cfg.fris_geometry(), cfg.m_on)
        capacity = np.log1p(cfg.budget().snr_scale("bob") * gains.g_bob) / math.log(2.0)
        assert estimate_asc(records).point == pytest.approx(capacity.mean(), rel=1e-9)
        sop = estimate_sop(records, cfg.target())
        assert sop.point == np.mean(capacity <= cfg.target_rate_bits)
        assert np.all(records[1] > 0.0)

    def test_conventional_policy_geometry(self):
        # the baseline is no policy: its surface runs as greedy with every element ON
        cfg = small_config(conventional_m=4)
        gains, (snr_bob, rate_eve) = base_records(cfg, cfg.conventional_geometry(),
                                                  cfg.conventional_m)
        assert gains.g_bob.size == snr_bob.size == rate_eve.size == cfg.trials
        with pytest.raises(DomainError, match="unknown policy"):
            simulate_gains(build_correlation(cfg.conventional_geometry()), "conventional", 4,
                           16, ChannelStream(1))

    def test_worker_independence(self):
        corr = build_correlation(small_config().fris_geometry())
        st = ChannelStream(5, 0)
        for policy in ("greedy", "fixed-uniform", "fixed-random"):
            g1 = simulate_gains(corr, policy, 4, 3000, st, workers=1)
            g3 = simulate_gains(corr, policy, 4, 3000, st, workers=3)
            assert np.array_equal(g1.g_bob, g3.g_bob)
            assert np.array_equal(g1.g_eve, g3.g_eve)
            assert np.array_equal(g1.var_eve, g3.var_eve)

    @staticmethod
    def fixed_point(policy):
        """A fixed policy's row point (6x6 pool, 12 ON, 60,000 trials), as the (fits, gains,
        KS pair) that `_evaluate_point` returns, and the reference fits."""
        cfg = ExperimentConfig(m_x=6, m_z=6, m_on=12, trials=60_000, seed=12, policy=policy)
        point = harness._evaluate_point(cfg, cfg.fris_geometry(), policy, 12, 1, ks=False)
        return point, reference_fits(build_correlation(cfg.fris_geometry()), 12)

    def test_fixed_uniform_mean_matches_traces(self):
        ((fit_b, fit_e), gains, ks_pair), reference = self.fixed_point("fixed-uniform")
        assert (fit_b, fit_e) == reference
        assert gains.g_bob.mean() == pytest.approx(fit_b.mean, rel=0.04)
        assert gains.g_eve.mean() == pytest.approx(fit_e.mean, rel=0.04)
        assert all(math.isnan(d) for d in ks_pair)  # no KS without `ks`

    def test_fixed_random_mean_matches_its_own_fits(self):
        # the row's fits come from its own frozen subset and phases: a mean
        # near 11.7 here, where the first 12 elements at zero phase give 21.2
        ((fit_b, fit_e), gains, _), reference = self.fixed_point("fixed-random")
        assert fit_b.mean < 0.6 * reference[0].mean
        assert gains.g_bob.mean() == pytest.approx(fit_b.mean, rel=0.04)
        assert gains.g_eve.mean() == pytest.approx(fit_e.mean, rel=0.04)

    def test_reference_fits_leading_block(self, aperture_pools):
        # the spectrum's sums against tr(J_S^2) and tr(J_S^4) of the gathered
        # leading block, by repeated products, on the 6x6 baseline and the
        # 10x10, 20x20 and 40x40 pools
        for m in (36, 100, 400, 1600):
            corr = aperture_pools[m]
            for m_on in sorted(v for v in {1, 10, 36, 64, 100, m} if v <= m):
                reduced = correlation_block(corr, np.arange(m_on))
                tr2, tr4 = trace_power_direct(reduced, 2), trace_power_direct(reduced, 4)
                fit_b, fit_e = reference_fits(corr, m_on)
                assert (fit_b.shape, fit_b.scale, fit_e.rate) == pytest.approx(
                    (tr2 * tr2 / tr4, tr4 / tr2, 1.0 / tr2), rel=1e-11), (m, m_on)
        # this text, simulate_gains' own, reaches the status column of the table rows
        corr = build_correlation(small_config().fris_geometry())
        for m_on in (17, 0, -1):
            with pytest.raises(DomainError, match=rf"^m_on must be in \[1, 16\], got {m_on}$"):
                reference_fits(corr, m_on)


def records(snr_bob, mean_eve):
    """Records of trials with the given legitimate SNRs and eavesdropper mean SNRs.

    They come from `records_for_budget` on a budget whose SNR scales are
    exactly 1, so the gains are the SNRs and the eavesdropper's rate is
    clipped as the sweeps clip it.
    """
    snr_bob = np.asarray(snr_bob, dtype=float)
    var_eve = np.broadcast_to(np.asarray(mean_eve, dtype=float), snr_bob.shape).copy()
    return records_for_budget(GainSamples(snr_bob, np.zeros_like(snr_bob), var_eve),
                              LinkBudget(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))


class TestEstimators:
    def test_sop_all_outage(self):
        # no legitimate SNR: every trial is in outage whatever the eavesdropper sees
        est = estimate_sop(records(np.zeros(10), 1.0), SecrecyTarget(1.0))
        assert est.point == 1.0

    def test_sop_none_below(self):
        # a strong legitimate link against a faint eavesdropper: exp(-5e8) is 0
        est = estimate_sop(records(np.full(1000, 1e6), 1e-3), SecrecyTarget(1.0))
        assert est.point == 0.0
        assert est.ci_high <= 0.004

    def test_sop_boundary_counts_as_outage(self):
        # SNR_bob = 2^R - 1 puts the capacity at the target with any
        # eavesdropper: probability 1, as below it; above it the faint
        # eavesdropper cannot reach the threshold
        est = estimate_sop(records([1.0, 1.0, 3.0, 0.5], 1e-3), SecrecyTarget(1.0))
        assert est.point == pytest.approx(0.75)
        assert (est.ci_low, est.ci_high) == (pytest.approx(0.75 - _Z95 * est.std_error),
                                             1.0)

    def test_sop_synthetic_matches_closed_form(self):
        # exponential bob gain (shape 1), exponential eve: closed form 1/(1+z)
        rng = np.random.default_rng(17)
        n = 100_000
        a, b, rs = 2000.0, 1000.0, 1.0
        est = estimate_sop(records(rng.exponential(a, size=n), b), SecrecyTarget(rs))
        target = sop_bound_from_ratio(1.0, a / (b * 2.0 ** rs))
        assert est.ci_low <= target + 0.004 and target <= est.ci_high + 0.004

    def test_asc_degenerate(self):
        # a silenced eavesdropper leaves each trial log2(1 + 3) = 2 bits
        est = estimate_asc(records(np.full(100, 3.0), 1e-300))
        assert est.point == 2.0
        assert est.std_error == 0.0

    def test_asc_synthetic_matches_oracle(self):
        rng = np.random.default_rng(23)
        n = 200_000
        fit_b = GammaFit(shape=2.0, scale=1.5)
        budget = LinkBudget(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        est = estimate_asc(records(rng.gamma(2.0, 1.5, size=n), 1.0 / 0.7))
        from frisec.secrecy import ExpFit
        ref = asc_oracle(fit_b, ExpFit(rate=0.7), budget)
        assert abs(est.point - ref) <= 3.5 * est.std_error

    @pytest.mark.parametrize("mean_eve", [0.0, 5e-324, 1e-310, 1e300, 1.7e308])
    def test_extreme_eavesdropper_means_are_finite(self, mean_eve):
        # a mean SNR that is 0, subnormal or near the float range gives the
        # limits, log2(1 + SNR_bob) and 0 for a vanishing eavesdropper, with
        # no floating-point warning (the suite turns those into errors)
        snr_bob = np.array([0.0, 1e-12, 3.0, 1e6])
        asc = estimate_asc(records(snr_bob, mean_eve))
        sop = estimate_sop(records(snr_bob, mean_eve), SecrecyTarget(1.0))
        assert math.isfinite(asc.point) and 0.0 <= sop.point <= 1.0
        if mean_eve < 1e-300:
            assert asc.point == pytest.approx(np.mean(np.log1p(snr_bob)) / math.log(2.0))
            assert sop.point == 0.5
        else:
            assert asc.point <= 1e-10 * np.log1p(snr_bob).max()
            assert sop.point == pytest.approx(1.0, abs=1e-12)


class TestConditionalMonteCarlo:
    # Each trial's SOP and ASC terms are expectations over the eavesdropper's
    # channel given the trial; the plain engine draws that channel instead.
    PLAIN_EVENTS = 10  # fewer outages, non-outages or positive capacities leave no usable SE
    Z_BOUND = 4.0  # two-sided level 6e-5 per comparison: under 1% over each test's comparisons

    @pytest.mark.parametrize("policy, m_on, baseline", [
        ("greedy", 100, False), ("fixed-uniform", 100, False), ("fixed-random", 100, False),
        ("greedy", 36, True)], ids=["greedy", "fixed-uniform", "fixed-random", "all-on-baseline"])
    def test_agrees_with_plain_engine(self, policy, m_on, baseline):
        # the reference config's pool (or its 6x6 baseline all ON) at every SNR of
        # the grid, 20480 trials a side from independent streams: the difference
        # of the two estimates within Z_BOUND of its standard error wherever the
        # plain sample holds PLAIN_EVENTS of each kind; where it holds fewer
        # outages or non-outages, the conditional SOP inside the plain Wilson
        # interval, which is valid at any count
        trials = 20 * 1024
        cfg = ExperimentConfig(trials=trials, seed=1234, m_on=m_on)
        corr = build_correlation(cfg.conventional_geometry() if baseline else
                                 cfg.fris_geometry())
        gains = simulate_gains(corr, policy, m_on, trials, ChannelStream(cfg.seed, 0))
        g_bob, g_eve = plain_gains(corr, policy, m_on, trials, cfg.seed)
        compared = 0
        for snr_db in cfg.snr_sweep_db:
            budget = cfg.budget().with_avg_snr_bob(db_to_linear(snr_db))
            conditional = records_for_budget(gains, budget)
            sop, asc = (estimate_sop(conditional, cfg.target()), estimate_asc(conditional))
            plain_sop, plain_asc = plain_estimates(g_bob, g_eve, budget, cfg.target())
            outages = round(plain_sop.point * trials)
            positive = int(np.count_nonzero(
                budget.snr_scale("bob") * g_bob > budget.snr_scale("eve") * g_eve))
            for est, plain, events in ((sop, plain_sop, min(outages, trials - outages)),
                                       (asc, plain_asc, positive)):
                if events >= self.PLAIN_EVENTS:
                    se = math.hypot(est.std_error, plain.std_error)
                    assert abs(est.point - plain.point) <= self.Z_BOUND * se, (snr_db, est, plain)
                    compared += 1
                elif est is sop:
                    assert plain.ci_low <= est.point <= plain.ci_high, (snr_db, est, plain)
        assert compared >= 16

    def test_single_trial_terms_average_over_the_eavesdropper(self):
        # four greedy trials of the reference pool: for each, 2e5 draws of the
        # eavesdropper's link through the trial's own selection and phases give
        # the plain outage fraction and mean capacity at 90, 100 and 110 dB,
        # which the trial's conditional terms must match within Z_BOUND of
        # their standard errors
        cfg = ExperimentConfig(seed=1234)
        corr = build_correlation(cfg.fris_geometry())
        r = corr.rank
        stream = ChannelStream(cfg.seed, 0)
        gains = simulate_gains(corr, "greedy", 100, 4, stream)
        v, u_bob = correlated_images_batch(stream.draw_block(r, 0)[:, :4, :r], corr.factor)
        rng = np.random.default_rng(99)
        for t in range(4):
            on = np.argsort(-np.abs(v[t] * u_bob[t]), kind="stable")[:100]
            a = np.zeros(corr.n_elements, complex)
            a[on] = np.abs(v[t, on]) * u_bob[t, on] / np.abs(u_bob[t, on])
            assert gains.var_eve[t] == pytest.approx(np.linalg.norm(corr.factor.T @ a) ** 2,
                                                     rel=1e-12)
            # u_eve = F w for unit normals w, so sum conj(u_eve) a = w^H F^T a
            shape = (200_000, r)
            w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
            g_eve = np.abs(np.conj(w) @ (corr.factor.T @ a)) ** 2
            for snr_db in (90.0, 100.0, 110.0):
                budget = cfg.budget().with_avg_snr_bob(db_to_linear(snr_db))
                snr_bob, rate_eve = records_for_budget(gains, budget)
                capacity = secrecy_capacity(snr_bob[t], budget.snr_scale("eve") * g_eve)
                trial = (np.full(2, snr_bob[t]), np.full(2, rate_eve[t]))
                for term, drawn in ((estimate_sop(trial, cfg.target()).point,
                                     capacity <= cfg.target_rate_bits),
                                    (estimate_asc(trial).point, capacity)):
                    se = drawn.std() / math.sqrt(drawn.size)
                    assert abs(term - drawn.mean()) <= self.Z_BOUND * se, (t, snr_db, term,
                                                                         drawn.mean(), se)


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

    def test_equals_the_full_evaluation(self):
        # the bracket evaluates the CDF at a subset of the sorted samples, so
        # it must give the one-call maximum over every sample, bit for bit: at
        # sizes on and off the stride, with ties, under the samples' own law
        # and a wrong one, and with a CDF that a 1e-12 wobble makes
        # non-monotone within the slack
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        laws = {
            "gamma": (lambda rng, n: rng.gamma(2.5, 1.5, n),
                      lambda x: gamma_cdf(x, GammaFit(2.5, 1.5))),
            "exponential": (lambda rng, n: rng.exponential(2.0, n),
                            lambda x: exp_cdf(x, ExpFit(0.5))),
            "uniform": (lambda rng, n: rng.uniform(size=n), lambda x: np.clip(x, 0.0, 1.0)),
        }

        @hypothesis.settings(max_examples=80, derandomize=True, database=None, deadline=None)
        @hypothesis.given(st.integers(KS_MIN_SAMPLES, 4000), st.sampled_from(sorted(laws)),
                          st.sampled_from(sorted(laws)), st.sampled_from([None, 0, 1, 2]),
                          st.booleans(), st.integers(0, 2 ** 32 - 1))
        @hypothesis.example(KS_STRIDE * 20, "gamma", "gamma", None, False, 1)
        @hypothesis.example(KS_STRIDE * 20 + 1, "gamma", "gamma", None, True, 2)
        @hypothesis.example(KS_MIN_SAMPLES, "exponential", "exponential", 0, False, 3)
        @hypothesis.example(3000, "gamma", "uniform", None, False, 4)  # KS near 1
        def check(n, drawn, tested, decimals, wobble, seed):
            samples = laws[drawn][0](np.random.default_rng(seed), n)
            if decimals is not None:  # ties
                samples = np.round(samples, decimals)
            cdf = laws[tested][1]
            if wobble:
                cdf = functools.partial(lambda law, x: law(x) + 1e-12 * np.sin(1e6 * x), cdf)
            assert ks_statistic(samples, cdf) == ks_full(samples, cdf)

        check()

    def test_cdf_sees_few_samples_of_a_misfit_law(self, aperture_pools):
        # validate-fits' m_on = 10 row: 50,000 frozen-configuration gains of
        # the 10x10 pool against their Gamma fit, a KS distance near 0.3
        corr = aperture_pools[100]
        gains = simulate_gains(corr, "fixed-uniform", 10, 50_000, ChannelStream(1, 10))
        fit_b = reference_fits(corr, 10)[0]
        seen = []

        def cdf(x):
            seen.append(x.size)
            return gamma_cdf(x, fit_b)

        stat = ks_statistic(gains.g_bob, cdf)
        assert len(seen) == 2 and sum(seen) < 0.1 * gains.g_bob.size
        assert stat == ks_full(gains.g_bob, cdf) > 0.2

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

    @staticmethod
    def recomputed(cfg, geometry, policy, m_on, stream, budget):
        """A row's cells from scratch: its fits, its gains on its registered stream, and
        records at its own budget, with no eavesdropper term carried from another row."""
        corr = build_correlation(geometry)
        fit_b, fit_e = (fit_laws(harness.frozen_spectrum(corr, policy, m_on, cfg.seed))
                        if policy == "fixed-random" else reference_fits(corr, m_on))
        gains = simulate_gains(corr, "greedy" if policy == "conventional" else policy, m_on,
                               cfg.trials, ChannelStream(cfg.seed, stream))
        records = records_for_budget(gains, budget)
        asc, sop = estimate_asc(records), estimate_sop(records, cfg.target())
        asc_bound = asc_upper_bound(fit_b, fit_e, budget)
        sop_bound = sop_lower_bound(fit_b, fit_e, budget, cfg.target())
        return {
            "policy": policy, "m_total": geometry.n_elements, "m_on": m_on,
            "asc_mc": asc.point, "asc_se": asc.std_error, "asc_ci_low": asc.ci_low,
            "asc_ci_high": asc.ci_high, "asc_bound": asc_bound,
            "asc_bound_negative": int(asc_bound < 0.0), "sop_mc": sop.point,
            "sop_se": sop.std_error, "sop_ci_low": sop.ci_low, "sop_ci_high": sop.ci_high,
            "sop_bound": sop_bound, "gamma_shape": fit_b.shape, "gamma_scale": fit_b.scale,
            "exp_rate": fit_e.rate,
            "ks_bob": ks_full(gains.g_bob, lambda g: gamma_cdf(g, fit_b)),
            "ks_eve": ks_full(gains.g_eve, lambda g: exp_cdf(g, fit_e)),
            "sop_bound_ok": int(sop.point >= sop_bound - 2.0 * sop.std_error),
            "asc_bound_ok": int(asc_bound >= asc.point),
        }

    @pytest.mark.parametrize("table, policy", [
        ("sweep-sop", "greedy"), ("sweep-sop", "fixed-random"),
        ("sweep-size", "greedy"), ("sweep-size", "fixed-uniform"),
        ("validate-bounds", "greedy")])
    def test_rows_equal_a_recomputation_bit_for_bit(self, table, policy):
        # a point reuses its eavesdropper's rate and S of it across budgets and
        # its gains across rows; every row must equal, bit for bit, the cells
        # recomputed from its own stream and budget
        cfg = small_config(policy=policy, size_sweep=(4, 9))
        snr_budgets = [cfg.budget().with_avg_snr_bob(db_to_linear(db))
                       for db in cfg.snr_sweep_db]
        fris = (cfg.fris_geometry(), cfg.policy, cfg.m_on)
        conventional = (cfg.conventional_geometry(), "conventional", cfg.conventional_m)
        # each row's (geometry, policy, m_on, stream, budget), in row order
        if table == "sweep-sop":
            rows = sweep_snr(cfg)
            sources = [(*point, stream, budget) for budget in snr_budgets
                       for point, stream in ((fris, harness.STREAM_FRIS_SNR),
                                             (conventional, harness.STREAM_CONV_SNR))]
        elif table == "sweep-size":
            rows = sweep_size(cfg)
            sources = [(*point, harness.STREAM_SIZE_BASE + 2 * index + k, cfg.budget())
                       for index, m_total in enumerate(cfg.size_sweep)
                       for k, point in enumerate((
                           (cfg.size_geometry(m_total), cfg.policy, cfg.m_on), conventional))]
        else:
            rows = validate_bounds(cfg)
            sources = [(fris[0], "fixed-uniform", cfg.m_on, harness.STREAM_BOUNDS, budget)
                       for budget in snr_budgets]
        assert len(rows) == len(sources)
        assert all(row["status"] == "ok" for row in rows)
        for row, source in zip(rows, sources):
            expected = self.recomputed(cfg, *source)
            compared = [name for name in expected if name in row]
            assert len(compared) >= 12
            assert {name: row[name] for name in compared} == {
                name: expected[name] for name in compared}

    def test_snr_sweep_drops_a_point_before_simulating_the_next(self, monkeypatch):
        # each point is reduced to its rows first, so no point's gains are
        # alive when the next point's simulation starts
        original = harness.simulate_gains
        earlier = []

        def recording(*args, **kwargs):
            assert all(ref() is None for ref in earlier), "an earlier point's gains are alive"
            gains = original(*args, **kwargs)
            earlier.append(weakref.ref(gains))
            return gains

        monkeypatch.setattr(harness, "simulate_gains", recording)
        rows = sweep_snr(small_config())
        assert len(earlier) == 2 and all(row["status"] == "ok" for row in rows)

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

    def test_size_sweep_rejects_non_square_gracefully(self, tmp_path, capsys):
        # a non-square size is a configuration error before any work, not an error row
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"m_x": 4, "m_z": 4, "m_on": 4, "conventional_m": 4,
                                      "trials": 1024, "size_sweep": [4, 10]}))
        out = tmp_path / "size.csv"
        assert main(["sweep-size", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("frisec: config error: size_sweep entries must be "
                                           "perfect squares >= 1, got 10\n")
        assert not out.exists()

    def test_size_sweep_follows_policy(self):
        sizes = dict(size_sweep=(4, 9), m_on=4, conventional_m=9)
        greedy = sweep_size(small_config(**sizes))
        fixed = sweep_size(small_config(policy="fixed-uniform", **sizes))
        pool = [r for r in fixed if r["policy"] != "conventional"]
        assert [r["policy"] for r in pool] == ["fixed-uniform"] * 2
        # the pool rows are simulated under the policy, the baseline rows are not
        assert [b["status"] for b in fixed] == ["ok"] * 4
        for a, b in zip(greedy, fixed):
            assert (a["asc_mc"] == b["asc_mc"]) == (b["policy"] == "conventional")

    @pytest.mark.parametrize("m_on, greedy_wins", [(16, False), (900, True)])
    def test_on_fraction_decides_against_the_baseline(self, m_on, greedy_wins):
        # a 60x60 pool in the 3x3-wavelength aperture against the 6x6 baseline
        # all ON, at 120 dB: 16 ON (0.44%) lose on capacity, 900 ON (25%) win,
        # each by some 60 standard errors at 2048 trials
        cfg = ExperimentConfig(m_x=60, m_z=60, m_on=m_on, trials=2048, seed=1234,
                               snr_sweep_db=(120.0,))
        pool, baseline = sweep_snr(cfg)
        assert (pool["policy"], baseline["policy"]) == ("greedy", "conventional")
        if greedy_wins:
            assert pool["asc_ci_low"] > baseline["asc_ci_high"]
        else:
            assert pool["asc_ci_high"] < baseline["asc_ci_low"]

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

    def test_validate_bounds_computes_no_ks(self, monkeypatch):
        # its table has no KS column, so the diagnostic is not computed
        def no_ks(*args, **kwargs):
            raise AssertionError("KS computed for validate-bounds")

        monkeypatch.setattr(harness, "ks_statistic", no_ks)
        assert all(r["status"] == "ok" for r in validate_bounds(small_config(trials=1024)))


@pytest.fixture()
def two_blas_threads():
    """OpenBLAS at two threads for the test, then at its count before it."""
    if blas_threads() is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be read")
    _, set_threads = channel._openblas_threads()
    before = blas_threads()
    set_threads(2)
    if blas_threads() != 2:
        set_threads(before)
        pytest.skip("this OpenBLAS build cannot run two threads")
    yield
    set_threads(before)


class TestOneBlasThread:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_kernel_products_run_on_one_thread(self, aperture_pools, monkeypatch,
                                               two_blas_threads, workers):
        seen = []

        def recording(draws, rows, out=None):
            seen.append(blas_threads())
            return correlated_images_batch(draws, rows, out)

        monkeypatch.setattr(harness, "correlated_images_batch", recording)
        simulate_gains(aperture_pools[100], "greedy", 10, 2048, ChannelStream(7, 2),
                       workers=workers)
        assert seen == [1] * 16
        assert blas_threads() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_after_an_error(self, aperture_pools, monkeypatch,
                                           two_blas_threads, workers):
        def failing(draws, rows, out=None):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness, "correlated_images_batch", failing)
        with pytest.raises(RuntimeError, match="injected"):
            simulate_gains(aperture_pools[100], "greedy", 10, 2048, ChannelStream(7, 2),
                           workers=workers)
        assert blas_threads() == 2

    def test_concurrent_calls_restore_the_count(self, aperture_pools, monkeypatch,
                                                two_blas_threads):
        # both calls wait inside their first chunk until the other is there
        # too, so one enters while the other holds the guard and one exits first
        corr, stream = aperture_pools[100], ChannelStream(7, 2)
        serial = simulate_gains(corr, "greedy", 10, 1024, stream)
        barrier, local, seen, results = threading.Barrier(2, timeout=60), threading.local(), [], []

        def meeting(draws, rows, out=None):
            if not getattr(local, "met", False):
                local.met = True
                barrier.wait()
            seen.append(blas_threads())
            return correlated_images_batch(draws, rows, out)

        monkeypatch.setattr(harness, "correlated_images_batch", meeting)
        threads = [threading.Thread(target=lambda: results.append(
            simulate_gains(corr, "greedy", 10, 1024, stream))) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(results) == 2 and seen == [1] * 16
        for gains in results:
            assert np.array_equal(gains.g_bob, serial.g_bob)
            assert np.array_equal(gains.g_eve, serial.g_eve)
            assert np.array_equal(gains.var_eve, serial.var_eve)
        assert blas_threads() == 2

    def test_entries_from_many_threads(self, two_blas_threads):
        # more threads than cores enter and leave the guard with a short switch
        # interval; a lost update of its depth would leave the count at 1
        inside, interval = [], sys.getswitchinterval()

        def enter_often():
            for _ in range(200):
                with channel.one_blas_thread():
                    inside.append(blas_threads())

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_often) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert inside == [1] * 1600
        assert blas_threads() == 2

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gains_do_not_depend_on_finding_openblas(self, aperture_pools, monkeypatch, policy):
        corr = aperture_pools[100]
        stream = ChannelStream(7, 2)
        found = simulate_gains(corr, policy, 10, 1300, stream, workers=2)
        monkeypatch.setattr(channel, "_openblas_threads", lambda: None)
        assert blas_threads() is None
        for workers in (1, 2):
            gains = simulate_gains(corr, policy, 10, 1300, stream, workers=workers)
            assert np.array_equal(gains.g_bob, found.g_bob)
            assert np.array_equal(gains.g_eve, found.g_eve)
            assert np.array_equal(gains.var_eve, found.var_eve)


class TestOutput:
    def test_csv_formatting(self):
        rows = [{"a": 1, "b": 0.5, "c": float("nan"), "d": "ok"},
                {"a": 2, "b": 0.25, "c": 1.0, "d": 'error: x, "y"'}]
        text = rows_to_csv(rows, ("a", "b", "c", "d"))
        lines = text.split("\n")
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "1,5.00000000000000000e-01,nan,ok"
        # a cell holding a comma or a quote is quoted (RFC 4180) and reads back whole
        assert lines[2] == '2,2.50000000000000000e-01,1.00000000000000000e+00,"error: x, ""y"""'
        assert list(csv.reader(io.StringIO(text)))[2] == [
            "2", format(0.25, ".17e"), format(1.0, ".17e"), 'error: x, "y"']
        assert text.endswith('"""\n') and "\r" not in text

    def test_csv_row_missing_a_column_raises(self):
        with pytest.raises(KeyError, match="'c'"):
            rows_to_csv([{"a": 1, "b": 0.5}], ("a", "b", "c"))

    def test_write_results_and_manifest(self, tmp_path):
        cfg = small_config()
        rows = validate_bounds(small_config(trials=1024))
        out = tmp_path / "res.csv"
        write_results(str(out), rows, VALIDATE_BOUND_COLUMNS, cfg, "validate-bounds")
        assert out.exists()
        manifest = json.loads((out.with_suffix(".csv.manifest.json")).read_text())
        assert manifest["config"]["seed"] == cfg.seed
        assert "version" in manifest
        assert "element_distance" in manifest["notes"]
        sampler = manifest["notes"]["sampler"]
        assert ((sampler["trials_per_block"], sampler["chunk_trials"], sampler["chunk_elements"])
                == (1024, 128, 51200))
        blas = manifest["notes"]["blas"]
        assert set(blas) == {"name", "version", "threads", "engine_threads"}
        assert blas["threads"] == blas_threads()
        assert blas["engine_threads"] == (None if blas_threads() is None else 1)

    def test_manifest_without_openblas(self, tmp_path, monkeypatch):
        monkeypatch.setattr(channel, "_openblas_threads", lambda: None)
        cfg = small_config(trials=1024)
        out = tmp_path / "res.csv"
        write_results(str(out), sweep_snr(cfg), SWEEP_COLUMNS, cfg, "sweep-sop")
        blas = json.loads((tmp_path / "res.csv.manifest.json").read_text())["notes"]["blas"]
        assert (blas["threads"], blas["engine_threads"]) == (None, None)

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(trials=1024)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(str(p1), sweep_snr(cfg), SWEEP_COLUMNS, cfg, "sweep-sop")
        write_results(str(p2), sweep_snr(cfg), SWEEP_COLUMNS, cfg, "sweep-sop")
        assert p1.read_bytes() == p2.read_bytes()

    def test_dump_correlation(self, tmp_path):
        cfg = small_config()
        out = tmp_path / "corr.csv"
        diag = dump_correlation_csv(cfg, str(out))
        grid = np.loadtxt(str(out), delimiter=",")
        corr = build_correlation(cfg.fris_geometry())
        assert np.array_equal(grid, correlation_block(corr, np.arange(16)))
        assert diag["n_elements"] == 16

    def test_dump_correlation_peak_memory(self, tmp_path, monkeypatch):
        # J of the 40x40 pool is 19.5 MiB; the dump gathers it a row at a time.
        # The cells' text is stubbed: formatting 2.56 million cells under
        # tracemalloc takes seconds, and the dump holds one row's text at a time
        monkeypatch.setattr(harness, "_format_cell", lambda value: "")
        cfg = ExperimentConfig(m_x=40, m_z=40, m_on=1, size_sweep=(1,))
        tracemalloc.start()
        try:
            dump_correlation_csv(cfg, str(tmp_path / "corr.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1600 * 1600 * 8
