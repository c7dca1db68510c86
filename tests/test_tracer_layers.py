"""The benchmark's tracer still finds every function it wraps.

`benchmarks/tracer.py` wraps frisec functions by (module, attribute path),
so renaming or moving one of them breaks a traced benchmark run.  This
test installs and uninstalls the tracer in-process to catch that here.
"""

import importlib
import sys
from pathlib import Path

import pytest

import frisec.cli  # noqa: F401  (the tracer patches every loaded frisec module)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def resolve(module_name, path):
    """The (owner, attribute) a layer names; fails if the attribute is gone."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}.{path} no longer exists"
    return owner, attr


def frisec_bindings():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "frisec" or name.startswith("frisec.")}


def test_tracer_wraps_every_layer_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer")
    originals = {name: getattr(*resolve(module, path))
                 for name, (module, path, _, _) in tracer.LAYERS.items()}
    before = frisec_bindings()
    traced = tracer.Tracer()
    traced.install()
    try:
        for name, (module, path, _, _) in tracer.LAYERS.items():
            wrapped = getattr(*resolve(module, path))
            assert wrapped is not originals[name], f"{name} was not wrapped"
            assert wrapped.__wrapped__ is originals[name]
    finally:
        traced.uninstall()
    assert {name: getattr(*resolve(module, path))
            for name, (module, path, _, _) in tracer.LAYERS.items()} == originals
    after = frisec_bindings()
    assert after.keys() == before.keys()
    for name, binding in before.items():
        changed = [key for key, value in binding.items() if after[name].get(key) is not value]
        assert not changed and after[name].keys() == binding.keys(), (name, changed)


def test_traced_engine_and_estimators_reduce_to_layer_metrics(monkeypatch):
    # the benchmark's count hooks read the draw and coloring shapes, so a
    # change of either that a traced benchmark run could not reduce fails here
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer")
    from frisec import harness, surface  # called through the modules the tracer patches
    from frisec.channel import ChannelStream

    cfg = harness.ExperimentConfig(m_x=6, m_z=6, m_on=9, trials=1100)
    traced = tracer.Tracer()
    traced.install()
    try:
        corr = surface.build_correlation(cfg.fris_geometry())
        for policy in ("greedy", "fixed-uniform"):
            gains = harness.simulate_gains(corr, policy, cfg.m_on, cfg.trials,
                                           ChannelStream(1, 0))
        records = harness.records_for_budget(gains, cfg.budget())
        harness.estimate_sop(records, cfg.target())
        harness.estimate_asc(records)
    finally:
        traced.uninstall()
    layers = tracer.layer_metrics(traced.spans, traced.counters, traced.main_thread, 1)
    r, k = corr.rank, min(cfg.m_on, corr.rank)
    assert layers["harness.simulate_gains.calls"] == 2
    assert layers["harness.simulate_gains.blocks"] == layers["channel.draw_block.calls"] == 4
    # 1100 trials are two blocks: greedy colors a whole block in eight chunks
    # and the next in one, the fixed policy weights each block in one product
    assert layers["channel.correlated_images_batch.calls"] == 9 + 2
    assert layers["channel.draw_block.bytes_computed"] == 2 * (
        2 * 1024 * (r + 1) * 16 + 1024 * (k + 2) * 16)
    # the hook reads greedy's (4, 128, r) real planes by the M x r factor and
    # the fixed policy's (1024, 1, k) exponentials by the one row mu, and
    # counts each as a complex product
    m = corr.n_elements
    assert layers["channel.correlated_images_batch.gflop_computed"] == pytest.approx(
        (9 * 4 * 4 * 128 * r * m + 2 * 4 * 1024 * k) / 1e9, rel=1e-12)
    for name in ("records_for_budget", "estimate_sop", "estimate_asc"):
        assert layers[f"harness.{name}.calls"] == 1
