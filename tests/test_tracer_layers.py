"""The benchmark's tracer still finds every function it wraps.

`benchmarks/tracer.py` wraps frisec functions by (module, attribute path),
so renaming or moving one of them breaks a traced benchmark run.  This
test installs and uninstalls the tracer in-process to catch that here.
"""

import importlib
import sys
from pathlib import Path

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
