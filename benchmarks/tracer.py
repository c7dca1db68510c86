"""Spans and counters recorded around frisec's public functions.

The tracer lives outside the program: it replaces each traced function in
every loaded ``frisec`` module that holds a reference to it, so a call made
through a ``from .x import f`` binding is seen as well as one made through
the defining module.  Per-sample scalar functions get a call counter and no
span, so their 1e5-1e6 calls per run do not swamp the trace.

Spans are kept in memory and reduced to per-layer metrics at the end:

* a layer's self time is its span durations minus the part of each span's
  interval that its child spans cover (overlapping children count once);
* a span started on a pool worker thread with no open span on that thread is
  attributed, by time interval, to the ``harness.simulate_gains`` call that
  encloses its start;
* ``simulate_gains`` fans its trial blocks out through
  ``harness.ThreadPoolExecutor``; the tracer swaps in a pool that wraps each
  block in a span, whose self time (the policy kernel) is booked to
  ``simulate_gains``.  Self times are therefore thread-seconds.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

SIMULATE = "harness.simulate_gains"
BLOCK = "harness.simulate_gains.block"

# Work counts computed from argument and result shapes (labelled "computed":
# they count what a layer was asked to do, not bytes that crossed a bus).


def _draw_counts(args, kwargs, result):
    n, links, m = result.shape
    return {"bytes_computed": n * links * m * 2 * 8}  # float64 (re, im) normals


def _coloring_counts(args, kwargs, result):
    draws, rows = args[0], args[1]
    n, links, m = draws.shape
    return {"gflop_computed": 2 * 2 * n * links * m * rows.shape[0] / 1e9}


def _ks_counts(args, kwargs, result):
    return {"samples": len(args[0])}


def _write_counts(args, kwargs, result):
    path = args[0]
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".manifest.json")}


#: layer name -> (module, attribute path, kind, work-count hook)
LAYERS = {
    "surface.build_correlation": ("frisec.surface", "build_correlation", "span", None),
    "specfun.bessel_j0": ("frisec.specfun", "bessel_j0", "counter", None),
    "channel.draw_block": ("frisec.channel", "ChannelStream.draw_block", "span", _draw_counts),
    "channel.correlated_images_batch": ("frisec.channel", "correlated_images_batch", "span",
                                        _coloring_counts),
    SIMULATE: ("frisec.harness", "simulate_gains", "span", None),
    "harness.records_for_budget": ("frisec.harness", "records_for_budget", "span", None),
    "harness.estimate_sop": ("frisec.harness", "estimate_sop", "span", None),
    "harness.estimate_asc": ("frisec.harness", "estimate_asc", "span", None),
    "harness.ks_statistic": ("frisec.harness", "ks_statistic", "span", _ks_counts),
    "harness.reference_fits": ("frisec.harness", "reference_fits", "span", None),
    "harness.write_results": ("frisec.harness", "write_results", "span", _write_counts),
    "secrecy.reg_lower_inc_gamma": ("frisec.specfun", "reg_lower_inc_gamma", "counter", None),
    "secrecy.sop_lower_bound": ("frisec.secrecy", "sop_lower_bound", "span", None),
    "secrecy.asc_upper_bound": ("frisec.secrecy", "asc_upper_bound", "span", None),
    "secrecy.sop_lower_oracle": ("frisec.secrecy", "sop_lower_oracle", "span", None),
    "secrecy.asc_oracle": ("frisec.secrecy", "asc_oracle", "span", None),
    "specfun.integrate_semi_infinite": ("frisec.specfun", "integrate_semi_infinite", "span",
                                        None),
    "cli.main": ("frisec.cli", "main", "span", None),
}


class Tracer:
    """Records spans and counters for the layers in LAYERS while installed."""

    def __init__(self):
        self.spans = []  # [name, thread id, start, end, same-thread parent index]
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.main_thread = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_span(self, name, fn, count=None, failures=()):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except failures:
                with self._lock:
                    self.counters[name + ".failures"] += 1
                raise
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                work = count(args, kwargs, result)
                with self._lock:
                    for key, value in work.items():
                        self.counters[f"{name}.{key}"] += value
            return result
        return wrapper

    def wrap_counter(self, name, fn):
        key = name + ".calls"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # only ever called from the main thread, so no lock
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever a frisec module binds it."""
        from frisec.errors import ConvergenceError

        for name, (module_name, path, kind, count) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if kind == "counter":
                wrapped = self.wrap_counter(name, original)
            else:
                wrapped = self.wrap_span(name, original, count, ConvergenceError)
            if outer:  # a method: patch the class
                self._replace(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "frisec" or mod_name.startswith("frisec.")) and \
                        module.__dict__.get(attr) is original:
                    self._replace(module, attr, wrapped)

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                return super().map(tracer.wrap_span(BLOCK, fn), *iterables, **kwargs)

        import frisec.harness
        self._replace(frisec.harness, "ThreadPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- reduction -------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def assign_parents(spans, main_thread) -> list:
    """Parent index of every span.

    A span's parent is the span open on the same thread when it started; a
    worker-thread span with none is attributed to the simulate_gains span
    whose interval contains its start.
    """
    simulate = [(s[2], s[3], i) for i, s in enumerate(spans) if s[0] == SIMULATE]
    parents = []
    for span in spans:
        parent = span[4]
        if parent is None and span[1] != main_thread:
            parent = next((i for start, end, i in simulate if start <= span[2] <= end), None)
        parents.append(parent)
    return parents


def self_times(spans, parents) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent is not None:
            children[parent].append((spans[index][2], spans[index][3]))
    return [s[3] - s[2] - covered_length(children[i], s[2], s[3])
            for i, s in enumerate(spans)]


def _has_ancestor(index, parents, spans, name) -> bool:
    index = parents[index]
    while index is not None:
        if spans[index][0] == name:
            return True
        index = parents[index]
    return False


def layer_metrics(spans, counters, main_thread, workers: int) -> dict:
    """Per-layer calls, self time and work counts, keyed "<layer>.<field>"."""
    parents = assign_parents(spans, main_thread)
    own = self_times(spans, parents)
    out = defaultdict(float, counters)
    for key in [f"{name}.{field}" for name in LAYERS for field in ("calls", "self_s")] + [
            "channel.draw_block.bytes_computed", "channel.correlated_images_batch.gflop_computed",
            "harness.ks_statistic.samples", "harness.write_results.bytes",
            "specfun.integrate_semi_infinite.failures", SIMULATE + ".blocks"]:
        out[key] += 0
    block_busy = 0.0
    simulate_wall = 0.0
    for index, (name, _, start, end, _) in enumerate(spans):
        if name == BLOCK:
            out[SIMULATE + ".self_s"] += own[index]
            block_busy += end - start
            continue
        out[name + ".calls"] += 1
        out[name + ".self_s"] += own[index]
        if name == SIMULATE:
            simulate_wall += end - start
        elif name == "channel.draw_block" and _has_ancestor(index, parents, spans, SIMULATE):
            out[SIMULATE + ".blocks"] += 1
    # The serial path runs its blocks inline: the calling thread is the one
    # worker and is busy for the whole call.
    if block_busy == 0.0:
        block_busy, workers = simulate_wall, 1
    out[SIMULATE + ".worker_busy_ratio"] = (
        block_busy / (workers * simulate_wall) if simulate_wall > 0 else 0.0)
    gemm_s = out["channel.correlated_images_batch.self_s"]
    out["channel.correlated_images_batch.gflop_per_s"] = (
        out["channel.correlated_images_batch.gflop_computed"] / gemm_s if gemm_s > 0 else 0.0)
    return dict(out)
