"""Tests of the benchmark itself: the self-time arithmetic and a smoke run of
every workload.  Kept out of the tier-1 suite (pytest collects ``tests/``);
run with ``python -m pytest benchmarks``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import C1_RATIOS, check_oracles
from tracer import BLOCK, SIMULATE, assign_parents, covered_length, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
MAIN, WORKER = 1, 2


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.2, 0.4), (0.3, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.4)
    assert covered_length([(-1.0, 0.25), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.35)
    assert covered_length([(0.6, 0.6), (0.8, 0.7)], 0.0, 1.0) == 0.0


def test_self_time_is_span_minus_covered_children():
    spans = [
        ["cli.main", MAIN, 0.0, 10.0, None],
        [SIMULATE, MAIN, 1.0, 5.0, 0],
        ["channel.draw_block", MAIN, 1.0, 2.0, 1],
        ["channel.correlated_images_batch", MAIN, 2.0, 2.5, 1],
        ["harness.ks_statistic", MAIN, 6.0, 7.0, 0],
    ]
    parents = assign_parents(spans, MAIN)
    assert parents == [None, 0, 1, 1, 0]
    assert self_times(spans, parents) == pytest.approx([5.0, 2.5, 1.0, 0.5, 1.0])


def test_worker_spans_attach_to_enclosing_simulate_by_interval():
    spans = [
        [SIMULATE, MAIN, 0.0, 4.0, None],
        [BLOCK, WORKER, 0.5, 2.5, None],          # no open span on the worker
        ["channel.draw_block", WORKER, 0.5, 1.5, 1],
        [BLOCK, WORKER + 1, 1.0, 3.0, None],
        ["channel.draw_block", WORKER + 1, 1.0, 1.5, 3],
        [SIMULATE, MAIN, 5.0, 6.0, None],
    ]
    parents = assign_parents(spans, MAIN)
    assert parents == [None, 0, 1, 0, 3, None]
    own = self_times(spans, parents)
    # the two blocks cover [0.5, 3.0] of the first call once, not twice
    assert own[0] == pytest.approx(4.0 - 2.5)
    metrics = layer_metrics(spans, {}, MAIN, workers=2)
    # kernel time inside blocks (1.0 + 1.5) is booked to simulate_gains
    assert metrics[SIMULATE + ".self_s"] == pytest.approx(1.5 + 2.5 + 1.0)
    assert metrics[SIMULATE + ".blocks"] == 2
    assert metrics[SIMULATE + ".calls"] == 2
    assert metrics[SIMULATE + ".worker_busy_ratio"] == pytest.approx(4.0 / (2 * 5.0))


def _oracle_row(ratio, sop_oracle, sop_bound=None, shape=2.0):
    closed = (1.0 + ratio) ** -shape
    return {"avg_snr_bob_db": 0.0, "shape": shape, "ratio": ratio,
            "sop_bound": closed if sop_bound is None else sop_bound,
            "sop_oracle": sop_oracle, "asc_bound": 1.0, "asc_oracle": 1.0}


def test_sop_oracle_misses_are_graded_only_on_c1_ratios():
    inside, below = 0.3, 1e-5
    assert C1_RATIOS[0] <= inside <= C1_RATIOS[1] and below < C1_RATIOS[0]
    verdicts, findings = check_oracles([_oracle_row(inside, 1.0), _oracle_row(below, 1.0)])
    # inside: closed form, oracle (off), capacity; below: closed form, capacity
    assert [v is None for v in verdicts] == [True, False, True, True, True]
    assert len(findings) == 1 and "below acceptance C1" in findings[0]


def test_closed_form_is_graded_at_every_ratio():
    verdicts, findings = check_oracles([_oracle_row(1e-5, 1.0, sop_bound=1.0)])
    assert verdicts[0] is not None and verdicts[1] is None
    assert len(findings) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--trials", "1024"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert isinstance(final["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1]), f"{m['name']} not printed with its unit"
