"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the library's own test run.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hamlab import closing, graph  # noqa: E402
from hamlab.closing import SearchResult  # noqa: E402
from hamlab.graph import Cycle  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    out = bench("--workload", workload, "--quick", "--seconds", "1", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_layer_metrics_are_all_declared():
    tracer = tracing.Tracer()
    computed = tracing.layer_metrics(tracer, 1.0, 1.0, {})
    computed["bench.op_p50_s"] = computed["bench.op_p90_s"] = 0.0
    assert sorted(computed) == sorted(m["name"] for m in SPEC["per_layer"])


def test_corrupted_cycle_is_a_failed_op():
    g = graph.complete(6)
    op = workloads.search_op("k6", g, "heuristic", 1000, 0, expect_cycle=True)
    good = op.call()
    assert good.found
    seq = list(good.cycle.vertices)
    corruptions = [
        seq[:-1],  # drops a vertex
        seq[:-1] + [seq[0]],  # repeats a vertex
    ]
    g_path = graph.path_graph(6)  # no closing edge: every cycle is invalid
    for bad in corruptions:
        fake = workloads.Op("k6", lambda bad=bad: SearchResult(_raw_cycle(bad), None, good.stats),
                            op.check)
        outcomes = run.run_pass([fake])[2]
        assert outcomes[0].failed and outcomes[0].wrong
    on_path = workloads.search_op("p6", g_path, "heuristic", 1000, 0, expect_cycle=True)
    fake = workloads.Op("p6", lambda: SearchResult(Cycle(seq), None, good.stats), on_path.check)
    outcomes = run.run_pass([fake])[2]
    assert outcomes[0].failed and outcomes[0].wrong


def _raw_cycle(vertices):
    """A Cycle object whose vertices skip the constructor's own check."""
    cyc = Cycle.__new__(Cycle)
    cyc.vertices = tuple(vertices)
    return cyc


def test_traced_self_times_are_sound():
    originals = (closing.find_hamilton_cycle, graph.Path.__init__, graph.FAMILIES["gnp"])
    ops = workloads.build("sparse-heuristic", 3, quick=True)
    ops += workloads.build("cli-apps", 3, quick=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert closing.find_hamilton_cycle is not originals[0]
        latencies, _, outcomes = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert (closing.find_hamilton_cycle, graph.Path.__init__, graph.FAMILIES["gnp"]) == originals
    assert not any(o.failed for o in outcomes)
    selfs = tracer.self_times_ns()
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) <= sum(latencies) * 1e9 + 1000
    names = set(selfs)
    for span in ("bench.op", "graph.path_build", "rotation.rotate", "cli.main", "graph.gen"):
        assert span in names


def test_latencies_are_scaled_by_the_measured_slowdown(monkeypatch):
    slowdowns = iter([1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0])
    monkeypatch.setattr(run.reference, "slowdown", lambda: next(slowdowns))
    ops = workloads.build("crosscheck-small", 3, quick=True)[:2]
    latencies, scaled, _ = run.run_pass(ops)
    assert len(scaled) == len(latencies) == 2
    # one group: the mean of the slowdowns before (1.0) and after (3.0) it
    assert scaled == pytest.approx([t / 2.0 for t in latencies])


def test_reference_slowdown_is_positive():
    import reference

    assert reference.slowdown() > 0
