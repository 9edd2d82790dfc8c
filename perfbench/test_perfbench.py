"""The benchmark's own tests: span arithmetic, hook tolerance, smoke passes.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import Task  # noqa: E402


def test_union_merges_overlaps_and_clips():
    assert tracing.union_length([(0, 4), (2, 6), (8, 9)], 0, 10) == 7
    assert tracing.union_length([(0, 4), (4, 6)], 0, 10) == 6
    assert tracing.union_length([(-5, 3), (7, 20)], 0, 10) == 6
    assert tracing.union_length([], 0, 10) == 0


def test_self_time_with_children_on_two_threads():
    # parallel_map [0, 100) launches work on threads A and B that overlaps
    # in [30, 60); each worker has a nested child of its own
    spans = [
        Span(1, None, "parallel.parallel_map", "t", "main", 0, 100),
        Span(2, 1, "kernel.kernel_entry", "t", "A", 10, 60),
        Span(3, 1, "kernel.kernel_entry", "t", "B", 30, 80),
        Span(4, 2, "kernel.tau", "t", "A", 20, 30),
        Span(5, 3, "kernel.tau", "t", "B", 40, 45),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 100 - 70       # union [10, 80), not the sum 100
    assert selfs[2] == 50 - 10
    assert selfs[3] == 50 - 5
    assert selfs[4] == 10 and selfs[5] == 5


def test_pool_thread_spans_take_the_launching_parallel_map_as_parent():
    tr = tracing.Tracer()
    leaf = tr.timed("kernel.kernel_entry", lambda x: x * 2)
    from concurrent.futures import ThreadPoolExecutor

    def pmap(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    launcher = tr.timed("parallel.parallel_map", pmap, launcher=True)
    assert tr.task_span("t", lambda: launcher(leaf, range(4))) == [0, 2, 4, 6]
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    (pm,) = by_name["parallel.parallel_map"]
    (root,) = by_name["bench.task"]
    assert pm.parent == root.id
    assert all(s.parent == pm.id and s.task == "t" for s in by_name["kernel.kernel_entry"])


def test_tail_level_leaves_ten_tasks_of_a_pass_beyond_it():
    xs = list(range(1, 31))
    level = run.tail_level(len(xs))
    value = run.quantile(xs, level)
    assert value == 20
    assert sum(x > value for x in xs) == 10
    assert run.tail_level(5) == 1.0
    assert run.quantile([1, 2, 3, 4], 0.5) == 2.5


def test_short_task_repeats_unless_it_touches_a_package_cache(monkeypatch):
    import functools

    import bench_pass
    from kerrdeph import kernel

    runs_seen = []
    _, exc, runs = bench_pass.run_task(Task("free", lambda: runs_seen.append(1), None), None)
    assert exc is None and len(runs) == len(runs_seen) == bench_pass.MAX_RUNS

    monkeypatch.setattr(kernel, "_probe", functools.lru_cache(lambda x: x), raising=False)
    _, exc, runs = bench_pass.run_task(Task("cached", lambda: kernel._probe(1), None), None)
    assert exc is None and len(runs) == 1

    def slow():
        time.sleep(bench_pass.REPEAT_S)
    assert len(bench_pass.run_task(Task("slow", slow, None), None)[2]) == 1


def test_missing_hooks_report_null(monkeypatch):
    from kerrdeph import channel

    monkeypatch.delattr(channel, "_amp_table")
    monkeypatch.setitem(sys.modules, "kerrdeph._parallel", None)
    tr = tracing.install(tracing.Tracer())
    try:
        assert "channel._amp_table" in tr.missing and "parallel" in tr.missing
        out = layers.metrics(tr, 0)
    finally:
        tracing.uninstall(tr)
    assert out["channel.kraus_set.rows_built"] is None
    assert out["channel.kraus_set.useful_ratio"] is None
    assert out["parallel.parallel_map.self_s"] is None
    assert out["parallel.threads"] is None
    assert out["kernel.kernel_matrix.calls"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_pass(workload):
    result = _run(workload, 1)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == layers.PER_LAYER
    assert result["metrics"]["trace.spans"]["value"] > 0
