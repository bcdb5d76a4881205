"""Self-tests of the benchmark's metric hygiene and bookkeeping.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from common import (  # noqa: E402
    REFERENCE_KERNEL_S,
    host_kernel_s,
    hygiene_problems,
    percentile,
    reference_seconds,
    samples_beyond,
)


def _metrics(**values):
    return {name: {"value": value, "unit": "s"} for name, value in values.items()}


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9


def test_clean_metrics_pass():
    metrics = _metrics(latency_p50_s=0.1, latency_p90_s=0.2, setup_s=1.5)
    samples = {"latency_p50_s": 100, "latency_p90_s": 100}
    assert hygiene_problems(metrics, samples) == []


def test_copied_metric_is_caught():
    metrics = _metrics(latency_p50_s=0.1, append_p50_s=0.1)
    samples = {"latency_p50_s": 100, "append_p50_s": 100}
    assert any("copies" in p for p in hygiene_problems(metrics, samples))


def test_percentile_needs_count_and_tail():
    metrics = _metrics(latency_p90_s=0.2, latency_p99_s=0.3)
    problems = hygiene_problems(metrics, {"latency_p90_s": 100, "latency_p99_s": 300})
    assert any("latency_p99_s" in p and "beyond" in p for p in problems)
    problems = hygiene_problems(_metrics(latency_p90_s=0.2), {})
    assert any("no sample count" in p for p in problems)


def test_missing_unit_is_caught():
    metrics = {"refs_per_s": {"value": 10.0, "unit": ""}}
    assert any("no unit" in p for p in hygiene_problems(metrics, {}))


def test_an_op_that_raises_adds_no_sample():
    workload = workloads.SessionStream("unused", 1, None)

    def broken():
        raise RuntimeError("broken")

    assert workload._timed(lambda: "answer", 7) == "answer"
    assert workload._timed(broken, 9) is None
    assert workload.attempted == 2
    assert workload.refs == [7]
    assert len(workload.latencies) == 1
    assert len(workload.kernel_s) == 1


def test_walls_are_scaled_by_the_host_kernel():
    assert reference_seconds(0.3, REFERENCE_KERNEL_S) == 0.3
    assert abs(reference_seconds(0.3, 2 * REFERENCE_KERNEL_S) - 0.15) < 1e-12
    measured = {
        "latencies": [0.1, 0.4],
        "kernel_s": [REFERENCE_KERNEL_S / 2, 4 * REFERENCE_KERNEL_S],
    }
    assert [round(v, 12) for v in run._reference_latencies(measured)] == [0.2, 0.1]
    assert 0 < host_kernel_s() < 1


def test_declared_metrics_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    produced = set(run.LAYER_TIMES) | set(run.LAYER_COUNTS) | {
        "request.self_s", "prelude.dedup_ratio", "store.hit_ratio",
        "serve.requests", "serve.computations", "serve.dedup_hits",
        "stream.unique_refs", "tracing.overhead_refs_per_s",
    }
    assert set(per_layer) == produced
    for metric in run.LAYER_TIMES:
        assert per_layer[metric] == "s/op"
    for metric, (_, unit) in run.LAYER_COUNTS.items():
        assert per_layer[metric] == unit
    names = [m["name"] for m in declared["end_to_end"]]
    assert names == ["setup_s", "peak_rss_mb", "refs_per_s", "latency_p50_s", "latency_p90_s"]


def test_summarize_counts_nested_spans_once():
    spans = [
        ["request.explore", 0.0, 10.0, -1, None],
        ["prelude.mrct", 1.0, 5.0, 0, {"conflict_sets": 7}],
        ["prelude.mrct", 2.0, 4.0, 1, {"conflict_sets": 7}],
        ["store.put", 6.0, 9.0, 0, {"bytes_written": 100}],
        ["store.put", 20.0, 21.0, -1, {"bytes_written": 100}],
    ]
    busy, self_time, counts = tracing.summarize([spans], (0.0, 15.0))
    assert busy == {"request.explore": 10.0, "prelude.mrct": 4.0, "store.put": 3.0}
    assert self_time["request.explore"] == 3.0
    assert counts == {"conflict_sets": 7, "bytes_written": 100}


def test_refuses_to_run_without_the_program(tmp_path):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cold-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_short_run_prints_a_clean_result():
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "session-stream",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    assert set(result["metrics"]) == {
        "setup_s", "peak_rss_mb", "refs_per_s", "latency_p50_s", "latency_p90_s"
    }
    assert any(line.startswith("latency_p90_s: n=") for line in lines)
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-work"))
