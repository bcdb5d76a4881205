"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics: one fresh process sets up
and times ``--seconds``; :data:`SETUPS` - 1 more only set up, and
``setup_s`` is the median of all the set-ups, in wall seconds.  The
op metrics are in reference seconds: each op wall is scaled by the
host-speed kernel timed right before it (``common.reference_seconds``),
so the host's speed drift stays out of them.  The raw walls are printed
too.

``--trace 1`` prints the per-layer metrics instead: alternating
untraced and traced measurements, the layer numbers from the traced
ones and the tracing overhead from the difference.

Every line before the last is for people; the last line is the JSON
result.  The exit code is non-zero, with no result printed, when the
program cannot run (for example, when ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    MIN_OPS,
    PERCENTILES,
    hygiene_problems,
    percentile,
    reference_seconds,
    samples_beyond,
)
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Untraced/traced measurement pairs per traced run.
TRACE_PAIRS = 2

#: Wall-clock cap on one child process.
CHILD_TIMEOUT = 150

WORK_DIR = ".perfbench-work"

#: ``per_layer`` metric -> span name whose busy time per op it reports.
LAYER_TIMES = {
    "trace.read_s": "trace.read",
    "trace.statistics_s": "trace.statistics",
    "prelude.strip_s": "prelude.strip",
    "prelude.zerosets_s": "prelude.zerosets",
    "prelude.packed_mrct_s": "prelude.packed_mrct",
    "prelude.mrct_s": "prelude.mrct",
    "postlude.serial_s": "postlude.serial",
    "postlude.vectorized_s": "postlude.vectorized",
    "postlude.optimal_pairs_s": "postlude.optimal_pairs",
    "request.explore_s": "request.explore",
    "store.put_s": "store.put",
    "store.prune_s": "store.prune",
    "store.get_s": "store.get",
    "serve.client_encode_s": "serve.client_encode",
    "serve.roundtrip_s": "serve.roundtrip",
    "serve.key_s": "serve.key",
    "serve.decode_s": "serve.decode",
    "serve.execute_s": "serve.execute",
    "serve.encode_s": "serve.encode",
    "stream.append_s": "stream.append",
    "stream.explore_s": "stream.explore",
    "stream.checkpoint_s": "stream.checkpoint",
}

#: ``per_layer`` metric -> ``(span count, unit)`` reported per op.
LAYER_COUNTS = {
    "prelude.conflict_sets": ("conflict_sets", "1/op"),
    "prelude.packed_rows": ("packed_rows", "1/op"),
    "engines.auto_serial": ("auto_serial", "1/op"),
    "engines.auto_vectorized": ("auto_vectorized", "1/op"),
    "store.bytes_written": ("bytes_written", "B/op"),
    "store.bytes_read": ("bytes_read", "B/op"),
    "store.hits": ("hits", "1/op"),
    "store.misses": ("misses", "1/op"),
    "stream.refs": ("refs", "1/op"),
}


def _spawn(
    args: argparse.Namespace,
    work: str,
    tag: str,
    seconds: float,
    min_ops: int,
    span_dir: Optional[str] = None,
    setup_only: bool = False,
) -> Dict:
    """Run ``child.py`` in a fresh interpreter; returns its result."""
    workdir = os.path.join(work, tag)
    os.makedirs(workdir)
    out = os.path.join(work, f"{tag}.json")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--min-ops", str(min_ops),
        "--workdir", workdir, "--out", out,
    ]
    if span_dir is not None:
        command += ["--span-dir", span_dir]
    if setup_only:
        command.append("--setup-only")
    env = os.environ.copy()
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command += ["--t0", repr(time.monotonic())]
    # The child leads its own process group, so the daemon and pool
    # worker it may start are stopped with it, whatever way it ends.
    child = subprocess.Popen(
        command, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        returncode = child.wait(timeout=CHILD_TIMEOUT)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, command)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _reference_latencies(measured: Dict) -> List[float]:
    """Op walls in reference seconds."""
    return [
        reference_seconds(wall, kernel)
        for wall, kernel in zip(measured["latencies"], measured["kernel_s"])
    ]


def end_to_end(args: argparse.Namespace, work: str) -> Tuple[Dict, Dict, Dict]:
    """Time ``--seconds`` in one fresh process, after :data:`SETUPS` - 1
    set-up-only processes.

    Returns ``(result, metrics, sample counts)``.
    """
    setups = [
        _spawn(args, work, f"setup-{i}", 0.0, 0, setup_only=True)["setup_s"]
        for i in range(SETUPS - 1)
    ]
    measured = _spawn(args, work, "measure", args.seconds, MIN_OPS)
    setups.append(measured["setup_s"])
    latencies = _reference_latencies(measured)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        "refs_per_s": {
            "value": sum(measured["refs"]) / sum(latencies), "unit": "1/s"
        },
    }
    samples = {}
    for p in PERCENTILES:
        name = f"latency_p{p}_s"
        metrics[name] = {"value": percentile(latencies, p), "unit": "s"}
        samples[name] = len(latencies)
    walls = measured["latencies"]
    print(
        f"wall: setup_s {', '.join(f'{s:.3f}' for s in setups)}; "
        f"refs_per_s {sum(measured['refs']) / sum(walls):.1f}, "
        f"latency_p50_s {percentile(walls, 50):.6f}, "
        f"latency_p90_s {percentile(walls, 90):.6f}; "
        f"host-speed kernel median {statistics.median(measured['kernel_s']):.6f} s"
    )
    return measured, metrics, samples


def per_layer(args: argparse.Namespace, work: str) -> Tuple[List[Dict], Dict]:
    """Alternate untraced and traced measurements; returns
    ``(results, metrics)``.

    :data:`TRACE_PAIRS` pairs each time ``seconds / TRACE_PAIRS`` on the
    same inputs, in alternating order, which keeps the host's speed drift
    and any first-or-second effect out of the tracing overhead as far as
    it can.
    """
    import tracing

    plain, traced = [], []
    busy, self_time, counts = Counter(), Counter(), Counter()
    for pair in range(TRACE_PAIRS):
        seconds = args.seconds / TRACE_PAIRS
        min_ops = math.ceil(MIN_OPS / TRACE_PAIRS)
        span_dir = os.path.join(work, f"spans-{pair}")
        os.makedirs(span_dir)
        for kind in ("plain", "traced") if pair % 2 == 0 else ("traced", "plain"):
            if kind == "plain":
                plain.append(_spawn(args, work, f"plain-{pair}", seconds, min_ops))
            else:
                traced.append(
                    _spawn(args, work, f"traced-{pair}", seconds, min_ops, span_dir)
                )
        for total, part in zip(
            (busy, self_time, counts),
            tracing.summarize(
                tracing.load_spans(span_dir), tuple(traced[-1]["window"])
            ),
        ):
            total.update(part)
    traced_ops = [value for result in traced for value in result["latencies"]]
    traced_refs = [value for result in traced for value in result["refs"]]
    traced_reference = [v for result in traced for v in _reference_latencies(result)]
    plain_refs = [value for result in plain for value in result["refs"]]
    plain_reference = [v for result in plain for v in _reference_latencies(result)]
    extras = Counter()
    for result in traced:
        extras.update(result["extras"])
    ops = len(traced_ops)
    metrics = {}
    for metric, span in LAYER_TIMES.items():
        metrics[metric] = {"value": busy.get(span, 0.0) / ops, "unit": "s/op"}
    metrics["request.self_s"] = {
        "value": self_time.get("request.explore", 0.0) / ops, "unit": "s/op"
    }
    for metric, (key, unit) in LAYER_COUNTS.items():
        metrics[metric] = {"value": counts.get(key, 0) / ops, "unit": unit}
    packed = counts.get("packed_conflict_sets", 0)
    metrics["prelude.dedup_ratio"] = {
        "value": counts.get("packed_rows", 0) / packed if packed else 0.0,
        "unit": "ratio",
    }
    lookups = counts.get("hits", 0) + counts.get("misses", 0)
    metrics["store.hit_ratio"] = {
        "value": counts.get("hits", 0) / lookups if lookups else 0.0,
        "unit": "ratio",
    }
    for key in ("requests", "computations", "dedup_hits"):
        metrics[f"serve.{key}"] = {"value": extras[key] / ops, "unit": "1/op"}
    metrics["stream.unique_refs"] = {
        "value": extras["unique_refs"] / TRACE_PAIRS, "unit": "count"
    }
    untraced_rate = sum(plain_refs) / sum(plain_reference)
    traced_rate = sum(traced_refs) / sum(traced_reference)
    metrics["tracing.overhead_refs_per_s"] = {
        "value": traced_rate - untraced_rate, "unit": "1/s"
    }
    op_wall = sum(traced_ops) / ops
    print(f"traced ops: {ops}; mean op wall {op_wall:.6f} s")
    print(
        f"refs_per_s untraced {untraced_rate:.1f}, traced {traced_rate:.1f} "
        f"({(traced_rate - untraced_rate) / untraced_rate:+.1%})"
    )
    print("span                      busy s/op    self s/op   share of op wall")
    for name in sorted(busy):
        print(
            f"{name:24s} {busy[name] / ops:11.6f} {self_time[name] / ops:11.6f}"
            f" {busy[name] / ops / op_wall:10.1%}"
        )
    return plain + traced, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, leave through the ``finally`` blocks that stop the
    # children and remove the work dir.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    work = os.path.abspath(os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    try:
        if args.trace:
            results, metrics = per_layer(args, work)
            problems = hygiene_problems(metrics, {}, distinct=False)
        else:
            measured, metrics, samples = end_to_end(args, work)
            results = [measured]
            problems = hygiene_problems(metrics, samples)
            for p in PERCENTILES:
                count = samples[f"latency_p{p}_s"]
                print(f"latency_p{p}_s: n={count}, {samples_beyond(count, p)} beyond")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    if problems:
        print("perfbench: metric hygiene failed:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 1
    answer_problems = [p for result in results for p in result["problems"]]
    for problem in answer_problems:
        print(f"answer check: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(json.dumps({
        "correct": failed == 0 and not answer_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
