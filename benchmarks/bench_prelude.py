"""Benchmark harness for the prelude pipelines (python vs fast kernels).

Times the cold end-to-end pipeline — strip, zero/one sets, conflict
table, postlude — twice per trace: once with the paper-faithful python
builders feeding the vectorized postlude through ``pack_mrct`` (the
pre-fast-prelude baseline), and once with the fast NumPy kernels feeding the fused packed
postlude (``repro.core.prelude_fast``).  Cross-checks that both
pipelines produce bit-identical histograms against the serial reference
engine, and writes a machine-readable ``BENCH_prelude.json``.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_prelude.py
    PYTHONPATH=src python benchmarks/bench_prelude.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_prelude.py --quick --assert-speedup 2

Without NumPy only the python pipeline is timed (and ``--assert-speedup``
refuses to run): the fast pipeline's packed bit-matrix is NumPy-native.

JSON schema (``validate_results`` enforces it)::

    {
      "schema": "repro-bench-prelude/1",
      "python": str, "numpy": str | null, "platform": str,
      "repeats": int,
      "results": [
        {"pipeline": "python" | "fast",
         "trace": str,       # trace name
         "N": int,           # trace length
         "N_prime": int,     # unique addresses (the paper's N')
         "strip_s": float,   # stage wall times from the best total run
         "zerosets_s": float,
         "mrct_s": float,    # build_mrct or build_packed_mrct
         "postlude_s": float,
         "total_s": float,   # sum of the four stages, best of repeats
         "match": bool}      # histograms bit-identical to the serial engine
      ],
      "summary": {
        "target_trace": str,           # the ISSUE's headline trace
        "speedups": {trace: float}     # python total / fast total
      }
    }
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.postlude import compute_level_histograms
from repro.core.prelude_fast import build_packed_mrct
from repro.core.mrct import build_mrct
from repro.core.vectorized import (
    compute_level_histograms_packed,
    compute_level_histograms_vectorized,
    numpy_available,
)
from repro.core.zerosets import build_zero_one_sets, build_zero_one_sets_numpy
from repro.obs import environment_info
from repro.trace.strip import strip_trace, strip_trace_numpy
from repro.trace.synthetic import loop_nest_trace, zipf_trace
from repro.trace.trace import Trace

SCHEMA = "repro-bench-prelude/1"

#: Required result-row fields and their types.
RESULT_FIELDS = {
    "pipeline": str,
    "trace": str,
    "N": int,
    "N_prime": int,
    "strip_s": float,
    "zerosets_s": float,
    "mrct_s": float,
    "postlude_s": float,
    "total_s": float,
    "match": bool,
}

#: Stage timing keys, in pipeline order.
STAGES = ("strip_s", "zerosets_s", "mrct_s", "postlude_s")


def synthetic_panel(quick: bool = False) -> List[Trace]:
    """The ISSUE's two headline traces (tiny stand-ins under ``--quick``)."""
    def named(trace: Trace, name: str) -> Trace:
        trace.name = name
        return trace

    if quick:
        return [
            named(loop_nest_trace(256, 30), "loop-256x30"),
            named(zipf_trace(4000, 300, seed=1), "zipf-4000-300"),
        ]
    return [
        named(loop_nest_trace(1024, 100), "loop-1024x100"),
        named(zipf_trace(100_000, 800, seed=1), "zipf-100000-800"),
    ]


def _run_python_pipeline(trace: Trace) -> Tuple[Dict[str, float], Dict]:
    """One cold python-prelude run: stage wall times and the histograms.

    The postlude is the vectorized walk over the packed bigint MRCT when
    NumPy is available (what ``prelude="python"`` runs), else the serial
    reference.
    """
    times: Dict[str, float] = {}
    start = time.perf_counter()
    stripped = strip_trace(trace)
    times["strip_s"] = time.perf_counter() - start
    start = time.perf_counter()
    zerosets = build_zero_one_sets(stripped)
    times["zerosets_s"] = time.perf_counter() - start
    start = time.perf_counter()
    mrct = build_mrct(stripped)
    times["mrct_s"] = time.perf_counter() - start
    start = time.perf_counter()
    if numpy_available():
        histograms = compute_level_histograms_vectorized(zerosets, mrct)
    else:
        histograms = compute_level_histograms(zerosets, mrct)
    times["postlude_s"] = time.perf_counter() - start
    return times, histograms


def _run_fast_pipeline(trace: Trace) -> Tuple[Dict[str, float], Dict]:
    """One cold fast-prelude run: NumPy kernels fused into the packed postlude."""
    times: Dict[str, float] = {}
    start = time.perf_counter()
    stripped = strip_trace_numpy(trace)
    times["strip_s"] = time.perf_counter() - start
    # The packed walk reads its keys from the packed MRCT: the fast
    # pipeline builds no zero/one sets.
    times["zerosets_s"] = 0.0
    start = time.perf_counter()
    packed = build_packed_mrct(stripped)
    times["mrct_s"] = time.perf_counter() - start
    start = time.perf_counter()
    histograms = compute_level_histograms_packed(packed)
    times["postlude_s"] = time.perf_counter() - start
    return times, histograms


def _best_of(
    runner: Callable[[Trace], Tuple[Dict[str, float], Dict]],
    trace: Trace,
    repeats: int,
) -> Tuple[Dict[str, float], Dict]:
    """Stage times from the repeat with the smallest total, plus histograms."""
    best_times: Optional[Dict[str, float]] = None
    histograms = None
    for _ in range(max(1, repeats)):
        times, histograms = runner(trace)
        if best_times is None or sum(times.values()) < sum(best_times.values()):
            best_times = times
    assert best_times is not None
    return best_times, histograms


def run_bench(
    traces: Sequence[Trace],
    repeats: int = 2,
    target_trace: Optional[str] = None,
) -> Dict:
    """Time both pipelines on each trace and return the result document."""
    pipelines: List[Tuple[str, Callable]] = [("python", _run_python_pipeline)]
    if numpy_available():
        pipelines.append(("fast", _run_fast_pipeline))
    else:
        print(
            "  [skip] fast pipeline (NumPy not importable)", file=sys.stderr
        )
    results: List[Dict] = []
    totals: Dict[Tuple[str, str], float] = {}
    for trace in traces:
        stripped = strip_trace(trace)
        reference = compute_level_histograms(
            build_zero_one_sets(stripped), build_mrct(stripped)
        )
        for name, runner in pipelines:
            times, histograms = _best_of(runner, trace, repeats)
            total = sum(times[stage] for stage in STAGES)
            totals[(name, trace.name)] = total
            results.append(
                {
                    "pipeline": name,
                    "trace": trace.name,
                    "N": len(trace),
                    "N_prime": stripped.n_unique,
                    **{stage: times[stage] for stage in STAGES},
                    "total_s": total,
                    "match": histograms == reference,
                }
            )
    environment = environment_info()
    document = {
        "schema": SCHEMA,
        "python": environment["python"],
        "numpy": environment["numpy"],
        "platform": environment["platform"],
        "repeats": repeats,
        "results": results,
    }
    speedups = {
        trace.name: totals[("python", trace.name)] / totals[("fast", trace.name)]
        for trace in traces
        if ("fast", trace.name) in totals
    }
    if speedups:
        document["summary"] = {
            "target_trace": target_trace or max(traces, key=len).name,
            "speedups": speedups,
        }
    return document


def validate_results(document: Dict) -> None:
    """Raise ``ValueError`` unless ``document`` matches the schema above.

    Delegates to the unified registry in :mod:`repro.sweep.schema`, so
    every bench document validates through exactly one code path (CI
    round-trips each committed ``BENCH_*.json`` against the same
    registry).
    """
    from repro.sweep.schema import validate_bench

    validate_bench(document, expect=SCHEMA)


def _print_table(document: Dict) -> None:
    print(
        f"{'trace':20s} {'pipeline':8s} {'N':>7s} {'N_prime':>7s} "
        f"{'strip':>7s} {'zsets':>7s} {'mrct':>7s} {'post':>7s} {'total':>7s}"
    )
    for row in document["results"]:
        print(
            f"{row['trace']:20s} {row['pipeline']:8s} {row['N']:7d} "
            f"{row['N_prime']:7d} {row['strip_s']:7.3f} {row['zerosets_s']:7.3f} "
            f"{row['mrct_s']:7.3f} {row['postlude_s']:7.3f} {row['total_s']:7.3f}"
        )
    summary = document.get("summary")
    if summary:
        for trace, speedup in summary["speedups"].items():
            marker = " (target)" if trace == summary["target_trace"] else ""
            print(f"speedup on {trace}: {speedup:.2f}x{marker}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_prelude.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny panel for smoke tests (seconds, not minutes)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="exit non-zero unless the fast pipeline beats the python "
        "pipeline by at least X on the loop trace",
    )
    args = parser.parse_args(argv)

    if args.assert_speedup and not numpy_available():
        print("--assert-speedup needs NumPy for the fast pipeline", file=sys.stderr)
        return 2
    traces = synthetic_panel(quick=args.quick)
    target = traces[0].name  # the loop trace leads the panel
    document = run_bench(traces, repeats=args.repeats, target_trace=target)
    validate_results(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    _print_table(document)
    print(f"wrote {args.output}")
    if args.assert_speedup:
        speedup = document["summary"]["speedups"][target]
        if speedup < args.assert_speedup:
            print(
                f"FAIL: fast pipeline only {speedup:.2f}x faster than python "
                f"on {target} (need >= {args.assert_speedup:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup assertion passed: {speedup:.2f}x >= "
            f"{args.assert_speedup:.2f}x on {target}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
