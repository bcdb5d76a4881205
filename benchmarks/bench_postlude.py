"""Benchmark harness for the postlude histogram engines.

Times every registered engine (``repro.core.engines``) on a panel of
synthetic traces plus a few real workload traces, cross-checks that all
engines produce bit-identical histograms, and writes a machine-readable
``BENCH_postlude.json``.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_postlude.py
    PYTHONPATH=src python benchmarks/bench_postlude.py --quick  # CI smoke

Timing and memory sampling go through :mod:`repro.obs` — the same
recorder the pipeline itself is instrumented with (``repro profile``),
so the harness measures exactly what a profiled production run reports.
Timing excludes the prelude: the stripped trace, zero/one sets, the
bigint MRCT (what ``serial`` walks) and, with NumPy, the packed MRCT
(what ``vectorized`` walks — the same one ``auto`` builds) are built once
per trace before the clock starts.

JSON schema (``validate_results`` enforces it)::

    {
      "schema": "repro-bench-postlude/1",
      "python": str, "numpy": str | null, "platform": str,
      "repeats": int,
      "results": [
        {"engine": str,      # concrete engine name
         "trace": str,       # trace name
         "N": int,           # trace length
         "N_prime": int,     # unique addresses (the paper's N')
         "levels": int,      # deepest BCAT level computed
         "wall_s": float,    # best-of-repeats postlude wall time
         "peak_mem": int,    # tracemalloc peak bytes during one run
         "match": bool}      # histograms bit-identical to serial
      ],
      "summary": {
        "largest_synthetic_trace": str,
        "serial_wall_s": float,
        "vectorized_wall_s": float,
        "vectorized_speedup": float   # serial / vectorized
      }
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import engines
from repro.core.vectorized import numpy_available
from repro.obs import NULL_RECORDER, Recorder, environment_info
from repro.trace.synthetic import (
    interleaved_trace,
    loop_nest_trace,
    markov_trace,
    zipf_trace,
)
from repro.trace.trace import Trace

SCHEMA = "repro-bench-postlude/1"

#: Required result-row fields and their types.
RESULT_FIELDS = {
    "engine": str,
    "trace": str,
    "N": int,
    "N_prime": int,
    "levels": int,
    "wall_s": float,
    "peak_mem": int,
    "match": bool,
}


def loop_mix_trace(footprint: int = 512, iterations: int = 150) -> Trace:
    """The panel's largest synthetic trace: four interleaved loop nests.

    Models an embedded steady state — code, data and stack regions each
    looping over their own footprint concurrently.  Loop-dominated and
    periodic, so it exercises the vectorized engine's row dedupe the way
    real firmware would.
    """
    regions = [
        loop_nest_trace(footprint, iterations, start=region << 13)
        for region in range(4)
    ]
    return interleaved_trace(
        regions, name=f"loop-mix-{footprint}x4x{iterations}"
    )


def synthetic_panel(quick: bool = False) -> List[Trace]:
    """Synthetic traces, largest last."""
    def named(trace: Trace, name: str) -> Trace:
        trace.name = name
        return trace

    if quick:
        return [
            named(loop_nest_trace(16, 4), "loop-16x4"),
            named(zipf_trace(400, 64, seed=1), "zipf-400-64"),
            loop_mix_trace(footprint=32, iterations=8),
        ]
    return [
        named(loop_nest_trace(1024, 100), "loop-1024x100"),
        named(zipf_trace(100_000, 800, seed=1), "zipf-100000-800"),
        named(markov_trace(60_000, 1000, locality=0.9, seed=3), "markov-60000-1000"),
        loop_mix_trace(),
    ]


def workload_panel(
    names: Sequence[str] = ("crc", "fir", "ucbqsort"), scale: str = "small"
) -> List[Trace]:
    """Data traces of a few real workload kernels."""
    from repro.workloads import run_workload_by_name

    return [run_workload_by_name(name, scale=scale).data_trace for name in names]


def _time_engine(
    spec: engines.EngineSpec,
    inputs: engines.EngineInputs,
    repeats: int,
    measure_memory: bool,
) -> Tuple[float, int, Dict]:
    """Best-of-``repeats`` wall time, peak bytes, and the histograms.

    Each run attaches a fresh :class:`repro.obs.Recorder` to the inputs;
    the engine's own ``engine:<name>`` phase (recorded by the registry's
    dispatch) is the timed region, so the harness and ``repro profile``
    report the same quantity.
    """
    best = float("inf")
    histograms = None
    try:
        for _ in range(max(1, repeats)):
            recorder = Recorder()
            inputs.recorder = recorder
            histograms = spec.compute(inputs)
            best = min(best, recorder.find(f"engine:{spec.name}").duration_s)
        peak = 0
        if measure_memory:
            recorder = Recorder(memory=True)
            inputs.recorder = recorder
            spec.compute(inputs)
            peak = recorder.memory_stats.get("tracemalloc_peak_bytes", 0)
    finally:
        inputs.recorder = NULL_RECORDER
    return best, peak, histograms


def run_bench(
    traces: Sequence[Trace],
    engine_names: Optional[Sequence[str]] = None,
    repeats: int = 2,
    measure_memory: bool = True,
    largest_synthetic: Optional[str] = None,
) -> Dict:
    """Time the engines on each trace and return the result document."""
    if engine_names is None:
        engine_names = engines.engine_names(include_auto=False)
    results: List[Dict] = []
    wall_by_key: Dict[Tuple[str, str], float] = {}
    for trace in traces:
        inputs = engines.EngineInputs(trace)
        # Build the prelude outside the timed region.
        inputs.mrct
        if numpy_available():
            inputs.packed_mrct
        reference = engines.get_engine("serial").compute(inputs)
        levels = max(reference, default=0)
        for name in engine_names:
            spec = engines.get_engine(name)
            wall, peak, histograms = _time_engine(
                spec, inputs, repeats, measure_memory
            )
            match = histograms == reference
            wall_by_key[(name, trace.name)] = wall
            results.append(
                {
                    "engine": name,
                    "trace": trace.name,
                    "N": len(trace),
                    "N_prime": inputs.stripped.n_unique,
                    "levels": levels,
                    "wall_s": wall,
                    "peak_mem": peak,
                    "match": match,
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
    if largest_synthetic is not None:
        serial = wall_by_key.get(("serial", largest_synthetic))
        vectorized = wall_by_key.get(("vectorized", largest_synthetic))
        if serial is not None and vectorized is not None:
            document["summary"] = {
                "largest_synthetic_trace": largest_synthetic,
                "serial_wall_s": serial,
                "vectorized_wall_s": vectorized,
                "vectorized_speedup": serial / vectorized,
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
    rows = document["results"]
    print(
        f"{'trace':28s} {'engine':10s} {'N':>7s} {'N_prime':>7s} "
        f"{'levels':>6s} {'wall_s':>8s} {'peak_mem':>10s}"
    )
    for row in rows:
        print(
            f"{row['trace']:28s} {row['engine']:10s} {row['N']:7d} "
            f"{row['N_prime']:7d} {row['levels']:6d} {row['wall_s']:8.3f} "
            f"{row['peak_mem']:10d}"
        )
    summary = document.get("summary")
    if summary:
        print(
            f"largest synthetic ({summary['largest_synthetic_trace']}): "
            f"serial {summary['serial_wall_s']:.3f}s, vectorized "
            f"{summary['vectorized_wall_s']:.3f}s -> "
            f"{summary['vectorized_speedup']:.2f}x"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_postlude.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny panel for smoke tests (seconds, not minutes)",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--no-workloads", action="store_true", help="skip the workload traces"
    )
    parser.add_argument(
        "--no-memory", action="store_true", help="skip the tracemalloc pass"
    )
    args = parser.parse_args(argv)

    synthetic = synthetic_panel(quick=args.quick)
    traces = list(synthetic)
    if not args.no_workloads:
        traces += workload_panel(scale="tiny" if args.quick else "small")
    largest = max(synthetic, key=len).name
    document = run_bench(
        traces,
        repeats=args.repeats,
        measure_memory=not args.no_memory,
        largest_synthetic=largest,
    )
    validate_results(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    _print_table(document)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
