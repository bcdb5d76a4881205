"""Benchmark harness for the exploration daemon.

Boots an in-process :class:`repro.serve.server.ExploreServer` (thread
worker pool, artifact store on a temp root), then drives it over real
HTTP with a mixed cold/warm request schedule:

* a **cold** pass submits every unique request once, sequentially —
  each one pays the full exploration pipeline plus the store writes;
* a **warm** burst submits the remaining requests (shuffled repeats of
  the unique set) from several client threads at once — each one should
  be answered out of the artifact store, so the measured latency is the
  service overhead: HTTP framing, protocol decode, dedup keying, pool
  dispatch, and the store read.

Every warm response is cross-checked against the cold response for the
same request; any divergence, transport failure, or non-200 counts as
an error and fails the run.  The headline number is the warm-path p99
latency; the acceptance bar is ``<= 0.5 s`` with **zero** errors.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --quick  # CI smoke

JSON schema (``validate_results`` enforces it)::

    {
      "schema": "repro-bench-serve/1",
      "python": str, "numpy": str | null, "platform": str,
      "config": {
        "total_requests": int, "unique_requests": int,
        "client_threads": int, "workers": int, "pool": str
      },
      "results": {
        "cold": {"count": int, "p50_s": float, "p95_s": float,
                 "p99_s": float, "max_s": float},
        "warm": {"count": int, "p50_s": float, "p95_s": float,
                 "p99_s": float, "max_s": float},
        "errors": int,
        "server": {"requests_total": int, "computations_total": int,
                   "dedup_hits_total": int, "store_hits_total": int,
                   "store_misses_total": int}
      },
      "summary": {
        "warm_p99_s": float, "threshold_s": 0.5,
        "errors": int, "pass": bool
      }
    }
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.request import ExplorationRequest
from repro.obs import environment_info
from repro.scenario import ScenarioSpec
from repro.serve import ExploreServer, ServeClient, ServeError, WorkerPool
from repro.serve.protocol import request_to_wire
from repro.trace.synthetic import markov_trace, zipf_trace

SCHEMA = "repro-bench-serve/1"

#: The acceptance bar: warm-path p99 latency must stay under this.
WARM_P99_THRESHOLD_S = 0.5

#: Required fields of each latency-phase block.
PHASE_FIELDS = ("count", "p50_s", "p95_s", "p99_s", "max_s")

#: Required fields of the server-metrics block.
SERVER_FIELDS = (
    "requests_total",
    "computations_total",
    "dedup_hits_total",
    "store_hits_total",
    "store_misses_total",
)


def request_panel(unique: int) -> List[Dict]:
    """``unique`` distinct wire requests over seeded synthetic traces."""
    documents = []
    for index in range(unique):
        if index % 2 == 0:
            trace = zipf_trace(2_000, 150, seed=index + 1)
        else:
            trace = markov_trace(1_500, 120, locality=0.85, seed=index + 1)
        trace.name = f"bench-serve-{index}"
        request = ExplorationRequest(
            traces=(trace,),
            mode="single",
            budgets=(0, 1 + index % 3),
            scenario=ScenarioSpec(engine="auto"),
        )
        documents.append(request_to_wire(request))
    return documents


class _Harness:
    """An in-process daemon on an ephemeral port, store-backed."""

    def __init__(self, workers: int, store_root: Path) -> None:
        self.pool = WorkerPool(workers=workers, kind="thread", store_root=store_root)
        self.server = ExploreServer(self.pool, port=0, latency_seed=1234)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, name="bench-serve", daemon=True)
        self.thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("bench server failed to start")

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.server.port, timeout=600.0)

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=True, timeout=30.0), self.loop
        )
        future.result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-quantile * len(sorted_values) // 1)))  # ceil
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def _phase_stats(latencies: Sequence[float]) -> Dict:
    ordered = sorted(latencies)
    return {
        "count": len(ordered),
        "p50_s": _percentile(ordered, 0.50),
        "p95_s": _percentile(ordered, 0.95),
        "p99_s": _percentile(ordered, 0.99),
        "max_s": float(ordered[-1]) if ordered else 0.0,
    }


def _comparable(response: Dict) -> Dict:
    """A response stripped of run-local noise (store stats, manifest)."""
    report = dict(response.get("report", {}))
    report.pop("store", None)
    return report


def run_bench(
    total: int,
    unique: int,
    client_threads: int,
    workers: int,
    threshold: float = WARM_P99_THRESHOLD_S,
) -> Dict:
    """Drive the daemon with ``total`` requests; return the result doc."""
    if total < unique:
        raise ValueError("total must be >= unique")
    documents = request_panel(unique)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
    harness = _Harness(workers=workers, store_root=root / "store")
    errors = 0
    baselines: List[Dict] = []
    cold_latencies: List[float] = []
    warm_latencies: List[float] = []
    try:
        client = harness.client()
        for document in documents:
            start = time.perf_counter()
            response = client.explore_wire(document)
            cold_latencies.append(time.perf_counter() - start)
            baselines.append(_comparable(response))
        print(
            f"  cold: {len(documents)} unique requests, "
            f"p99 {_phase_stats(cold_latencies)['p99_s']:.3f}s",
            file=sys.stderr,
        )

        schedule = [index % unique for index in range(total - unique)]
        random.Random(20260808).shuffle(schedule)
        lock = threading.Lock()

        def submit(index: int) -> None:
            nonlocal errors
            worker_client = harness.client()
            try:
                start = time.perf_counter()
                response = worker_client.explore_wire(documents[index])
                elapsed = time.perf_counter() - start
                matched = _comparable(response) == baselines[index]
            except ServeError:
                with lock:
                    errors += 1
                return
            with lock:
                warm_latencies.append(elapsed)
                if not matched:
                    errors += 1

        with ThreadPoolExecutor(max_workers=client_threads) as executor:
            list(executor.map(submit, schedule))
        warm = _phase_stats(warm_latencies)
        print(
            f"  warm: {warm['count']} requests over {client_threads} threads, "
            f"p99 {warm['p99_s']:.3f}s, errors {errors}",
            file=sys.stderr,
        )

        metrics = client.metrics()
        server_stats = {
            "requests_total": int(metrics.get("serve_requests_total", 0)),
            "computations_total": int(metrics.get("serve_computations_total", 0)),
            "dedup_hits_total": int(metrics.get("serve_dedup_hits_total", 0)),
            "store_hits_total": int(metrics.get("serve_store_hits_total", 0)),
            "store_misses_total": int(metrics.get("serve_store_misses_total", 0)),
        }
    finally:
        harness.stop()
        shutil.rmtree(root, ignore_errors=True)

    environment = environment_info()
    return {
        "schema": SCHEMA,
        "python": environment["python"],
        "numpy": environment["numpy"],
        "platform": environment["platform"],
        "config": {
            "total_requests": total,
            "unique_requests": unique,
            "client_threads": client_threads,
            "workers": workers,
            "pool": "thread",
        },
        "results": {
            "cold": _phase_stats(cold_latencies),
            "warm": warm,
            "errors": errors,
            "server": server_stats,
        },
        "summary": {
            "warm_p99_s": warm["p99_s"],
            "threshold_s": threshold,
            "errors": errors,
            "pass": errors == 0 and warm["p99_s"] <= threshold,
        },
    }


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
    results = document["results"]
    print(f"{'phase':8s} {'count':>6s} {'p50_s':>8s} {'p95_s':>8s} {'p99_s':>8s} {'max_s':>8s}")
    for phase in ("cold", "warm"):
        block = results[phase]
        print(
            f"{phase:8s} {block['count']:6d} {block['p50_s']:8.4f} "
            f"{block['p95_s']:8.4f} {block['p99_s']:8.4f} {block['max_s']:8.4f}"
        )
    server = results["server"]
    print(
        f"server: {server['requests_total']} requests, "
        f"{server['computations_total']} computations, "
        f"{server['dedup_hits_total']} dedup hits, "
        f"store {server['store_hits_total']}h/{server['store_misses_total']}m"
    )
    summary = document["summary"]
    verdict = "PASS" if summary["pass"] else "FAIL"
    print(
        f"warm p99 {summary['warm_p99_s']:.4f}s "
        f"(threshold {summary['threshold_s']:.2f}s), "
        f"errors {summary['errors']} -> {verdict}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_serve.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small schedule for smoke tests (seconds, not minutes)",
    )
    parser.add_argument("--total", type=int, default=None, help="total requests")
    parser.add_argument("--unique", type=int, default=None, help="distinct requests")
    parser.add_argument("--client-threads", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4, help="server worker pool size")
    parser.add_argument(
        "--warm-p99", type=float, default=WARM_P99_THRESHOLD_S,
        help="warm-path p99 acceptance bar in seconds",
    )
    args = parser.parse_args(argv)

    total = args.total if args.total is not None else (60 if args.quick else 240)
    unique = args.unique if args.unique is not None else (6 if args.quick else 12)
    document = run_bench(
        total=total,
        unique=unique,
        client_threads=args.client_threads,
        workers=args.workers,
        threshold=args.warm_p99,
    )
    validate_results(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    _print_table(document)
    print(f"wrote {args.output}")
    return int(not document["summary"]["pass"])


if __name__ == "__main__":
    sys.exit(main())
