"""repro — Analytical Design Space Exploration of Caches for Embedded Systems.

A complete reproduction of Ghosh & Givargis (DATE 2003): an analytical
algorithm that, given a memory-reference trace and a miss budget K,
directly computes the minimum associativity for every cache depth — no
per-configuration simulation — plus every substrate the paper's
evaluation depends on:

* :mod:`repro.trace`     — traces, stripping, statistics, file I/O,
  synthetic generators
* :mod:`repro.isa`       — a small RISC VM + assembler (stands in for the
  paper's MIPS R3000 simulator)
* :mod:`repro.workloads` — the 12 PowerStone-style benchmark kernels
* :mod:`repro.cache`     — set-associative cache simulator and Mattson
  one-pass stack-distance simulator
* :mod:`repro.core`      — the paper's contribution (BCAT, MRCT, postlude)
* :mod:`repro.explore`   — traditional DSE baselines and comparisons
* :mod:`repro.analysis`  — table rendering and runtime measurement
* :mod:`repro.obs`       — per-phase telemetry (recorders, run manifests)
* :mod:`repro.store`     — persistent content-addressed artifact cache
  (warm-starts repeated explorations of the same trace)
* :mod:`repro.scenario`  — policy-aware exploration beyond the paper's
  fixed point: FIFO replacement, two-level hierarchies, cost models
* :mod:`repro.verify`    — differential verification: corpus-driven
  fuzzing oracle, metamorphic invariants, trace shrinking, failure corpus
* :mod:`repro.serve`     — the exploration daemon: async HTTP/JSON
  service with in-flight dedup, a worker pool, and live /metrics
  (kept out of the top-level namespace; ``from repro.serve import ...``)

Quickstart::

    from repro.trace import loop_nest_trace
    from repro.core import AnalyticalCacheExplorer

    trace = loop_nest_trace(footprint=64, iterations=100)
    result = AnalyticalCacheExplorer(trace).explore(budget=0)
    for instance in result:
        print(instance)
"""

from repro.core import (
    AnalyticalCacheExplorer,
    CacheInstance,
    ExplorationReport,
    ExplorationRequest,
    ExplorationResult,
    explore_request,
)
from repro.cache import CacheConfig, CacheSimulator, SimulationResult, simulate_trace
from repro.obs import NullRecorder, Recorder, RunManifest, validate_manifest
from repro.scenario import COST_MODELS, ScenarioSpec
from repro.store import ArtifactStore, StoreStats, default_cache_dir, trace_digest
from repro.trace import Trace, compute_statistics, read_trace, write_trace
from repro.verify import VerifyConfig, VerifyReport, run_verify

__version__ = "1.9.0"

__all__ = [
    "AnalyticalCacheExplorer",
    "ArtifactStore",
    "CacheInstance",
    "ExplorationReport",
    "ExplorationRequest",
    "ExplorationResult",
    "StoreStats",
    "default_cache_dir",
    "explore_request",
    "trace_digest",
    "CacheConfig",
    "CacheSimulator",
    "SimulationResult",
    "simulate_trace",
    "COST_MODELS",
    "ScenarioSpec",
    "NullRecorder",
    "Recorder",
    "RunManifest",
    "validate_manifest",
    "Trace",
    "compute_statistics",
    "read_trace",
    "write_trace",
    "VerifyConfig",
    "VerifyReport",
    "run_verify",
    "__version__",
]
