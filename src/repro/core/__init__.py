"""The paper's primary contribution: analytical cache design space exploration.

Given a memory-reference trace and a miss budget ``K`` (non-cold misses),
compute — without any per-configuration simulation — the minimum degree of
associativity ``A`` for every cache depth ``D`` such that a ``D x A`` LRU
cache misses at most ``K`` times beyond its cold misses.

The pipeline follows the paper's Figure 2:

1. strip the trace (:mod:`repro.trace.strip`),
2. build the per-bit zero/one sets (:mod:`repro.core.zerosets`),
3. build the Binary Cache Allocation Tree (:mod:`repro.core.bcat`,
   Algorithm 1),
4. build the Memory Reference Conflict Table (:mod:`repro.core.mrct`,
   Algorithm 2),
5. run the postlude (:mod:`repro.core.postlude`, Algorithm 3) to obtain
   the optimal ``(D, A)`` pairs.

:class:`~repro.core.explorer.AnalyticalCacheExplorer` wires the phases
together behind one call.
"""

from repro.core.instance import CacheInstance, ExplorationResult
from repro.core.zerosets import (
    ZeroOneSets,
    build_zero_one_sets,
    build_zero_one_sets_numpy,
)
from repro.core.bcat import BCAT, BCATNode, build_bcat, walk_bcat_sets
from repro.core.mrct import MRCT, build_mrct, build_mrct_naive
from repro.core.prelude_fast import (
    PackedMRCT,
    build_mrct_auto,
    build_mrct_fast,
    build_mrct_fenwick,
    build_packed_mrct,
    pack_mrct,
)
from repro.core.postlude import (
    LevelHistogram,
    compute_level_histograms,
    misses_at_node,
    node_distance_histogram,
    optimal_pairs,
    optimal_pairs_algorithm3,
)
from repro.core.engines import (
    EngineInputs,
    EngineSpec,
    choose_auto,
    compute_histograms,
    engine_names,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.request import (
    ExplorationReport,
    ExplorationRequest,
    explore_request,
)
from repro.core.linesize import LineInstance, LineSizeExplorer, LineSweepResult
from repro.core.multi import MultiTraceExplorer, MultiTraceResult
from repro.core.streaming import compute_level_histograms_streaming
from repro.core.vectorized import (
    compute_level_histograms_packed,
    compute_level_histograms_vectorized,
    numpy_available,
)
from repro.core.sensitivity import (
    SensitivityStep,
    budget_sensitivity,
    marginal_budget_for_cheaper_cache,
)
from repro.core.validation import ValidationRecord, validate_instances

__all__ = [
    "CacheInstance",
    "ExplorationResult",
    "ZeroOneSets",
    "build_zero_one_sets",
    "build_zero_one_sets_numpy",
    "BCAT",
    "BCATNode",
    "build_bcat",
    "walk_bcat_sets",
    "MRCT",
    "build_mrct",
    "build_mrct_naive",
    "PackedMRCT",
    "build_mrct_auto",
    "build_mrct_fast",
    "build_mrct_fenwick",
    "build_packed_mrct",
    "pack_mrct",
    "LevelHistogram",
    "compute_level_histograms",
    "misses_at_node",
    "node_distance_histogram",
    "optimal_pairs",
    "optimal_pairs_algorithm3",
    "AnalyticalCacheExplorer",
    "ExplorationReport",
    "ExplorationRequest",
    "explore_request",
    "LineInstance",
    "LineSizeExplorer",
    "LineSweepResult",
    "EngineInputs",
    "EngineSpec",
    "choose_auto",
    "compute_histograms",
    "engine_names",
    "get_engine",
    "register_engine",
    "resolve_engine",
    "compute_level_histograms_streaming",
    "compute_level_histograms_packed",
    "compute_level_histograms_vectorized",
    "numpy_available",
    "MultiTraceExplorer",
    "MultiTraceResult",
    "SensitivityStep",
    "budget_sensitivity",
    "marginal_budget_for_cheaper_cache",
    "ValidationRecord",
    "validate_instances",
]
