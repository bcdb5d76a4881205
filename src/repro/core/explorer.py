"""High-level facade over the analytical exploration pipeline.

:class:`AnalyticalCacheExplorer` owns the prelude products (stripped
trace, zero/one sets, MRCT) and the per-level conflict histograms, all
built lazily and cached, so that exploring many miss budgets K — as the
paper does at 5/10/15/20% of max misses — costs one prelude plus one
histogram pass in total.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core import engines as _engines
from repro.core.instance import ExplorationResult
from repro.core.mrct import MRCT
from repro.core.postlude import LevelHistogram, optimal_pairs
from repro.core.zerosets import ZeroOneSets
from repro.obs.recorder import NULL_RECORDER
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.strip import StrippedTrace
from repro.trace.trace import Trace


class AnalyticalCacheExplorer:
    """Analytical cache design-space explorer (the paper's Figure 1(b)).

    Args:
        trace: the word-addressed memory-reference trace to optimize for.
        max_depth: largest cache depth to report, as a power of two.
            Defaults to the smallest depth at which every row is
            conflict-free (one level past the BCAT's deepest conflicts) —
            all larger depths trivially report ``A = 1``.
        engine: which histogram engine to use, by registry name
            (see :mod:`repro.core.engines`): ``"serial"`` (the paper's
            BCAT/MRCT pipeline with bit-vector sets; ``"bitmask"`` is a
            legacy alias), ``"vectorized"`` (NumPy bit-matrix kernel) or
            ``"auto"`` (default; ``vectorized`` when NumPy is
            available, else ``serial``).
        prelude: prelude builder mode — ``"auto"`` (default; the NumPy
            kernels, or the pure-Python fallbacks without NumPy),
            ``"fast"`` (a synonym of ``"auto"``) or ``"python"`` (the
            paper-faithful reference builders).  Every mode produces
            identical products and identical results.
        recorder: a :class:`repro.obs.Recorder` for per-phase telemetry;
            defaults to the zero-overhead null recorder.  A run manifest
            is built from a request's recorder by
            :func:`repro.core.request.request_manifest`.
        store: optional :class:`repro.store.ArtifactStore`.  The
            per-level histograms are then looked up in the store before
            the prelude runs and persisted once computed, so repeated
            explorations of the same trace — any process, any engine —
            warm-start from the stored histograms.
            Hits/misses/bytes land in the recorder's counters.

    All engines produce bit-identical histograms, hence identical
    exploration results (tested); a store entry written by one engine
    therefore warm-starts every other.

    Example:
        >>> from repro.trace import loop_nest_trace
        >>> from repro.core import AnalyticalCacheExplorer
        >>> explorer = AnalyticalCacheExplorer(loop_nest_trace(8, 10))
        >>> result = explorer.explore(budget=0)
        >>> result.as_dict()[8]
        1
    """

    ENGINES = _engines.engine_names()

    def __init__(
        self,
        trace: Trace,
        max_depth: Optional[int] = None,
        engine: str = _engines.AUTO_ENGINE,
        prelude: str = "auto",
        recorder=None,
        store=None,
    ) -> None:
        if max_depth is not None:
            if max_depth < 1 or (max_depth & (max_depth - 1)) != 0:
                raise ValueError(
                    f"max_depth must be a power of two, got {max_depth}"
                )
        _engines.canonical_name(engine)  # raises ValueError on unknown names
        self.trace = trace
        self.engine = engine
        self.prelude = prelude
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.store = store
        self._max_depth = max_depth
        self._inputs = _engines.EngineInputs(
            trace, recorder=self.recorder, store=store, prelude=prelude
        )
        self._histograms: Optional[Dict[int, LevelHistogram]] = None
        self._spec: Optional[_engines.EngineSpec] = None
        self._statistics: Optional[TraceStatistics] = None

    # -- cached pipeline stages -------------------------------------------------

    @property
    def stripped(self) -> StrippedTrace:
        """The stripped trace (prelude step 1)."""
        return self._inputs.stripped

    @property
    def zerosets(self) -> ZeroOneSets:
        """The per-bit zero/one sets (prelude step 2)."""
        return self._inputs.zerosets

    @property
    def mrct(self) -> MRCT:
        """The memory-reference conflict table (prelude step 3)."""
        return self._inputs.mrct

    @property
    def resolved_engine(self) -> str:
        """The concrete engine name this explorer runs (``auto`` resolved)."""
        return self._engine_spec().name

    def _engine_spec(self) -> _engines.EngineSpec:
        """The engine spec, resolved once: the report names what ran."""
        if self._spec is None:
            # Resolution is a phase of its own: picking "auto" may import
            # NumPy, which dominates small-trace profiles if untracked.
            with self.recorder.phase("resolve-engine"):
                self._spec = _engines.resolve_engine(self.engine)
        return self._spec

    @property
    def histograms(self) -> Dict[int, LevelHistogram]:
        """Per-level conflict histograms, from the configured engine."""
        if self._histograms is None:
            max_level = None
            if self._max_depth is not None:
                max_level = self._max_depth.bit_length() - 1
            self._histograms = self._engine_spec().compute(
                self._inputs, max_level=max_level
            )
        return self._histograms

    @property
    def statistics(self) -> TraceStatistics:
        """Trace statistics (N, N', max misses) for budget scaling."""
        if self._statistics is None:
            with self.recorder.phase("statistics"):
                self._statistics = compute_statistics(self.trace)
        return self._statistics

    # -- depth bookkeeping ---------------------------------------------------------

    @property
    def report_level(self) -> int:
        """Deepest BCAT level reported by :meth:`explore`.

        One past the deepest level that still has conflicts (so the first
        all-direct-mapped depth appears in the output), clamped to the
        trace's address width, and overridden by ``max_depth`` when given.
        """
        if self._max_depth is not None:
            return self._max_depth.bit_length() - 1
        conflict_levels = [
            level for level, h in self.histograms.items() if h.counts
        ]
        deepest = max(conflict_levels, default=0)
        return min(deepest + 1, self.trace.address_bits)

    def misses(self, depth: int, associativity: int) -> int:
        """Exact analytical non-cold miss count of a ``depth x A`` cache."""
        if depth < 1 or (depth & (depth - 1)) != 0:
            raise ValueError(f"depth must be a power of two, got {depth}")
        level = depth.bit_length() - 1
        histogram = self.histograms.get(level)
        if histogram is None:
            if level > max(self.histograms, default=0):
                return 0  # beyond the BCAT: every row conflict-free
            raise ValueError(f"depth {depth} outside the explored range")
        return histogram.misses(associativity)

    # -- exploration entry points -----------------------------------------------------

    def explore(
        self, budget: int, include_depth_one: bool = False
    ) -> ExplorationResult:
        """Compute the optimal ``(D, A)`` set for an absolute miss budget K."""
        histograms = self.histograms  # prelude + engine phases record here
        with self.recorder.phase("postlude:optimal-pairs"):
            instances = optimal_pairs(
                histograms,
                budget,
                max_level=self.report_level,
                include_depth_one=include_depth_one,
            )
            misses = [self.misses(i.depth, i.associativity) for i in instances]
        return ExplorationResult(
            budget=budget,
            instances=instances,
            misses=misses,
            trace_name=self.trace.name,
        )

    def explore_percent(
        self, percent: float, include_depth_one: bool = False
    ) -> ExplorationResult:
        """Explore with K set to ``percent`` % of the trace's max misses.

        This is how the paper parameterizes its evaluation (K at 5, 10,
        15 and 20 percent of the depth-1 direct-mapped miss count).
        """
        budget = self.statistics.budget(percent)
        return self.explore(budget, include_depth_one=include_depth_one)

    def explore_many(
        self, budgets: Sequence[int], include_depth_one: bool = False
    ) -> List[ExplorationResult]:
        """Explore several absolute budgets, reusing all cached stages."""
        return [self.explore(k, include_depth_one=include_depth_one) for k in budgets]
