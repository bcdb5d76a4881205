"""Multi-trace (application-set) exploration.

The paper's introduction motivates cache customization "to the
application set of these systems" — embedded devices ship a fixed set
of applications and the cache must serve all of them.  This module
extends the analytical algorithm to several traces at once.  Because
per-level histograms are additive across traces (each trace's conflicts
are independent), both natural composition rules stay one-pass:

* **sum** — bound the *total* non-cold misses across the set (weights
  allow per-application importance or invocation frequency);
* **each** — bound every application's misses individually (the
  worst-case guarantee); the per-depth answer is then the max of the
  per-trace minimum associativities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import CacheInstance
from repro.core.postlude import LevelHistogram
from repro.trace.trace import Trace


@dataclass
class MultiTraceResult:
    """Outcome of an application-set exploration.

    Attributes:
        mode: ``"sum"`` or ``"each"``.
        budget: the miss budget (total for ``sum``; per trace for ``each``).
        instances: per-depth minimal instances for the whole set.
        misses_by_trace: per trace name, the miss count of each chosen
            instance (same order as ``instances``).
    """

    mode: str
    budget: int
    instances: List[CacheInstance]
    misses_by_trace: Dict[str, List[int]]

    def as_dict(self) -> Dict[int, int]:
        """``{depth: associativity}`` mapping."""
        return {inst.depth: inst.associativity for inst in self.instances}

    def total_misses(self, index: int) -> int:
        """Summed misses of instance ``index`` across all traces."""
        return sum(per_trace[index] for per_trace in self.misses_by_trace.values())


class MultiTraceExplorer:
    """Analytical exploration over a set of traces.

    Args:
        traces: the application set; each trace needs a unique,
            non-empty name (used as its result key).
        weights: optional per-trace multipliers for ``sum`` mode
            (e.g. invocation frequencies); defaults to 1 each.
        max_depth: forwarded to the per-trace explorers.
        engine: histogram engine name (see :mod:`repro.core.engines`),
            forwarded to every per-trace explorer; ``"auto"`` picks the
            best available engine per trace.
        prelude: prelude builder mode, forwarded to every per-trace
            explorer (see :class:`repro.core.engines.EngineInputs`).
        recorder: a shared :class:`repro.obs.Recorder` forwarded to every
            per-trace explorer, so one profile covers the whole set.
        store: a shared :class:`repro.store.ArtifactStore` forwarded to
            every per-trace explorer — batch runs over an application
            set then share one artifact cache.

    Example:
        >>> from repro.trace import loop_nest_trace
        >>> a = loop_nest_trace(8, 10); a.name = "a"
        >>> b = loop_nest_trace(16, 10, start=100); b.name = "b"
        >>> result = MultiTraceExplorer([a, b]).explore_each(0)
        >>> result.as_dict()[16]
        1
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        weights: Optional[Sequence[int]] = None,
        max_depth: Optional[int] = None,
        engine: str = "auto",
        prelude: str = "auto",
        recorder=None,
        store=None,
    ) -> None:
        if not traces:
            raise ValueError("at least one trace is required")
        names = [t.name for t in traces]
        if any(not name for name in names):
            raise ValueError("every trace needs a non-empty name")
        if len(set(names)) != len(names):
            raise ValueError(f"trace names must be unique, got {names}")
        if weights is not None:
            weights = list(weights)
            if len(weights) != len(traces):
                raise ValueError("weights must match traces in length")
            if any(w < 0 for w in weights):
                raise ValueError("weights must be non-negative")
        self.traces = list(traces)
        self.weights = weights or [1] * len(traces)
        self.explorers = [
            AnalyticalCacheExplorer(
                trace,
                max_depth=max_depth,
                engine=engine,
                prelude=prelude,
                recorder=recorder,
                store=store,
            )
            for trace in self.traces
        ]

    @property
    def report_level(self) -> int:
        """Deepest level any member trace reports."""
        return max(explorer.report_level for explorer in self.explorers)

    def _combined_histogram(self, level: int) -> LevelHistogram:
        """Weighted sum of per-trace histograms at one level."""
        combined = LevelHistogram(level)
        for explorer, weight in zip(self.explorers, self.weights):
            histogram = explorer.histograms.get(level)
            if histogram is None or weight == 0:
                continue
            for distance, count in histogram.counts.items():
                combined.add(distance, count * weight)
        return combined

    def _misses_per_trace(
        self, instances: List[CacheInstance]
    ) -> Dict[str, List[int]]:
        return {
            trace.name: [
                explorer.misses(inst.depth, inst.associativity)
                for inst in instances
            ]
            for trace, explorer in zip(self.traces, self.explorers)
        }

    def explore_sum(self, budget: int) -> MultiTraceResult:
        """Bound the weighted total of non-cold misses across the set."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        instances: List[CacheInstance] = []
        for level in range(1, self.report_level + 1):
            combined = self._combined_histogram(level)
            assoc = combined.min_associativity(budget)
            instances.append(CacheInstance(depth=1 << level, associativity=assoc))
        return MultiTraceResult(
            mode="sum",
            budget=budget,
            instances=instances,
            misses_by_trace=self._misses_per_trace(instances),
        )

    def explore_each(self, budget: int) -> MultiTraceResult:
        """Bound every application's non-cold misses individually."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        instances: List[CacheInstance] = []
        for level in range(1, self.report_level + 1):
            depth = 1 << level
            assoc = 1
            for explorer in self.explorers:
                histogram = explorer.histograms.get(level)
                if histogram is None:
                    continue
                assoc = max(assoc, histogram.min_associativity(budget))
            instances.append(CacheInstance(depth=depth, associativity=assoc))
        return MultiTraceResult(
            mode="each",
            budget=budget,
            instances=instances,
            misses_by_trace=self._misses_per_trace(instances),
        )
