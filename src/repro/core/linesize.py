"""Line-size exploration — the paper's first named piece of future work.

Section 2.1 fixes the line size at one word because changing it "would
require redesign of the processor memory interface, bus architecture,
main memory controller, as well as main memory organization"; section 4
then names line size as the next design axis to incorporate.  This
module incorporates it.

The extension is exact, not approximate: a set-associative LRU cache
with ``L``-word lines indexes and tags the *line address*
``addr >> log2(L)``, so its hit/miss behavior on a trace equals that of
a one-word-line cache on the line-address trace
(:meth:`repro.trace.trace.Trace.to_line_trace`).  Sweeping ``L`` is
therefore one analytical run per line size, each sharing nothing but
the original trace.

Cross-``L`` comparison caveat, surfaced in the result type: a miss at
line size ``L`` fetches ``L`` words, so instances are compared both by
miss count (latency events) and by *traffic* in words (bus/energy
proxy), with cold misses included in traffic since cold fills move data
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cache.config import CacheConfig, is_power_of_two
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import CacheInstance, ExplorationResult
from repro.trace.trace import Trace


@dataclass(frozen=True)
class LineInstance:
    """One (line size, depth, associativity) design point.

    Attributes:
        line_words: words per cache line.
        instance: the (D, A) pair at that line size.
        non_cold_misses: analytical non-cold miss count (line fetches
            beyond compulsory ones).
        cold_misses: compulsory line fetches (= unique lines touched).
    """

    line_words: int
    instance: CacheInstance
    non_cold_misses: int
    cold_misses: int

    @property
    def size_words(self) -> int:
        """Total capacity: ``D * A * L`` words."""
        return self.instance.size_words * self.line_words

    @property
    def total_misses(self) -> int:
        """All line fetches, compulsory included."""
        return self.non_cold_misses + self.cold_misses

    @property
    def traffic_words(self) -> int:
        """Words moved from memory: every line fetch moves ``L`` words."""
        return self.total_misses * self.line_words

    def to_config(self) -> CacheConfig:
        """Materialize as a simulator config (LRU, write-back)."""
        return CacheConfig(
            depth=self.instance.depth,
            associativity=self.instance.associativity,
            line_words=self.line_words,
        )

    def __str__(self) -> str:
        return (
            f"(L={self.line_words}, D={self.instance.depth}, "
            f"A={self.instance.associativity})"
        )


@dataclass
class LineSweepResult:
    """Output of a line-size sweep.

    Attributes:
        budget: the per-line-size miss budget K (non-cold misses at that
            line size).
        by_line_words: the plain exploration result for each line size.
        instances: every (L, D, A) point, flattened.
        trace_name: label of the analyzed trace.
    """

    budget: int
    by_line_words: Dict[int, ExplorationResult]
    instances: List[LineInstance]
    trace_name: str = ""

    def line_sizes(self) -> List[int]:
        """Swept line sizes, ascending."""
        return sorted(self.by_line_words)

    def smallest(self) -> Optional[LineInstance]:
        """The budget-satisfying point with the least total capacity."""
        if not self.instances:
            return None
        return min(
            self.instances,
            key=lambda li: (li.size_words, li.line_words, li.instance.depth),
        )

    def least_traffic(self) -> Optional[LineInstance]:
        """The point moving the fewest words from memory."""
        if not self.instances:
            return None
        return min(
            self.instances,
            key=lambda li: (li.traffic_words, li.size_words),
        )

    def at(self, line_words: int) -> ExplorationResult:
        """The exploration result for one line size."""
        return self.by_line_words[line_words]


class LineSizeExplorer:
    """Sweeps cache line size on top of the analytical (D, A) algorithm.

    Args:
        trace: word-addressed trace.
        line_sizes: line sizes (words, powers of two) to sweep; default
            1, 2, 4, 8.
        max_depth: forwarded to each per-line-size explorer.
        engine: histogram engine name, forwarded to each per-line-size
            explorer.
        prelude: prelude builder mode, forwarded to each per-line-size
            explorer.
        recorder: shared :class:`repro.obs.Recorder` across the sweep.
        store: shared :class:`repro.store.ArtifactStore` — each line
            size's derived trace gets its own content digest, so the
            whole sweep warm-starts on a second run.

    Example:
        >>> from repro.trace import loop_nest_trace
        >>> sweep = LineSizeExplorer(loop_nest_trace(64, 20)).explore(0)
        >>> sorted(sweep.by_line_words) == [1, 2, 4, 8]
        True
    """

    DEFAULT_LINE_SIZES = (1, 2, 4, 8)

    def __init__(
        self,
        trace: Trace,
        line_sizes: Iterable[int] = DEFAULT_LINE_SIZES,
        max_depth: Optional[int] = None,
        engine: str = "auto",
        prelude: str = "auto",
        recorder=None,
        store=None,
    ) -> None:
        sizes = sorted(set(int(s) for s in line_sizes))
        if not sizes:
            raise ValueError("at least one line size is required")
        for size in sizes:
            if not is_power_of_two(size):
                raise ValueError(f"line size must be a power of two, got {size}")
        self.trace = trace
        self.line_sizes = sizes
        self._max_depth = max_depth
        self._engine = engine
        self._prelude = prelude
        self._recorder = recorder
        self._store = store
        self._explorers: Dict[int, AnalyticalCacheExplorer] = {}

    def explorer_for(self, line_words: int) -> AnalyticalCacheExplorer:
        """The cached per-line-size analytical explorer."""
        if line_words not in self._explorers:
            line_trace = (
                self.trace
                if line_words == 1
                else self.trace.to_line_trace(line_words)
            )
            self._explorers[line_words] = AnalyticalCacheExplorer(
                line_trace,
                max_depth=self._max_depth,
                engine=self._engine,
                prelude=self._prelude,
                recorder=self._recorder,
                store=self._store,
            )
        return self._explorers[line_words]

    def misses(self, line_words: int, depth: int, associativity: int) -> int:
        """Exact non-cold miss count of an (L, D, A) cache."""
        return self.explorer_for(line_words).misses(depth, associativity)

    def explore(self, budget: int) -> LineSweepResult:
        """Optimal (D, A) per depth, for every line size, at budget K."""
        by_line: Dict[int, ExplorationResult] = {}
        flattened: List[LineInstance] = []
        for line_words in self.line_sizes:
            explorer = self.explorer_for(line_words)
            result = explorer.explore(budget)
            by_line[line_words] = result
            cold = explorer.statistics.n_unique
            for instance, misses in zip(result.instances, result.misses):
                flattened.append(
                    LineInstance(
                        line_words=line_words,
                        instance=instance,
                        non_cold_misses=misses,
                        cold_misses=cold,
                    )
                )
        return LineSweepResult(
            budget=budget,
            by_line_words=by_line,
            instances=flattened,
            trace_name=self.trace.name,
        )
