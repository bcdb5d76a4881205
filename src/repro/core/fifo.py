"""DEW-style hybrid exploration engine for FIFO replacement.

FIFO caches have no inclusion (stack) property — a line resident at
associativity ``A`` need not be resident at ``A + 1`` — and exhibit
Belady's anomaly: miss counts are *not* monotone in associativity.  The
paper's histogram postlude therefore cannot model FIFO: a
:class:`~repro.core.postlude.LevelHistogram` encodes exactly the
monotone ``misses(A) = sum(counts[d] for d >= A)`` family.

Two cells of the design space are nevertheless policy-independent, and
the hybrid answers them analytically from the LRU pipeline:

* ``A = 1`` (direct-mapped): each set holds one line, so there is no
  replacement *choice* — FIFO, LRU and every other policy produce the
  same misses, which the LRU histogram already knows exactly.
* ``A >= Z(D)`` where ``Z(D)`` is the largest number of distinct lines
  any set receives at depth ``D``: no set ever evicts, so non-cold
  misses are zero under any policy.

Everything in between (``2 <= A < Z(D)``) is simulator-backed: one pass
over the trace per depth drives a :class:`repro.cache.policies.FIFOSet`
per (set, associativity) for *all* remaining associativities at once —
the same set policy and the same cold-miss accounting as
:class:`repro.cache.simulator.CacheSimulator`, so the counts are
bit-identical to ``simulate_trace`` by construction (the differential
verify grid asserts this across the corpus).

Per-depth miss tables are persisted through the artifact store under
the ``policy-misses`` stage with the policy name in the key, so FIFO
entries can never collide with (or poison) LRU histogram warm-starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cache.policies import FIFOSet
from repro.core import engines as _engines
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import CacheInstance, ExplorationResult
from repro.trace.trace import Trace


@dataclass(frozen=True)
class PolicyMissTable:
    """Per-depth non-cold miss counts of one replacement policy.

    Attributes:
        depth: the cache depth ``D`` the table covers.
        zero_associativity: smallest ``A`` with guaranteed-zero non-cold
            misses (the per-set distinct-line occupancy bound ``Z(D)``).
        counts: ``{associativity: non_cold_misses}`` for the
            simulator-backed band ``2 <= A < zero_associativity``.
    """

    depth: int
    zero_associativity: int
    counts: Dict[int, int]


class FIFOHybridExplorer:
    """Budget-driven design-space exploration under FIFO replacement.

    Mirrors the :class:`~repro.core.explorer.AnalyticalCacheExplorer`
    surface (``explore``/``explore_percent``/``explore_many``/
    ``misses``/``statistics``/``resolved_engine``/``report_level``) so
    request execution, costing and the verify grid can treat policies
    uniformly; an internal analytical explorer supplies the prelude,
    statistics and the exact ``A = 1`` column, inheriting the engine,
    prelude mode and store (LRU warm-starts still apply).

    Because FIFO misses are not monotone in ``A``, the per-depth
    minimum associativity is found by an upward scan — the first ``A``
    within budget, which is well-defined even across Belady anomalies.
    """

    policy = "fifo"

    def __init__(
        self,
        trace: Trace,
        max_depth: Optional[int] = None,
        engine: str = _engines.AUTO_ENGINE,
        prelude: str = "auto",
        recorder=None,
        store=None,
    ) -> None:
        self._analytical = AnalyticalCacheExplorer(
            trace,
            max_depth=max_depth,
            engine=engine,
            prelude=prelude,
            recorder=recorder,
            store=store,
        )
        self.trace = trace
        self.engine = engine
        self.prelude = prelude
        self.recorder = self._analytical.recorder
        self.store = store
        self._tables: Dict[int, PolicyMissTable] = {}
        self._occupancy: Dict[int, int] = {}
        self._unique: Optional[List[int]] = None
        self._digest: Optional[str] = None

    # -- delegated surface ------------------------------------------------------

    @property
    def analytical(self) -> AnalyticalCacheExplorer:
        """The wrapped LRU pipeline (prelude, histograms, statistics)."""
        return self._analytical

    @property
    def statistics(self):
        return self._analytical.statistics

    @property
    def stripped(self):
        return self._analytical.stripped

    @property
    def resolved_engine(self) -> str:
        return self._analytical.resolved_engine

    @property
    def report_level(self) -> int:
        """Deepest level reported — a trace property, policy-independent.

        A BCAT row can force misses under *any* demand policy only when
        it holds two or more unique references, so the deepest
        interesting level is the same for FIFO as for LRU.
        """
        return self._analytical.report_level

    # -- the hybrid miss model --------------------------------------------------

    def _unique_addresses(self) -> List[int]:
        if self._unique is None:
            self._unique = list(set(self.trace))
        return self._unique

    def zero_miss_associativity(self, depth: int) -> int:
        """``Z(D)``: smallest A that provably never evicts at depth D.

        The largest number of distinct lines mapping to one set; with
        ``A >= Z(D)`` every fill finds a free way, so non-cold misses
        are zero under *any* replacement policy.
        """
        self._check_depth(depth)
        cached = self._occupancy.get(depth)
        if cached is not None:
            return cached
        mask = depth - 1
        per_set: Dict[int, int] = {}
        for address in self._unique_addresses():
            index = address & mask
            per_set[index] = per_set.get(index, 0) + 1
        zero = max(per_set.values(), default=0)
        zero = max(zero, 1)
        self._occupancy[depth] = zero
        return zero

    @staticmethod
    def _check_depth(depth: int) -> None:
        if depth < 1 or (depth & (depth - 1)) != 0:
            raise ValueError(f"depth must be a power of two, got {depth}")

    def misses(self, depth: int, associativity: int) -> int:
        """Exact FIFO non-cold miss count of a ``depth x A`` cache."""
        self._check_depth(depth)
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        zero = self.zero_miss_associativity(depth)
        if associativity >= zero:
            return 0
        if associativity == 1:
            return self._analytical.misses(depth, 1)
        return self._table(depth).counts[associativity]

    def _table(self, depth: int) -> PolicyMissTable:
        table = self._tables.get(depth)
        if table is not None:
            return table
        table = self._load_table(depth)
        if table is None:
            table = self._simulate_depth(depth)
            self._save_table(table)
        self._tables[depth] = table
        return table

    def _simulate_depth(self, depth: int) -> PolicyMissTable:
        """One pass over the trace, all middle associativities at once.

        Exactly mirrors :class:`repro.cache.simulator.CacheSimulator`
        with one-word lines: ``line = address``, ``index = address &
        (D-1)``, ``tag = address >> log2(D)``, a
        :class:`~repro.cache.policies.FIFOSet` per occupied set, and a
        miss counted non-cold iff the address was seen before.
        """
        zero = self.zero_miss_associativity(depth)
        assocs = range(2, zero)
        index_bits = depth.bit_length() - 1
        mask = depth - 1
        sets: Dict[int, Dict[int, FIFOSet]] = {a: {} for a in assocs}
        counts: Dict[int, int] = {a: 0 for a in assocs}
        seen: set = set()
        with self.recorder.phase("fifo:simulate-depth"):
            for address in self.trace:
                index = address & mask
                tag = address >> index_bits
                first = address not in seen
                if first:
                    seen.add(address)
                for assoc in assocs:
                    per_set = sets[assoc]
                    policy = per_set.get(index)
                    if policy is None:
                        policy = FIFOSet(assoc)
                        per_set[index] = policy
                    hit, _ = policy.lookup(tag)
                    if not hit and not first:
                        counts[assoc] += 1
        return PolicyMissTable(
            depth=depth, zero_associativity=zero, counts=counts
        )

    # -- store warm-start -------------------------------------------------------
    #
    # Keys carry the policy name and depth under a stage of their own
    # ("policy-misses"), disjoint from the LRU histogram stage — a FIFO
    # entry can never be addressed by (and so never poison) an LRU
    # warm-start, and vice versa.

    def _trace_digest(self) -> Optional[str]:
        if self._digest is None:
            from repro.store.keys import trace_digest

            self._digest = trace_digest(self.trace)
        return self._digest

    def _table_key(self, depth: int):
        from repro.store.codec import POLICY_MISSES_CODEC
        from repro.store.keys import ArtifactKey

        return ArtifactKey.for_stage(
            self._trace_digest(),
            POLICY_MISSES_CODEC.stage,
            POLICY_MISSES_CODEC.version,
            policy=self.policy,
            depth=depth,
        )

    def _load_table(self, depth: int) -> Optional[PolicyMissTable]:
        if self.store is None:
            return None
        from repro.store.codec import POLICY_MISSES_CODEC

        return self.store.get(
            self._table_key(depth), POLICY_MISSES_CODEC, recorder=self.recorder
        )

    def _save_table(self, table: PolicyMissTable) -> None:
        if self.store is None:
            return
        from repro.store.codec import POLICY_MISSES_CODEC

        self.store.put(
            self._table_key(table.depth),
            POLICY_MISSES_CODEC,
            table,
            recorder=self.recorder,
        )

    # -- exploration entry points -----------------------------------------------

    def min_associativity(self, depth: int, budget: int) -> int:
        """Smallest A whose FIFO miss count is within budget.

        An upward scan, not a bisection: FIFO misses can *rise* with A
        (Belady's anomaly), so the satisfying set need not be an upper
        interval — "minimum associativity" means the first A that fits.
        """
        if budget < 0:
            raise ValueError("budget must be non-negative")
        zero = self.zero_miss_associativity(depth)
        for assoc in range(1, zero):
            if self.misses(depth, assoc) <= budget:
                return assoc
        return zero

    def explore(
        self, budget: int, include_depth_one: bool = False
    ) -> ExplorationResult:
        """Compute the optimal FIFO ``(D, A)`` set for a miss budget K."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        start = 0 if include_depth_one else 1
        instances: List[CacheInstance] = []
        for level in range(start, self.report_level + 1):
            depth = 1 << level
            assoc = self.min_associativity(depth, budget)
            instances.append(CacheInstance(depth=depth, associativity=assoc))
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
        """Explore with K set to ``percent`` % of the trace's max misses."""
        budget = self.statistics.budget(percent)
        return self.explore(budget, include_depth_one=include_depth_one)

    def explore_many(
        self, budgets: Sequence[int], include_depth_one: bool = False
    ) -> List[ExplorationResult]:
        """Explore several budgets, reusing the cached per-depth tables."""
        return [
            self.explore(k, include_depth_one=include_depth_one)
            for k in budgets
        ]
