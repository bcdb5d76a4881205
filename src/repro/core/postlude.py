"""The postlude phase — paper Algorithm 3.

For every cache depth ``D = 2**level`` the postlude finds the minimum
associativity ``A`` whose total non-cold miss count is within the budget
``K``.  An occurrence of reference ``u`` (row set ``S``, conflict set
``C``) misses at associativity ``A`` iff ``|S ∩ C| >= A``.

The production path computes, per BCAT level, a *histogram* of the
quantity ``d = |S ∩ C|`` over all non-cold occurrences.  The miss count of
any associativity then falls out as ``sum(hist[d] for d >= A)``, so every
associativity is evaluated at once — this fuses the paper's Algorithms 1
and 3 exactly as its section 2.4 recommends (streaming DFS over the BCAT,
no per-``A`` rescan).  A verbatim Algorithm 3 over a materialized BCAT is
kept in :func:`optimal_pairs_algorithm3` for exposition and as a test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.bcat import BCAT, walk_bcat_sets
from repro.core.instance import CacheInstance
from repro.core.mrct import MRCT
from repro.core.zerosets import ZeroOneSets


def validate_max_level(max_level: Optional[int]) -> Optional[int]:
    """Validate a ``max_level`` bound shared by every engine and prelude.

    ``None`` means "no bound" (histogram every level up to the address
    width).  Anything else must be a non-negative integer; every entry
    point — serial, vectorized, the streaming state, the store key
    derivation, and the serve wire protocol — funnels through this one
    check so an invalid bound fails identically everywhere.

    Returns:
        the validated bound (as ``int``, or ``None``).

    Raises:
        ValueError: when ``max_level`` is negative or not an integer.
    """
    if max_level is None:
        return None
    if isinstance(max_level, bool) or not isinstance(max_level, int):
        raise ValueError(
            f"max_level must be an integer or None, got {max_level!r}"
        )
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    return max_level


@dataclass
class LevelHistogram:
    """Histogram of per-row conflict cardinalities at one BCAT level.

    ``counts[d]`` is the number of non-cold occurrences whose row-local
    conflict cardinality ``|S ∩ C|`` equals ``d``.  Occurrences falling in
    rows that hold a single unique reference always have ``d = 0`` and may
    be omitted by the builder; they can never miss for any ``A >= 1``.
    """

    level: int
    counts: Dict[int, int] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """Cache depth this level models (``2**level``)."""
        return 1 << self.level

    def add(self, distance: int, count: int = 1) -> None:
        """Record ``count`` occurrences at conflict cardinality ``distance``."""
        self.counts[distance] = self.counts.get(distance, 0) + count

    def merge(self, other: "LevelHistogram") -> None:
        """Accumulate another histogram (must be the same level)."""
        if other.level != self.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        for distance, count in other.counts.items():
            self.add(distance, count)

    def misses(self, associativity: int) -> int:
        """Non-cold misses of a ``depth x associativity`` cache."""
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        return sum(c for d, c in self.counts.items() if d >= associativity)

    @property
    def zero_miss_associativity(self) -> int:
        """The paper's ``A_zero``: smallest A with zero misses."""
        return max(self.counts, default=0) + 1

    def min_associativity(self, budget: int) -> int:
        """Smallest associativity whose miss count is ``<= budget``."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        remaining = sum(self.counts.values())
        assoc = 1
        while True:
            remaining -= self.counts.get(assoc - 1, 0)
            if remaining <= budget:
                return assoc
            assoc += 1


def _iter_bits(mask: int):
    """Yield the set bit positions of ``mask``."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def node_distance_histogram(members: int, mrct: MRCT) -> Dict[int, int]:
    """Histogram of ``|S ∩ C|`` over all occurrences of a row's members."""
    counts: Dict[int, int] = {}
    for ident in _iter_bits(members):
        for conflict in mrct.sets[ident]:
            d = (members & conflict).bit_count()
            counts[d] = counts.get(d, 0) + 1
    return counts


def misses_at_node(members: int, mrct: MRCT, associativity: int) -> int:
    """Paper's per-node miss count: occurrences with ``|S ∩ C| >= A``."""
    if associativity < 1:
        raise ValueError("associativity must be >= 1")
    misses = 0
    for ident in _iter_bits(members):
        for conflict in mrct.sets[ident]:
            if (members & conflict).bit_count() >= associativity:
                misses += 1
    return misses


def compute_level_histograms(
    zerosets: ZeroOneSets,
    mrct: MRCT,
    max_level: Optional[int] = None,
) -> Dict[int, LevelHistogram]:
    """Per-level conflict histograms via the streaming BCAT traversal.

    Rows holding fewer than two unique references are skipped: every one
    of their occurrences has ``d = 0`` and can never miss at ``A >= 1``.

    Returns a histogram for every level ``0 .. limit`` (level 0 models the
    fully associative depth-1 cache), including levels whose rows are all
    conflict-free (empty histogram).
    """
    max_level = validate_max_level(max_level)
    limit = zerosets.address_bits if max_level is None else max_level
    limit = min(limit, zerosets.address_bits)
    histograms: Dict[int, LevelHistogram] = {
        level: LevelHistogram(level) for level in range(limit + 1)
    }
    for level, members in walk_bcat_sets(zerosets, max_level=limit):
        if members.bit_count() < 2:
            continue
        node_counts = node_distance_histogram(members, mrct)
        histogram = histograms[level]
        for distance, count in node_counts.items():
            histogram.add(distance, count)
    return histograms


def optimal_pairs(
    histograms: Dict[int, LevelHistogram],
    budget: int,
    max_level: Optional[int] = None,
    include_depth_one: bool = False,
) -> List[CacheInstance]:
    """Minimum associativity per depth from precomputed histograms.

    Args:
        histograms: output of :func:`compute_level_histograms`.
        budget: the paper's K (non-cold misses allowed).
        max_level: deepest level to report.  Levels beyond the deepest
            histogram are conflict-free and report ``A = 1``.
        include_depth_one: also report the depth-1 (fully associative
            column) instance; the paper's Algorithm 3 starts at depth 2.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    deepest = max(histograms) if histograms else 0
    limit = deepest if max_level is None else max_level
    start = 0 if include_depth_one else 1
    instances: List[CacheInstance] = []
    for level in range(start, limit + 1):
        histogram = histograms.get(level)
        if histogram is None:
            assoc = 1  # beyond the BCAT: every row holds at most one ref
        else:
            assoc = histogram.min_associativity(budget)
        instances.append(CacheInstance(depth=1 << level, associativity=assoc))
    return instances


def optimal_pairs_algorithm3(
    bcat: BCAT, mrct: MRCT, budget: int
) -> List[CacheInstance]:
    """Paper Algorithm 3, verbatim, over a materialized BCAT.

    For each level, associativities are tried in increasing order starting
    from 1; the miss count of the whole level is accumulated node by node
    and the candidate associativity is bumped whenever the count exceeds
    the budget.  Kept as the exposition-faithful oracle; the streaming
    histogram path in :func:`optimal_pairs` must agree with it exactly.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    instances: List[CacheInstance] = []
    for level in range(1, bcat.depth + 1):
        nodes = bcat.level_nodes(level)
        assoc = 1
        while True:
            total = sum(misses_at_node(n.members, mrct, assoc) for n in nodes)
            if total <= budget:
                break
            assoc += 1
        instances.append(CacheInstance(depth=1 << level, associativity=assoc))
    return instances
