"""Cache-filter trace compaction (the paper's related work [14][15]).

The paper's introduction cites trace-stripping techniques that shorten a
trace "to a provably identical (from a performance point of view) but
shorter trace" before simulation.  The classic construction (Puzak
1985, the basis of Wu & Wolf [14]) filters the trace through a
direct-mapped cache of ``D0`` sets and keeps only the references that
*miss* there; the filtered trace then exhibits the same non-compulsory
miss counts as the original on **every** set-associative LRU cache with
at least ``D0`` sets (and the same line size).

Why it works: a reference that hits in the depth-``D0`` direct-mapped
filter is, at that moment, the most recent reference mapping to its
filter set; in any cache with ``>= D0`` sets its own set partitions the
filter set, so it is also the most recent there and must hit without
changing the LRU state relative to the filtered replay.

This gives the analytical algorithm the same speedup lever the
simulation world uses — explore depths ``>= D0`` on the shorter trace —
and the guarantee is enforced by tests and the compaction benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.config import is_power_of_two
from repro.trace.trace import Trace


@dataclass(frozen=True)
class CompactionStats:
    """Bookkeeping for one compaction run.

    Attributes:
        filter_depth: sets in the direct-mapped filter (validity floor:
            results are exact for cache depths >= this).
        original_length: N of the input trace.
        compacted_length: N of the output trace.
    """

    filter_depth: int
    original_length: int
    compacted_length: int

    @property
    def reduction(self) -> float:
        """Fraction of references removed (0.0 for an empty input)."""
        if self.original_length == 0:
            return 0.0
        return 1.0 - self.compacted_length / self.original_length


@dataclass(frozen=True)
class CompactedTrace:
    """A filtered trace plus the metadata describing its validity range.

    The compacted trace reproduces the original's *non-compulsory* miss
    counts exactly on every LRU cache with depth >= ``stats.filter_depth``
    (one-word lines).  Compulsory (cold) misses are preserved too: every
    unique reference misses the filter at least once, so the unique
    reference sets coincide.
    """

    trace: Trace
    stats: CompactionStats


def compact_trace(trace: Trace, filter_depth: int) -> CompactedTrace:
    """Filter a trace through a depth-``filter_depth`` direct-mapped cache.

    Args:
        trace: word-addressed input trace.
        filter_depth: number of sets in the filter; power of two.  Depth
            1 keeps every non-consecutive-repeat reference; larger
            filters remove more but raise the validity floor.

    Returns:
        The kept references (filter misses), in order, with access kinds
        preserved when present.
    """
    if not is_power_of_two(filter_depth):
        raise ValueError(
            f"filter_depth must be a power of two, got {filter_depth}"
        )
    mask = filter_depth - 1
    resident: dict = {}
    kept_addresses: List[int] = []
    labels = trace.kind_labels
    kept_labels: Optional[bytearray] = None if labels is None else bytearray()
    for i, addr in enumerate(trace):
        index = addr & mask
        if resident.get(index) == addr:
            continue  # filter hit: provably a hit in every deeper cache
        resident[index] = addr
        kept_addresses.append(addr)
        if kept_labels is not None:
            kept_labels.append(labels[i])
    compacted = Trace(
        kept_addresses,
        address_bits=trace.address_bits,
        kinds=kept_labels,
        name=f"{trace.name}/strip{filter_depth}" if trace.name else "",
    )
    return CompactedTrace(
        trace=compacted,
        stats=CompactionStats(
            filter_depth=filter_depth,
            original_length=len(trace),
            compacted_length=len(compacted),
        ),
    )
