"""Trace stripping — the first step of the paper's prelude phase.

Stripping reduces a trace of ``N`` references to its ``N'`` unique
references and assigns each a numeric identifier (paper Table 2).  The
paper notes (section 2.4) that stripping by sorting costs ``N log N`` but a
hash table makes it linear; Python dictionaries give us the hash-table
variant directly.  A sort-based variant is kept in
:func:`strip_trace_sorted` for the ablation benchmark.

Identifiers here are 0-based (bit positions in the set bitmasks used by the
core algorithm); the paper's tables use 1-based ids, which only changes the
labels, not any set cardinality or intersection.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.trace.trace import Trace


@dataclass
class StrippedTrace:
    """Result of stripping a trace.

    Attributes:
        trace: the original trace (kept for the MRCT builder).
        unique_addresses: the distinct addresses in first-occurrence order;
            index in this list is the reference's identifier.
        id_of: mapping from address to identifier.
        id_sequence: the original trace rewritten as identifiers.
        address_bits: significant address width (copied from the trace).
    """

    trace: Trace
    unique_addresses: List[int]
    id_of: Dict[int, int]
    id_sequence: Sequence[int]
    address_bits: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.address_bits:
            self.address_bits = self.trace.address_bits

    @property
    def n(self) -> int:
        """Original trace length (the paper's N)."""
        return len(self.trace)

    @property
    def n_unique(self) -> int:
        """Number of unique references (the paper's N')."""
        return len(self.unique_addresses)

    def address(self, identifier: int) -> int:
        """Address of the unique reference with the given identifier."""
        return self.unique_addresses[identifier]

    def occurrences(self, identifier: int) -> List[int]:
        """Positions in the original trace where this reference occurs."""
        return [i for i, ident in enumerate(self.id_sequence) if ident == identifier]

    def __repr__(self) -> str:
        return f"<StrippedTrace N={self.n} N'={self.n_unique}>"


def strip_trace(trace: Trace) -> StrippedTrace:
    """Strip a trace using a hash table (linear time).

    This is the implementation the paper recommends in section 2.4.
    """
    id_of: Dict[int, int] = {}
    unique: List[int] = []
    ids = array("l", bytes(0))
    append_id = ids.append
    for addr in trace:
        ident = id_of.get(addr)
        if ident is None:
            ident = len(unique)
            id_of[addr] = ident
            unique.append(addr)
        append_id(ident)
    return StrippedTrace(
        trace=trace,
        unique_addresses=unique,
        id_of=id_of,
        id_sequence=ids,
    )


def strip_trace_numpy(trace: Trace) -> StrippedTrace:
    """Strip a trace with NumPy (vectorized ``np.unique`` id assignment).

    ``np.unique`` orders unique addresses by *value*; re-ranking the
    sorted uniques by their first-occurrence position recovers exactly
    the identifier assignment of :func:`strip_trace`, so the two are
    interchangeable (property-tested).  Addresses spanning fewer than
    2^16 words are sorted as ``uint16`` offsets from the smallest one,
    where NumPy's stable sort is a radix sort; the result is the same.
    Raises ``ImportError`` when NumPy is unavailable — use
    :func:`strip_trace_auto` for the dispatching front door.
    """
    import numpy as np

    addresses = np.frombuffer(trace.addresses, dtype=np.int64)
    if len(addresses) == 0:
        return StrippedTrace(
            trace=trace, unique_addresses=[], id_of={}, id_sequence=array("l")
        )
    base = int(addresses.min())
    if int(addresses.max()) - base < 1 << 16:
        sorted_offsets, first_index, inverse = np.unique(
            (addresses - base).astype(np.uint16),
            return_index=True,
            return_inverse=True,
        )
        sorted_unique = sorted_offsets.astype(np.int64) + base
    else:
        sorted_unique, first_index, inverse = np.unique(
            addresses, return_index=True, return_inverse=True
        )
    # Rank the value-sorted uniques by first occurrence: identifier k is
    # the k-th distinct address to appear, as in the hash-table strip.
    occurrence_order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(sorted_unique), dtype=np.int64)
    rank[occurrence_order] = np.arange(len(sorted_unique), dtype=np.int64)
    ids = array("l", bytes(0))
    ids.frombytes(
        np.ascontiguousarray(rank[inverse].astype(f"=i{ids.itemsize}")).tobytes()
    )
    unique = sorted_unique[occurrence_order].tolist()
    return StrippedTrace(
        trace=trace,
        unique_addresses=unique,
        id_of={addr: ident for ident, addr in enumerate(unique)},
        id_sequence=ids,
    )


def strip_trace_auto(trace: Trace) -> StrippedTrace:
    """Strip with NumPy when it is installed, at every trace length.

    Falls back to the hash-table :func:`strip_trace` without NumPy; both
    paths produce identical :class:`StrippedTrace` objects.
    """
    try:
        return strip_trace_numpy(trace)
    except ImportError:
        return strip_trace(trace)


def strip_trace_sorted(trace: Trace) -> StrippedTrace:
    """Strip a trace by sorting (the ``N log N`` variant of section 2.4).

    Produces identifiers in the same first-occurrence order as
    :func:`strip_trace` so the two are interchangeable; exists so the
    ablation bench can compare the costs of the two strategies.
    """
    # Sort (address, position) pairs; the first position of each address
    # run is its first occurrence.
    order = sorted(range(len(trace)), key=lambda i: (trace[i], i))
    first_pos: List[tuple] = []
    prev_addr = None
    for i in order:
        addr = trace[i]
        if addr != prev_addr:
            first_pos.append((i, addr))
            prev_addr = addr
    # Identifier order = order of first occurrence in the original trace.
    first_pos.sort()
    unique = [addr for _, addr in first_pos]
    id_of = {addr: ident for ident, addr in enumerate(unique)}
    ids = array("l", (id_of[addr] for addr in trace))
    return StrippedTrace(
        trace=trace,
        unique_addresses=unique,
        id_of=id_of,
        id_sequence=ids,
    )
