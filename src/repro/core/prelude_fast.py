"""Fast MRCT builders: NumPy range-OR doubling kernel + Fenwick fallback.

:func:`repro.core.mrct.build_mrct` walks a global LRU stack with
``list.index``/``insert``/``del``, paying O(depth) Python-object work per
occurrence — the sum of stack distances, which dominates cold-trace wall
clock now that the postlude is vectorized.  This module provides three
exact replacements:

* :func:`build_mrct_fast` — a NumPy kernel.  Conflict sets are
  materialized directly as rows of a packed ``uint64`` bit matrix.  The
  key identity: occurrence ``q``'s conflict set is the OR of the
  membership rows (``1 << ids[p]``) over the positions ``p`` of its
  window ``(prv[q], q)``, where ``prv[q]`` is the queried reference's
  previous occurrence — every reference seen in the window conflicts,
  and the queried one cannot appear there.  A window is a contiguous
  range of positions and OR is idempotent, so a doubling (sparse) table
  answers each one with two row reads: ``T_k[x]`` holds the OR over
  ``[x, x + 2^k)``, and a window of length ``L`` is the OR of the two
  ``2^floor(log2 L)`` spans flush with its ends.  The table is doubled
  in place one level at a time, so the whole build is O(N·words·log L)
  word ORs in one ``(N, words)`` table, at every row width.
* :func:`build_mrct_fenwick` — pure Python, no NumPy: a Fenwick
  (order-statistic) tree over trace positions yields each occurrence's
  stack distance in O(log N), and an OR segment tree over "current last
  occurrence" positions yields the conflict set itself in O(log N)
  bigint ORs — O(N log N) total versus ``build_mrct``'s O(N·depth).
* :func:`build_packed_mrct` — the fused-pipeline product: the same rows
  as ``build_mrct_fast`` but deduplicated with integer weights into a
  :class:`PackedMRCT`, which the vectorized postlude consumes zero-copy
  (no bigint round-trip, no re-packing).

All three are exact: ``build_mrct_fast`` and ``build_mrct_fenwick``
reproduce ``build_mrct``'s table including per-reference occurrence
order (property-tested), and ``PackedMRCT`` preserves the weighted
multiset of ``(identifier, conflict set)`` pairs, which is all any
histogram engine observes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List

from repro.core.mrct import MRCT, build_mrct
from repro.obs.recorder import NULL_RECORDER
from repro.trace.strip import StrippedTrace

try:  # pragma: no cover - trivial import guard
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None


#: Bytes of table rows doubled (and window rows gathered) per NumPy
#: call.  Chunks narrower than the doubling span never overlap their
#: source, and wider ones cost NumPy one chunk-sized overlap copy, never
#: a full-table one; a cache-sized chunk keeps both cheap.
_CHUNK_BYTES = 1 << 20

#: Without NumPy, traces with at least this many unique references take
#: the Fenwick builder.  ``build_mrct`` costs N x the mean stack depth,
#: which grows with N'; the Fenwick builder costs N x log N tree steps.
#: Both scale with N, so the crossover sits at an N'.  Measured (best of
#: 2, classic vs Fenwick): ``fir.data`` (N'=544) 97 vs 194 ms and
#: ``ucbqsort.data`` (535) 127 vs 197 ms, but ``qurt.data`` (577) 74 vs
#: 12 ms and ``blit.data`` (3,169) 627 vs 56 ms; a minimum-N gate on top
#: chose no better on the PowerStone traces or the synthetic panel.
FENWICK_MIN_UNIQUE = 560


@dataclass(eq=False)
class PackedMRCT:
    """The MRCT as a deduplicated packed bit matrix (fused-engine form).

    Attributes:
        matrix: ``(rows, words)`` uint64 array; row ``r`` is a conflict
            bit-vector packed little-endian, 64 identifiers per word.
        idents: ``(rows,)`` int64 array; ``idents[r]`` is the identifier
            whose occurrences produced row ``r``.
        weights: ``(rows,)`` int64 array; number of occurrences that
            produced this exact ``(identifier, conflict set)`` pair.
        n_unique: number of unique references (bit-vector width).

    Rows are sorted lexicographically by ``(identifier, conflict
    words)`` — the deterministic ``np.unique`` order — so equal inputs
    produce byte-equal packed tables (stable store artifacts).  Trace
    order is *not* preserved: the packed form is a weighted multiset,
    which is exactly what the histogram postlude consumes.
    """

    matrix: "object"
    idents: "object"
    weights: "object"
    n_unique: int

    @property
    def n_rows(self) -> int:
        """Number of distinct ``(identifier, conflict set)`` rows."""
        return int(self.matrix.shape[0])

    @property
    def words(self) -> int:
        """uint64 words per row (``ceil(n_unique / 64)``)."""
        return int(self.matrix.shape[1])

    @property
    def total_conflict_sets(self) -> int:
        """Total non-cold occurrences represented (sum of weights)."""
        return int(self.weights.sum()) if self.n_rows else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedMRCT):
            return NotImplemented
        return (
            self.n_unique == other.n_unique
            and _np.array_equal(self.matrix, other.matrix)
            and _np.array_equal(self.idents, other.idents)
            and _np.array_equal(self.weights, other.weights)
        )

    def to_mrct(self) -> MRCT:
        """Expand back to the bigint :class:`MRCT` form.

        The weighted rows are replayed ``weight`` times each, grouped by
        identifier in packed-row order.  The result is multiset-equal to
        the original table but does *not* preserve trace order — use it
        only for consumers (the serial engine) whose output depends on
        the multiset alone.
        """
        table: List[List[int]] = [[] for _ in range(self.n_unique)]
        nbytes = self.words * 8
        raw = self.matrix.tobytes()
        idents = self.idents.tolist()
        weights = self.weights.tolist()
        for row in range(self.n_rows):
            value = int.from_bytes(raw[row * nbytes : (row + 1) * nbytes], "little")
            table[idents[row]].extend([value] * weights[row])
        return MRCT(sets=table, n_unique=self.n_unique)

    def __repr__(self) -> str:
        return (
            f"<PackedMRCT refs={self.n_unique} rows={self.n_rows} "
            f"occurrences={self.total_conflict_sets}>"
        )


def _ids_array(stripped: StrippedTrace):
    """The stripped id sequence as an int64 NumPy array (zero-copy when
    the underlying ``array`` already holds 8-byte items)."""
    seq = stripped.id_sequence
    if isinstance(seq, array) and seq.itemsize == 8:
        return _np.frombuffer(seq, dtype=_np.int64)
    return _np.asarray(seq, dtype=_np.int64)


def _previous_occurrences(ids, n_unique):
    """``prv[i]`` = previous position of ``ids[i]``, or -1 if cold.

    A stable argsort groups equal identifiers with positions ascending,
    so each group's predecessor relation is a single shifted compare.
    Identifiers that fit 16 bits are sorted as ``uint16``, which NumPy's
    stable sort handles with a radix sort (same permutation, ~5x faster).
    """
    n = ids.shape[0]
    keys = ids.astype(_np.uint16) if n_unique <= 1 << 16 else ids
    order = _np.argsort(keys, kind="stable")
    prv = _np.full(n, -1, dtype=_np.int64)
    if n > 1:
        same = ids[order[1:]] == ids[order[:-1]]
        prv[order[1:][same]] = order[:-1][same]
    return prv


def _member_rows(ids, nwords):
    """One packed membership row (``1 << ident``) per trace position."""
    count = ids.shape[0]
    member = _np.zeros((count, nwords), dtype=_np.uint64)
    idents = ids.astype(_np.uint64)
    flat = _np.arange(count, dtype=_np.int64) * nwords + (ids >> 6)
    member.reshape(-1)[flat] = _np.uint64(1) << (idents & _np.uint64(63))
    return member


def _conflict_rows(ids, n_unique):
    """All non-cold conflict sets as a packed ``(rows, words)`` matrix.

    Returns ``(rows, noncold)`` where ``noncold`` holds the trace
    positions (ascending) that produced each row; ``ids[noncold]`` are
    the corresponding identifiers.  Occurrence ``q``'s conflict set is
    the OR of the member rows over its window ``s = prv[q] + 1 ... q - 1``
    (see module docstring), answered from a doubling table: with the
    window length ``L`` and ``k = floor(log2 L)``, the row is
    ``T_k[s] | T_k[q - 2^k]``, two spans of ``2^k`` positions that
    cover the window exactly (OR is idempotent, so their overlap is
    harmless).  Queries are bucketed by ``k``; the table is doubled in
    place level by level, ``T_{k+1}[x] = T_k[x] | T_k[x + 2^k]``, and
    each level's queries are answered with one gather before the next
    doubling.  Cost O(N·words·log L), memory one ``(N, words)`` table
    plus the output rows.
    """
    n = int(ids.shape[0])
    nwords = (n_unique + 63) // 64
    prv = _previous_occurrences(ids, n_unique)
    noncold = _np.nonzero(prv >= 0)[0]
    rows = _np.zeros((noncold.shape[0], nwords), dtype=_np.uint64)
    starts = prv[noncold] + 1
    lengths = noncold - starts
    live = _np.nonzero(lengths > 0)[0]  # empty window => conflict set stays 0
    if live.shape[0] == 0:
        return rows, noncold
    # floor(log2 L) in exact integers: the number of powers of two <= L.
    powers = _np.left_shift(1, _np.arange(63, dtype=_np.int64))
    levels = (_np.searchsorted(powers, lengths[live], side="right") - 1).astype(
        _np.uint8
    )
    order = _np.argsort(levels, kind="stable")  # radix sort on uint8 keys
    live = live[order]
    bounds = _np.searchsorted(levels[order], _np.arange(int(levels.max()) + 2))
    # Levels >= k read only rows inside their queries' windows: from the
    # first window start to the last window end, so each doubling updates
    # just the rows x in [first[begin], last[begin] - span].
    first = _np.minimum.accumulate(starts[live][::-1])[::-1]
    last = _np.maximum.accumulate(noncold[live][::-1])[::-1]
    table = _member_rows(ids, nwords)
    chunk = max(1, _CHUNK_BYTES // (8 * nwords))
    span = 1
    for level in range(bounds.shape[0] - 1):
        begin, end = int(bounds[level]), int(bounds[level + 1])
        if level:
            # T[x] |= T[x + half] in ascending chunks: each reads only
            # rows that no earlier chunk has written.
            half = span
            span *= 2
            stop = int(last[begin]) - span + 1
            for lo in range(int(first[begin]), stop, chunk):
                hi = min(lo + chunk, stop)
                _np.bitwise_or(
                    table[lo:hi], table[lo + half : hi + half], out=table[lo:hi]
                )
        for lo in range(begin, end, chunk):
            picked = live[lo : min(lo + chunk, end)]
            spans = _np.take(table, starts[picked], axis=0)
            spans |= _np.take(table, noncold[picked] - span, axis=0)
            rows[picked] = spans
    return rows, noncold


def build_mrct_fast(stripped: StrippedTrace) -> MRCT:
    """Build the exact bigint MRCT with the NumPy doubling kernel.

    Produces a table identical to :func:`repro.core.mrct.build_mrct` —
    same sets, same per-reference occurrence order — in O(log L) vector
    passes instead of O(sum of stack distances) Python-object work.
    Raises ``RuntimeError`` when NumPy is unavailable; use
    :func:`build_mrct_auto` for the dispatching front door.
    """
    if _np is None:
        raise RuntimeError("build_mrct_fast requires NumPy; use build_mrct_auto")
    n_unique = stripped.n_unique
    table: List[List[int]] = [[] for _ in range(n_unique)]
    if stripped.n == 0:
        return MRCT(sets=table, n_unique=n_unique)
    ids = _ids_array(stripped)
    rows, noncold = _conflict_rows(ids, n_unique)
    nbytes = rows.shape[1] * 8
    raw = rows.tobytes()
    from_bytes = int.from_bytes
    for row, ident in enumerate(ids[noncold].tolist()):
        offset = row * nbytes
        table[ident].append(from_bytes(raw[offset : offset + nbytes], "little"))
    return MRCT(sets=table, n_unique=n_unique)


def build_packed_mrct(stripped: StrippedTrace, recorder=NULL_RECORDER) -> PackedMRCT:
    """Build the deduplicated packed MRCT for the fused vectorized path.

    Same kernel as :func:`build_mrct_fast`, but instead of expanding to
    bigints the per-occurrence rows are deduplicated by ``(identifier,
    conflict words)`` via ``np.unique(axis=0)`` with occurrence counts
    as integer weights.  Zero-conflict rows are kept — they carry the
    distance-0 histogram mass.  ``recorder`` gets per-kernel phase
    timers (``prelude:conflict-rows``, ``prelude:dedup-rows``) for
    ``repro profile``.
    """
    if _np is None:
        raise RuntimeError("build_packed_mrct requires NumPy; use build_mrct_auto")
    n_unique = stripped.n_unique
    nwords = (n_unique + 63) // 64
    if stripped.n == 0 or n_unique == 0:
        return PackedMRCT(
            matrix=_np.zeros((0, nwords), dtype=_np.uint64),
            idents=_np.zeros(0, dtype=_np.int64),
            weights=_np.zeros(0, dtype=_np.int64),
            n_unique=n_unique,
        )
    ids = _ids_array(stripped)
    with recorder.phase("prelude:conflict-rows"):
        rows, noncold = _conflict_rows(ids, n_unique)
    with recorder.phase("prelude:dedup-rows"):
        return _dedup_rows(rows, ids[noncold], n_unique)


def _mix64(values):
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic).

    A plain multiplier dot product is not enough here: a set bit at
    position ``b`` contributes ``multiplier << b``, so high bits shed
    almost all multiplier entropy and near-identical conflict rows
    collide routinely.  The shift-xor-multiply finalizer mixes every
    input bit into every output bit first.
    """
    values = (values ^ (values >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return values ^ (values >> _np.uint64(31))


def _row_hashes(rows, idents):
    """A content hash per ``(identifier, conflict row)`` pair.

    Equal pairs always hash equal; unequal pairs almost never do.  The
    caller verifies hash groups exactly, so a collision costs speed
    (full ``np.unique`` fallback), never correctness.
    """
    nwords = rows.shape[1]
    golden = 0x9E3779B97F4A7C15
    hashes = _mix64(idents.astype(_np.uint64) ^ _np.uint64(golden))
    for word in range(nwords):
        salt = _np.uint64(((word + 1) * golden) & 0xFFFFFFFFFFFFFFFF)
        hashes = hashes * _np.uint64(0x100000001B3) + _mix64(rows[:, word] + salt)
    return hashes


def _dedup_rows(rows, idents, n_unique) -> PackedMRCT:
    """Deduplicate per-occurrence rows into a weighted :class:`PackedMRCT`.

    A vectorized content hash finds duplicate ``(identifier, row)``
    pairs; hash groups are verified exactly against their first member
    (a hash collision falls back to a full ``np.unique(axis=0)``), so
    the result is always an exact weighted multiset of the input.  When
    duplication is too scarce to pay for the dedup (under 1/8 of rows)
    the rows are returned in trace order with unit weights — the time
    saved outweighs the postlude's extra row work.  Otherwise each
    distinct pair appears once, weighted
    by its occurrence count, in a content-derived deterministic order —
    equal traces yield byte-equal artifacts either way.  Row order
    carries no meaning: the postlude re-sorts rows by BCAT position.
    """
    total = rows.shape[0]
    nwords = rows.shape[1]
    if total == 0:
        return PackedMRCT(
            matrix=rows, idents=idents, weights=_np.zeros(0, dtype=_np.int64),
            n_unique=n_unique,
        )
    hashes = _row_hashes(rows, idents)
    _, first, inverse, counts = _np.unique(
        hashes, return_index=True, return_inverse=True, return_counts=True
    )
    # Dedup must pay for itself: the verification pass plus the gathers
    # cost about as much as the postlude walking ~12% extra rows, so low
    # duplication ships the rows as-is with unit weights.
    if total - first.shape[0] < total // 8:
        return PackedMRCT(
            matrix=rows,
            idents=idents,
            weights=_np.ones(total, dtype=_np.int64),
            n_unique=n_unique,
        )
    representative = first[inverse]
    exact = _np.array_equal(rows, rows[representative]) and _np.array_equal(
        idents, idents[representative]
    )
    if exact:
        return PackedMRCT(
            matrix=_np.ascontiguousarray(rows[first]),
            idents=_np.ascontiguousarray(idents[first]),
            weights=counts.astype(_np.int64),
            n_unique=n_unique,
        )
    # Hash collision (vanishingly rare): exact dedup on all columns.
    combo = _np.empty((total, nwords + 1), dtype=_np.uint64)
    combo[:, 0] = idents.astype(_np.uint64)
    combo[:, 1:] = rows
    unique_combo, exact_counts = _np.unique(combo, axis=0, return_counts=True)
    return PackedMRCT(
        matrix=_np.ascontiguousarray(unique_combo[:, 1:]),
        idents=unique_combo[:, 0].astype(_np.int64),
        weights=exact_counts.astype(_np.int64),
        n_unique=n_unique,
    )


def _fenwick_add(tree: List[int], pos: int, delta: int) -> None:
    while pos < len(tree):
        tree[pos] += delta
        pos += pos & -pos


def _fenwick_count_below(tree: List[int], pos: int) -> int:
    """Number of active positions strictly below ``pos`` (0-based)."""
    total = 0
    while pos > 0:
        total += tree[pos]
        pos -= pos & -pos
    return total


def _segment_assign(tree: List[int], size: int, pos: int, value: int) -> None:
    node = size + pos
    tree[node] = value
    node >>= 1
    while node:
        tree[node] = tree[2 * node] | tree[2 * node + 1]
        node >>= 1


def _segment_or(tree: List[int], size: int, lo: int, hi: int) -> int:
    """OR of leaves in the inclusive range ``[lo, hi]``."""
    result = 0
    lo += size
    hi += size + 1
    while lo < hi:
        if lo & 1:
            result |= tree[lo]
            lo += 1
        if hi & 1:
            hi -= 1
            result |= tree[hi]
        lo >>= 1
        hi >>= 1
    return result


def build_mrct_fenwick(stripped: StrippedTrace) -> MRCT:
    """Build the exact MRCT with O(N log N) tree updates, no NumPy.

    Two trees indexed by trace position:

    * a Fenwick (order-statistic) tree counting *active* positions — the
      current last occurrence of every reference seen so far — gives the
      occurrence's stack distance in O(log N) integer adds;
    * an OR segment tree whose active leaf ``p`` holds ``1 << ids[p]``
      gives the conflict set itself as a range-OR over the window
      ``(prv, i)`` in O(log N) bigint ORs.

    A reference's re-occurrence moves its active position (clear old
    leaf, set new), so the range-OR sees each *distinct* conflicting
    reference exactly once and never the queried reference itself
    (its active position is ``prv``, outside the open window).
    """
    n_unique = stripped.n_unique
    table: List[List[int]] = [[] for _ in range(n_unique)]
    ids = stripped.id_sequence
    n = len(ids)
    if n == 0:
        return MRCT(sets=table, n_unique=n_unique)
    size = 1
    while size < n:
        size <<= 1
    or_tree: List[int] = [0] * (2 * size)
    fenwick: List[int] = [0] * (n + 1)
    last: List[int] = [-1] * n_unique
    for i, ident in enumerate(ids):
        previous = last[ident]
        if previous >= 0:
            distance = _fenwick_count_below(fenwick, i) - _fenwick_count_below(
                fenwick, previous + 1
            )
            conflict = (
                _segment_or(or_tree, size, previous + 1, i - 1) if distance else 0
            )
            table[ident].append(conflict)
            _segment_assign(or_tree, size, previous, 0)
            _fenwick_add(fenwick, previous + 1, -1)
        _segment_assign(or_tree, size, i, 1 << ident)
        _fenwick_add(fenwick, i + 1, 1)
        last[ident] = i
    return MRCT(sets=table, n_unique=n_unique)


def build_mrct_auto(stripped: StrippedTrace) -> MRCT:
    """Pick the fastest exact MRCT builder for this trace.

    With NumPy, :func:`build_mrct_fast` at every size: it beats the
    classic builder on all 24 PowerStone traces, down to 1,153 refs.
    Without NumPy, a trace with at least ``FENWICK_MIN_UNIQUE`` unique
    references takes :func:`build_mrct_fenwick` and the rest the classic
    :func:`repro.core.mrct.build_mrct` (shallow stacks, lowest
    constants).  All three produce identical tables.
    """
    if _np is not None:
        return build_mrct_fast(stripped)
    if stripped.n_unique >= FENWICK_MIN_UNIQUE:
        return build_mrct_fenwick(stripped)
    return build_mrct(stripped)
