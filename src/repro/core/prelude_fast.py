"""Fast MRCT builders: blocked NumPy bit-matrix kernel + Fenwick fallback.

:func:`repro.core.mrct.build_mrct` walks a global LRU stack with
``list.index``/``insert``/``del``, paying O(depth) Python-object work per
occurrence — the sum of stack distances, which dominates cold-trace wall
clock now that the postlude is vectorized.  This module provides three
exact replacements:

* :func:`build_mrct_fast` — a blocked NumPy kernel.  Conflict sets are
  materialized directly as rows of a packed ``uint64`` bit matrix.  The
  key identity: reference ``v`` belongs to occurrence ``i``'s conflict
  set iff ``v``'s last occurrence before ``i`` lies inside the window
  ``(prv[i], i)``, where ``prv[i]`` is the queried reference's previous
  occurrence.  Fixing a block boundary ``M <= i`` with ``prv[i] < M``
  splits the window into ``(prv[i], M)`` — answered from a snapshot of
  last-occurrence positions frozen at ``M`` (a suffix of its
  position-sorted member rows, OR-accumulated once per block) — and
  ``[M, i)``, answered from an in-block prefix-OR accumulate.  Two block
  scales plus a small-window tail (``bitwise_or.reduceat`` over segment
  ranges, or a flattened-window bit scatter when the member matrix would
  be too wide) make every occurrence O(words) vector work instead of
  O(depth) object work.
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
from typing import List, Tuple

from repro.core.mrct import MRCT, build_mrct
from repro.obs.recorder import NULL_RECORDER
from repro.trace.strip import StrippedTrace

try:  # pragma: no cover - trivial import guard
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI lane
    _np = None


#: Block scales for the NumPy kernel.  The coarse pass answers every
#: occurrence whose window crosses a 1024-boundary; the fine pass runs
#: only when the remaining windows are still too long for the reduceat
#: tail's word-op budget.
_BLOCK_SCALES = (1024, 64)

#: The reduceat tail costs (sum of remaining window lengths) x words
#: uint64 ORs; below this budget it finishes the kernel in one call.
_REDUCEAT_OPS_BUDGET = 150_000_000

#: The reduceat tail materializes an (N, words) member matrix; skip it
#: (scatter tail instead) when that would exceed this many bytes.
_REDUCEAT_MEM_BUDGET = 256 * 1024 * 1024

#: Maximum total window length the scatter tail may absorb when the
#: reduceat tail is ruled out by memory; block passes run until the
#: remaining windows fit.  The scatter tail does O(1) work per window
#: position regardless of row width, so this is far looser than the
#: bigint tail budget it replaced.
_SCATTER_WINDOW_BUDGET = 32_000_000

#: Window positions flattened per scatter chunk; bounds the index
#: temporaries at a few hundred MB independent of total tail size.
_SCATTER_CHUNK = 8_000_000

#: Thresholds for preferring the Fenwick builder over ``build_mrct``
#: when NumPy is unavailable.  ``build_mrct`` costs the sum of stack
#: distances (bounded by N·N'), the Fenwick builder a flat O(N log N);
#: small unique-sets keep stacks shallow, so both gates must pass.
FENWICK_MIN_REFS = 8192
FENWICK_MIN_UNIQUE = 256


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


def _previous_occurrences(ids):
    """``prv[i]`` = previous position of ``ids[i]``, or -1 if cold.

    A stable argsort groups equal identifiers with positions ascending,
    so each group's predecessor relation is a single shifted compare.
    """
    n = ids.shape[0]
    order = _np.argsort(ids, kind="stable")
    prv = _np.full(n, -1, dtype=_np.int64)
    if n > 1:
        same = ids[order[1:]] == ids[order[:-1]]
        prv[order[1:][same]] = order[:-1][same]
    return prv


def _block_pass(ids, prv, rows, row_of, queries, scale, n_unique, nwords):
    """Answer every query whose window crosses a ``scale`` boundary.

    Walks the trace in blocks of ``scale`` positions, maintaining ``L``,
    the last occurrence of each identifier *strictly before* the current
    block.  A query at position ``q`` with ``prv[q] < M`` (``M`` the
    block start) decomposes as::

        row[q] = suffix_or[rank] | prefix_or[q - M]

    where ``suffix_or`` accumulates the member rows of the snapshot
    idents sorted by ``L`` (idents with ``L > prv[q]`` — the queried
    reference itself is excluded because its ``L`` *is* ``prv[q]``) and
    ``prefix_or[t]`` is the OR of the block's first ``t`` member rows
    (again excluding the queried reference, whose only occurrences in
    ``[M, q)`` would contradict ``prv[q] < M``).  Returns the queries
    whose windows stayed inside one block, untouched.
    """
    n = ids.shape[0]
    starts = (queries // scale) * scale
    handled_mask = prv[queries] < starts
    handled = queries[handled_mask]
    pending = queries[~handled_mask]
    if handled.shape[0] == 0:
        return pending
    last = _np.full(n_unique, -1, dtype=_np.int64)
    n_blocks = (n + scale - 1) // scale
    bounds = _np.searchsorted(handled // scale, _np.arange(n_blocks + 1))
    for block in range(n_blocks):
        begin = block * scale
        end = min(begin + scale, n)
        lo, hi = int(bounds[block]), int(bounds[block + 1])
        if hi > lo:
            queries_here = handled[lo:hi]
            # Snapshot: idents seen before this block, sorted by their
            # last occurrence; suffix ORs answer "everything whose last
            # occurrence exceeds prv[q]" with one gather.
            seen = _np.nonzero(last >= 0)[0]
            order = _np.argsort(last[seen], kind="stable")
            sorted_last = last[seen][order]
            sorted_ids = seen[order].astype(_np.uint64)
            nv = sorted_ids.shape[0]
            suffix = _np.zeros((nv + 1, nwords), dtype=_np.uint64)
            if nv:
                member = _member_rows(sorted_ids, nwords)
                suffix[:nv] = _np.bitwise_or.accumulate(member[::-1], axis=0)[::-1]
            # In-block prefix ORs: prefix[t] = distinct ids in [begin, begin+t).
            block_member = _member_rows(ids[begin:end].astype(_np.uint64), nwords)
            prefix = _np.zeros((block_member.shape[0] + 1, nwords), dtype=_np.uint64)
            prefix[1:] = _np.bitwise_or.accumulate(block_member, axis=0)
            rank = _np.searchsorted(sorted_last, prv[queries_here], side="right")
            rows[row_of[queries_here]] = suffix[rank] | prefix[queries_here - begin]
        # Advance the snapshot past this block: last occurrence within
        # the block via np.unique on the reversed slice (first index in
        # the reversal is the last occurrence; fancy assignment with
        # duplicate indices would be undefined).
        blk_ids = ids[begin:end]
        uniq, first_rev = _np.unique(blk_ids[::-1], return_index=True)
        last[uniq] = (end - 1) - first_rev
    return pending


def _member_rows(idents_u64, nwords):
    """One packed membership row (``1 << ident``) per identifier."""
    count = idents_u64.shape[0]
    member = _np.zeros((count, nwords), dtype=_np.uint64)
    member[_np.arange(count), (idents_u64 >> _np.uint64(6)).astype(_np.int64)] = (
        _np.uint64(1) << (idents_u64 & _np.uint64(63))
    )
    return member


def _reduceat_tail(ids, prv, rows, row_of, pending, nwords):
    """Finish the remaining queries with one ``bitwise_or.reduceat``.

    Each window ``(prv[q], q)`` is a *contiguous* range of trace
    positions, so the OR of its member rows is a ``reduceat`` segment
    over the per-position membership matrix.  Segments are passed as
    interleaved (start, end) index pairs; the odd outputs (the gaps
    between windows) are discarded.  Cost: (sum of window lengths) x
    words uint64 ORs, independent of how the windows overlap.
    """
    starts = prv[pending] + 1
    ends = pending
    nonempty = starts < ends  # empty window => conflict set stays 0
    count = int(nonempty.sum())
    if count == 0:
        return
    member = _member_rows(ids.astype(_np.uint64), nwords)
    indices = _np.empty(2 * count, dtype=_np.int64)
    indices[0::2] = starts[nonempty]
    indices[1::2] = ends[nonempty]
    segments = _np.bitwise_or.reduceat(member, indices, axis=0)
    rows[row_of[pending[nonempty]]] = segments[0::2]


def _scatter_tail(ids, prv, rows, row_of, pending, nwords):
    """Finish the remaining queries by scattering membership bits.

    The wide-matrix replacement for the reduceat tail (which would
    materialize an (N, words) member matrix): every remaining window
    ``(prv[q], q)`` is flattened into one run of trace positions — a
    single cumsum over per-window start corrections — and each
    position's membership bit is ORed into its query's row word with
    ``np.bitwise_or.at``.  O(1) work per window position regardless of
    row width; chunked on window boundaries so the flattened index
    temporaries stay bounded.
    """
    starts = prv[pending] + 1
    lengths = pending - starts
    nonempty = lengths > 0  # empty window => conflict set stays 0
    if not nonempty.any():
        return
    starts = starts[nonempty]
    lengths = lengths[nonempty]
    targets = row_of[pending[nonempty]]
    boundaries = _np.cumsum(lengths)
    nqueries = lengths.shape[0]
    lo = 0
    while lo < nqueries:
        base = int(boundaries[lo - 1]) if lo else 0
        hi = int(
            _np.searchsorted(boundaries, base + _SCATTER_CHUNK, side="right")
        )
        hi = max(hi, lo + 1)  # a single window may exceed the chunk size
        s = starts[lo:hi]
        length = lengths[lo:hi]
        count = int(boundaries[hi - 1]) - base
        # flat = [s0, s0+1, ..., s0+L0-1, s1, s1+1, ...]: ones everywhere,
        # each window boundary corrected to jump from the previous
        # window's last position to the next window's start.
        flat = _np.ones(count, dtype=_np.int64)
        flat[0] = s[0]
        if hi - lo > 1:
            bnd = _np.cumsum(length[:-1])
            flat[bnd] = s[1:] - (s[:-1] + length[:-1] - 1)
        flat = _np.cumsum(flat)
        row_idx = _np.repeat(targets[lo:hi], length)
        pos_ids = ids[flat].astype(_np.uint64)
        word_idx = (pos_ids >> _np.uint64(6)).astype(_np.int64)
        bits = _np.uint64(1) << (pos_ids & _np.uint64(63))
        _np.bitwise_or.at(rows, (row_idx, word_idx), bits)
        lo = hi


def _conflict_rows(ids, n_unique):
    """All non-cold conflict sets as a packed ``(rows, words)`` matrix.

    Returns ``(rows, noncold)`` where ``noncold`` holds the trace
    positions (ascending) that produced each row; ``ids[noncold]`` are
    the corresponding identifiers.  Row ``r``'s window ``(prv, pos)`` is
    answered by the cheapest applicable strategy: coarse block pass,
    fine block pass, or the bigint tail (see module docstring).
    """
    n = int(ids.shape[0])
    nwords = (n_unique + 63) // 64
    prv = _previous_occurrences(ids)
    noncold = _np.nonzero(prv >= 0)[0]
    rows = _np.zeros((noncold.shape[0], max(nwords, 1)), dtype=_np.uint64)
    if noncold.shape[0] == 0:
        return rows[:, :nwords], noncold
    row_of = _np.zeros(n, dtype=_np.int64)
    row_of[noncold] = _np.arange(noncold.shape[0], dtype=_np.int64)
    use_reduceat = n * nwords * 8 <= _REDUCEAT_MEM_BUDGET
    tail_budget = (
        _REDUCEAT_OPS_BUDGET // nwords if use_reduceat else _SCATTER_WINDOW_BUDGET
    )
    pending = noncold
    for scale in _BLOCK_SCALES:
        if scale >= n or pending.shape[0] == 0:
            break
        remaining = int(_np.sum(pending - prv[pending])) - int(pending.shape[0])
        if remaining <= tail_budget:
            break  # cheap enough to finish in one tail call
        pending = _block_pass(ids, prv, rows, row_of, pending, scale, n_unique, nwords)
    if pending.shape[0]:
        if use_reduceat:
            _reduceat_tail(ids, prv, rows, row_of, pending, nwords)
        else:
            _scatter_tail(ids, prv, rows, row_of, pending, nwords)
    return rows, noncold


def build_mrct_fast(stripped: StrippedTrace) -> MRCT:
    """Build the exact bigint MRCT with the blocked NumPy kernel.

    Produces a table identical to :func:`repro.core.mrct.build_mrct` —
    same sets, same per-reference occurrence order — in O(N/scale)
    vector passes instead of O(sum of stack distances) Python-object
    work.  Raises ``RuntimeError`` when NumPy is unavailable; use
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
    Without NumPy, a long, reuse-heavy trace takes
    :func:`build_mrct_fenwick` and the rest the classic
    :func:`repro.core.mrct.build_mrct` (lowest constants).  All three
    produce identical tables.
    """
    if _np is not None:
        return build_mrct_fast(stripped)
    if stripped.n >= FENWICK_MIN_REFS and stripped.n_unique >= FENWICK_MIN_UNIQUE:
        return build_mrct_fenwick(stripped)
    return build_mrct(stripped)
