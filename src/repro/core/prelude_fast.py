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
  (no bigint round-trip, no re-packing).  Its columns are the
  identifiers relabelled in bit-reversed address order, so every BCAT
  node is one contiguous column range.  :func:`pack_mrct` gives a
  bigint MRCT (the ``python`` prelude's) the same form.

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

#: Widest identifier count whose rows dedup on an exact one-word key.
#: A row of N' <= 58 identifiers holds bits 0..57 only, so ``row << 6``
#: fits a ``uint64`` and leaves six bits for the identifier (< 58 < 64):
#: the key ``row << 6 | identifier`` is the pair itself.  Set by the key
#: width, not tuned.
_EXACT_KEY_MAX_UNIQUE = 58


@dataclass(eq=False)
class PackedMRCT:
    """The MRCT as a deduplicated packed bit matrix (fused-engine form).

    Attributes:
        matrix: ``(rows, words)`` uint64 array; row ``r`` is a conflict
            bit-vector packed little-endian, 64 columns per word.
        idents: ``(rows,)`` int64 array; ``idents[r]`` is the column of
            the reference whose occurrences produced row ``r``.
        weights: ``(rows,)`` int64 array; number of occurrences that
            produced this exact ``(identifier, conflict set)`` pair.
        n_unique: number of unique references (bit-vector width).
        column_ids: ``(n_unique,)`` int64 array; ``column_ids[c]`` is the
            stripped identifier in column ``c``.
        keys: ``(n_unique,)`` uint64 array, ascending; ``keys[c]`` is
            column ``c``'s low ``address_bits`` address bits, reversed.
        address_bits: the trace's address width (the BCAT's depth).

    Columns are the stripped identifiers relabelled in ascending key
    order, so the references that share their low ``l`` address bits
    (one BCAT node at level ``l``) hold one contiguous column range:
    the keys whose top ``l`` bits agree.

    The row order is an internal detail of the dedup (see
    :func:`_dedup_rows`): by conflict row then identifier for one-word
    rows of at most 58 identifiers, by content hash for wider rows, and
    trace order when too few rows repeat to dedup.  Equal inputs give
    equal tables, but the order is never stored and carries no meaning:
    the packed form is a weighted multiset, which is exactly what the
    histogram postlude consumes.
    """

    matrix: "object"
    idents: "object"
    weights: "object"
    n_unique: int
    column_ids: "object"
    keys: "object"
    address_bits: int

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
            and self.address_bits == other.address_bits
            and _np.array_equal(self.matrix, other.matrix)
            and _np.array_equal(self.idents, other.idents)
            and _np.array_equal(self.weights, other.weights)
            and _np.array_equal(self.column_ids, other.column_ids)
            and _np.array_equal(self.keys, other.keys)
        )

    def to_mrct(self) -> MRCT:
        """Expand back to the bigint :class:`MRCT` form.

        Columns map back to stripped identifiers, and the weighted rows
        are replayed ``weight`` times each, grouped by identifier in
        packed-row order.  The result is multiset-equal to the original
        table but does *not* preserve trace order — use it only for
        consumers (the serial engine) whose output depends on the
        multiset alone.
        """
        table: List[List[int]] = [[] for _ in range(self.n_unique)]
        rows = _permute_columns(
            self.matrix, self.n_unique, _columns_of(self.column_ids)
        )
        nbytes = self.words * 8
        raw = rows.tobytes()
        idents = self.column_ids[self.idents].tolist()
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


#: Each byte value with its eight bits in reverse order.
_REVERSED_BYTES = (
    None
    if _np is None
    else _np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=_np.uint8)
)


def _walk_order(addresses, address_bits: int):
    """The walk's column order: ``(column_ids, keys)``.

    Each identifier's key is its address's low ``address_bits`` bits,
    reversed, so level ``l`` of the BCAT groups identifiers by the key's
    top ``l`` bits.  ``column_ids`` sorts the identifiers by key (stably)
    and ``keys`` are the sorted keys: every BCAT node at every level is
    then one contiguous column range.
    """
    values = _np.asarray(addresses, dtype=_np.uint64).astype("<u8")
    # Reverse the bits in each byte and the bytes in each word: bit b of
    # the address lands on bit 63 - b, then the shift keeps bits < width.
    flipped = _REVERSED_BYTES[values.view(_np.uint8).reshape(-1, 8)[:, ::-1]]
    keys = _np.ascontiguousarray(flipped).view("<u8").reshape(-1).astype(_np.uint64)
    keys >>= _np.uint64(64 - address_bits)
    column_ids = _np.argsort(keys, kind="stable")
    return column_ids, keys[column_ids]


def _columns_of(column_ids):
    """Each stripped identifier's column (the inverse of ``column_ids``)."""
    columns = _np.empty(column_ids.shape[0], dtype=_np.int64)
    columns[column_ids] = _np.arange(column_ids.shape[0], dtype=_np.int64)
    return columns


def _permute_columns(rows, n_unique, sources):
    """Packed rows whose bit ``c`` is bit ``sources[c]`` of ``rows``.

    Unpacks to one byte per bit, so it costs rows x n_unique bytes; only
    the ``python`` prelude route and :meth:`PackedMRCT.to_mrct` use it.
    """
    bits = _np.unpackbits(
        rows.view(_np.uint8), axis=1, count=n_unique, bitorder="little"
    )
    moved = bits[:, sources]
    packed = _np.zeros((rows.shape[0], rows.shape[1] * 8), dtype=_np.uint8)
    packed[:, : (n_unique + 7) // 8] = _np.packbits(moved, axis=1, bitorder="little")
    return packed.view(_np.uint64)


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
    """One packed membership row (``1 << ident``) per trace position.

    Builds its index and bit arrays in place, so at most three
    trace-length temporaries live beside the table."""
    count = ids.shape[0]
    member = _np.zeros((count, nwords), dtype=_np.uint64)
    flat = ids >> 6
    flat += _np.arange(0, count * nwords, nwords, dtype=_np.int64)
    bits = (ids & 63).astype(_np.uint64)
    member.reshape(-1)[flat] = _np.left_shift(_np.uint64(1), bits, out=bits)
    return member


def _conflict_rows(ids, n_unique, columns=None):
    """All non-cold conflict sets as a packed ``(rows, words)`` matrix.

    Returns ``(rows, noncold)`` where ``noncold`` holds the trace
    positions (ascending) that produced each row; ``ids[noncold]`` are
    the corresponding identifiers.  Identifier ``j`` is bit ``j`` of a
    row, or bit ``columns[j]`` when a relabelling ``columns`` is given
    (windows do not depend on labels, so only the membership rows read
    it).  Occurrence ``q``'s conflict set is
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
    table = _member_rows(ids if columns is None else columns[ids], nwords)
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

    Same kernel as :func:`build_mrct_fast`, with identifiers relabelled
    into the walk's column order (:func:`_walk_order`, one gather), so the
    rows come out with BCAT nodes as column ranges.  Instead of expanding
    to bigints the per-occurrence rows are deduplicated by ``(identifier,
    conflict words)`` with occurrence counts as integer weights
    (:func:`_dedup_rows`).  Zero-conflict rows are kept — they carry the
    distance-0 histogram mass.  ``recorder`` gets per-kernel phase
    timers (``prelude:conflict-rows``, ``prelude:dedup-rows``) for
    ``repro profile``.
    """
    if _np is None:
        raise RuntimeError("build_packed_mrct requires NumPy; use build_mrct_auto")
    n_unique = stripped.n_unique
    bits = stripped.address_bits
    column_ids, keys = _walk_order(stripped.unique_addresses, bits)
    if stripped.n == 0 or n_unique == 0:
        rows = _np.zeros((0, (n_unique + 63) // 64), dtype=_np.uint64)
        idents = _np.zeros(0, dtype=_np.int64)
        return _packed(rows, idents, n_unique, column_ids, keys, bits)
    ids = _ids_array(stripped)
    columns = _columns_of(column_ids)
    with recorder.phase("prelude:conflict-rows"):
        rows, noncold = _conflict_rows(ids, n_unique, columns)
    with recorder.phase("prelude:dedup-rows"):
        idents = columns[ids[noncold]]
        return _packed(rows, idents, n_unique, column_ids, keys, bits)


def pack_mrct(mrct: MRCT, addresses, address_bits: int) -> PackedMRCT:
    """Pack a bigint :class:`MRCT` into the deduplicated :class:`PackedMRCT`.

    The ``python`` prelude's way into the packed postlude.  ``addresses``
    are the unique addresses by identifier (``stripped.unique_addresses``)
    and give the walk's column order (:func:`_walk_order`).  Each conflict
    set becomes one little-endian row, grouped by identifier, its bits
    are moved to their columns, and the rows go through the same dedup
    as :func:`build_packed_mrct`, so both preludes hand the walk the same
    weighted multiset in the same columns.
    """
    if _np is None:
        raise RuntimeError("pack_mrct requires NumPy")
    n_unique = mrct.n_unique
    if len(addresses) != n_unique:
        raise ValueError(
            f"MRCT covers {n_unique} unique references, "
            f"the addresses cover {len(addresses)}"
        )
    nwords = (n_unique + 63) // 64
    nbytes = nwords * 8
    raw = bytearray(
        b"".join(
            conflict.to_bytes(nbytes, "little")
            for conflicts in mrct.sets
            for conflict in conflicts
        )
    )
    rows = _np.frombuffer(raw, dtype=_np.uint64).reshape(
        mrct.total_conflict_sets, nwords
    )
    column_ids, keys = _walk_order(addresses, address_bits)
    idents = _np.repeat(
        _columns_of(column_ids), [len(conflicts) for conflicts in mrct.sets]
    )
    rows = _permute_columns(rows, n_unique, column_ids)
    return _packed(rows, idents, n_unique, column_ids, keys, address_bits)


def _packed(rows, idents, n_unique, column_ids, keys, address_bits) -> PackedMRCT:
    """Dedup relabelled rows (:func:`_dedup_rows`) into a :class:`PackedMRCT`."""
    matrix, idents, weights = _dedup_rows(rows, idents, n_unique)
    return PackedMRCT(
        matrix=matrix,
        idents=idents,
        weights=weights,
        n_unique=n_unique,
        column_ids=column_ids,
        keys=keys,
        address_bits=address_bits,
    )


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


def _groups_match(rows, idents, representative) -> bool:
    """Whether every ``(identifier, row)`` pair equals its hash group's
    representative.

    Only rows that are not their own representative are compared, a
    block of ``_CHUNK_BYTES`` at a time, stopping at the first mismatch:
    no copy of the whole row matrix is ever gathered.
    """
    others = _np.flatnonzero(representative != _np.arange(representative.shape[0]))
    targets = representative[others]
    if not _np.array_equal(idents[others], idents[targets]):
        return False
    block = max(1, _CHUNK_BYTES // (8 * rows.shape[1]))
    for start in range(0, others.shape[0], block):
        stop = start + block
        if not _np.array_equal(rows[others[start:stop]], rows[targets[start:stop]]):
            return False
    return True


def _dedup_rows(rows, idents, n_unique):
    """Deduplicate per-occurrence rows into ``(matrix, idents, weights)``.

    Each distinct ``(identifier, row)`` pair appears once, weighted by
    its occurrence count, and every sort uses the narrowest key that is
    still exact:

    * One-word rows of at most ``_EXACT_KEY_MAX_UNIQUE`` identifiers are
      keyed by the pair itself, ``row << 6 | identifier``, in one
      ``uint64``; there is no hash and nothing to verify.  The pairs
      come out in ascending key order: by conflict row, then identifier.
    * Wider rows first count the distinct values of a cheap projection
      of each pair (:func:`_projection_count`).  Equal pairs project
      equal, so that count bounds the distinct pairs from below; when
      it already shows too few duplicates, the rows ship as they are.
      Otherwise they are grouped by a content hash (:func:`_row_hashes`)
      under an unstable ``argsort``, and every group is checked exactly
      against one of its members (:func:`_groups_match`); a hash
      collision falls back to ``np.unique(axis=0)``.  The pairs come out
      in ascending hash order.

    When duplication is too scarce to pay for the dedup (under 1/8 of
    rows) the rows are returned in trace order with unit weights — the
    time saved outweighs the postlude's extra row work.  Equal inputs
    yield equal tables either way.  Row order carries no meaning: the
    postlude counts each row on its own, and the table is never stored.
    """
    total = rows.shape[0]
    nwords = rows.shape[1]
    if total == 0:
        return rows, idents, _np.zeros(0, dtype=_np.int64)
    if n_unique <= _EXACT_KEY_MAX_UNIQUE:
        keys = (rows[:, 0] << _np.uint64(6)) | idents.astype(_np.uint64)
        distinct, counts = _np.unique(keys, return_counts=True)
        if _too_few_duplicates(total, distinct.shape[0]):
            return _unit_weights(rows, idents)
        return (
            (distinct >> _np.uint64(6)).reshape(-1, 1),
            (distinct & _np.uint64(63)).astype(_np.int64),
            counts.astype(_np.int64),
        )
    if _too_few_duplicates(total, _projection_count(rows, idents)):
        return _unit_weights(rows, idents)
    hashes = _row_hashes(rows, idents)
    order = _np.argsort(hashes)
    hashes = hashes[order]
    starts = _np.empty(total, dtype=bool)
    starts[0] = True
    _np.not_equal(hashes[1:], hashes[:-1], out=starts[1:])
    bounds = _np.flatnonzero(starts)
    if _too_few_duplicates(total, bounds.shape[0]):
        return _unit_weights(rows, idents)
    first = order[bounds]  # one member of each hash group
    counts = _np.diff(bounds, append=total)
    representative = _np.empty(total, dtype=_np.intp)
    representative[order] = _np.repeat(first, counts)
    if _groups_match(rows, idents, representative):
        return (
            _np.ascontiguousarray(rows[first]),
            _np.ascontiguousarray(idents[first]),
            counts.astype(_np.int64),
        )
    # Hash collision (vanishingly rare): exact dedup on all columns.
    combo = _np.empty((total, nwords + 1), dtype=_np.uint64)
    combo[:, 0] = idents.astype(_np.uint64)
    combo[:, 1:] = rows
    unique_combo, exact_counts = _np.unique(combo, axis=0, return_counts=True)
    return (
        _np.ascontiguousarray(unique_combo[:, 1:]),
        unique_combo[:, 0].astype(_np.int64),
        exact_counts.astype(_np.int64),
    )


def _projection_count(rows, idents) -> int:
    """Distinct values of ``word 0 ^ identifier << 48`` over the pairs.

    Any function of a pair maps equal pairs to equal values, so this is
    a lower bound on the distinct pairs (where the two fields overlap it
    only loosens).  It reads one word per row instead of hashing every
    word: on the PowerStone data traces it flags the same seven
    unit-weight tables as a projection that adds the row popcount, at a
    third of the cost.
    """
    keys = rows[:, 0] ^ (idents.astype(_np.uint64) << _np.uint64(48))
    keys.sort()
    return int(_np.count_nonzero(keys[1:] != keys[:-1])) + 1


def _too_few_duplicates(total: int, distinct: int) -> bool:
    """Whether dedup would not pay for itself: the verification pass
    plus the gathers cost about as much as the postlude walking ~12%
    extra rows, so low duplication ships the rows as-is."""
    return total - distinct < total // 8


def _unit_weights(rows, idents):
    """The rows as they are, in trace order, each with weight 1."""
    return rows, idents, _np.ones(rows.shape[0], dtype=_np.int64)


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
