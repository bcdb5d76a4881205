"""Vectorized postlude: the bit-matrix kernel on NumPy ``uint64`` words.

The paper's section 2.4 credits bit-vector sets for making the analytical
pass cheap; the serial engine realizes them as Python bigints, whose
``&``/``bit_count`` are word-parallel C loops but whose *driver* — one
interpreter iteration per (occurrence, level) — dominates the wall clock
on long traces.  This engine removes that driver loop:

1. **Pack** every MRCT conflict set into one row of a ``uint64``
   bit-matrix (column ``j`` = reference with identifier ``j``, exactly
   the bigint layout, so results are bit-identical by construction).
2. **Order** the rows by the *bit-reversed* low address bits of their
   reference.  Under that order the members of every BCAT node occupy a
   contiguous identifier range, hence every node's occurrences form one
   contiguous row segment — the whole tree becomes range arithmetic.
3. **Deduplicate** repeated ``(identifier, conflict set)`` pairs into a
   single weighted row.  Loop-dominated embedded traces re-enter the same
   steady state every iteration, so this routinely compresses the row
   count from O(N) to O(N') (measured ~99x on a 1024-word loop nest).
4. **Walk** the BCAT depth-first without materializing it; each node is
   one broadcast ``AND`` + popcount + weighted ``bincount`` over its row
   segment — no per-occurrence Python, no gathers, no bit permutation.

When NumPy is missing the module stays importable and
:func:`compute_level_histograms_vectorized` silently falls back to the
pure-Python serial engine, so ``repro.core`` keeps working with no
third-party dependencies (covered by tests).

Histograms are bit-identical to
:func:`repro.core.postlude.compute_level_histograms` on every trace —
enforced by the cross-engine differential matrix and Hypothesis
equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.mrct import MRCT
from repro.core.postlude import (
    LevelHistogram,
    compute_level_histograms,
    validate_max_level,
)
from repro.core.zerosets import ZeroOneSets
from repro.obs.recorder import NULL_RECORDER

try:  # NumPy is optional: the engine falls back to the serial kernel.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

#: Byte budget for one node's ``block & mask`` temporary in the BCAT
#: walk.  Large nodes (the root spans every row) are processed in row
#: blocks of this size so the walk's transient memory stays flat instead
#: of scaling with the row count — at N=10^6 undeduplicated rows the
#: unblocked temporaries were 2x the matrix itself.  Sized to sit in L2
#: cache territory.
_WALK_BLOCK_BYTES = 4 * 1024 * 1024

#: Prefer the hardware popcount ufunc (NumPy >= 2.0); older NumPy builds
#: fall back to a byte lookup table.  Module-level so tests can force the
#: table path.
_USE_BITWISE_COUNT = _np is not None and hasattr(_np, "bitwise_count")

_BYTE_POPCOUNT = None  # lazy (N=256) lookup table for the fallback path


def numpy_available() -> bool:
    """True when the accelerated path can run (NumPy importable)."""
    return _np is not None


def _byte_popcount_table():
    global _BYTE_POPCOUNT
    if _BYTE_POPCOUNT is None:
        _BYTE_POPCOUNT = _np.array(
            [bin(value).count("1") for value in range(256)], dtype=_np.uint8
        )
    return _BYTE_POPCOUNT


def _row_popcounts(block, mask):
    """Per-row popcount of ``block & mask`` (block: ``(rows, W)`` uint64)."""
    masked = block & mask
    if _USE_BITWISE_COUNT:
        return _np.bitwise_count(masked).sum(axis=1, dtype=_np.int64)
    table = _byte_popcount_table()
    return table[masked.view(_np.uint8)].sum(axis=1, dtype=_np.int64)


def _mask_cardinality(mask) -> int:
    """Total set bits of a packed ``(W,)`` uint64 mask."""
    if _USE_BITWISE_COUNT:
        return int(_np.bitwise_count(mask).sum())
    table = _byte_popcount_table()
    return int(table[mask.view(_np.uint8)].sum())


def _pack_bigint(value: int, nbytes: int):
    """One Python bigint set -> aligned ``(nbytes // 8,)`` uint64 vector."""
    return _np.frombuffer(value.to_bytes(nbytes, "little"), dtype=_np.uint64).copy()


def _bit_reversed_keys(zerosets: ZeroOneSets, limit: int, nbytes: int):
    """Per-identifier sort key: the low ``limit`` address bits, reversed.

    Sorting identifiers by this key makes every BCAT node a contiguous
    identifier range: level ``l`` groups by bits ``0..l-1``, which are
    the key's ``l`` most significant bits.  The bits are reconstructed
    from the one-sets, so the engine needs nothing beyond the paper's
    prelude products.
    """
    nprime = zerosets.n_unique
    key = _np.zeros(nprime, dtype=_np.uint64)
    for bit in range(limit):
        ones = _np.frombuffer(
            zerosets.one[bit].to_bytes(nbytes, "little"), dtype=_np.uint8
        )
        column = _np.unpackbits(ones, bitorder="little", count=nprime)
        key |= column.astype(_np.uint64) << _np.uint64(limit - 1 - bit)
    return key


def _pack_conflict_rows(mrct: MRCT, perm, nbytes: int):
    """Dedupe + pack conflict sets into a row-sorted weighted bit-matrix.

    Rows are emitted in ``perm`` (bit-reversed identifier) order and
    duplicates within one identifier collapse into a single row whose
    weight is the occurrence count.  Returns ``(matrix, weights,
    positions)`` where ``positions[i]`` is the sorted position of row
    ``i``'s identifier.
    """
    total = mrct.total_conflict_sets
    packed = _np.zeros(total * nbytes, dtype=_np.uint8)
    buffer = packed.data  # aligned, NumPy-owned backing store
    weights = _np.empty(total, dtype=_np.float64)
    positions = _np.empty(total, dtype=_np.int64)
    row = 0
    offset = 0
    sets = mrct.sets
    for position, ident in enumerate(perm.tolist()):
        conflicts = sets[ident]
        if not conflicts:
            continue
        if len(conflicts) == 1:
            unique = {conflicts[0]: 1}
        else:
            unique = {}
            for conflict in conflicts:
                unique[conflict] = unique.get(conflict, 0) + 1
        for conflict, weight in unique.items():
            if conflict:
                span = (conflict.bit_length() + 7) // 8
                buffer[offset : offset + span] = conflict.to_bytes(span, "little")
            weights[row] = weight
            positions[row] = position
            row += 1
            offset += nbytes
    matrix = packed[: row * nbytes].view(_np.uint64).reshape(row, nbytes // 8)
    return matrix, weights[:row], positions[:row]


def _walk_tables(zerosets: ZeroOneSets, limit: int):
    """Packed per-level split masks and the root mask for the BCAT walk.

    Returns ``(zero_masks, one_masks, universe)`` — ``(limit, W)``
    uint64 arrays plus the ``(W,)`` all-members mask.  Small (kilobytes
    even at large N'), but shared by every node of the walk.
    """
    nprime = zerosets.n_unique
    nwords = (nprime + 63) // 64
    nbytes = nwords * 8
    zero_masks = _np.empty((limit, nwords), dtype=_np.uint64)
    one_masks = _np.empty((limit, nwords), dtype=_np.uint64)
    for bit in range(limit):
        zero_masks[bit] = _pack_bigint(zerosets.zero[bit], nbytes)
        one_masks[bit] = _pack_bigint(zerosets.one[bit], nbytes)
    universe = _np.full(nwords, _np.uint64(0xFFFF_FFFF_FFFF_FFFF))
    if nprime % 64:
        universe[-1] = _np.uint64((1 << (nprime % 64)) - 1)
    return zero_masks, one_masks, universe


def _node_counts(matrix, weights, row_lo, row_hi, mask, out) -> None:
    """Accumulate one node's weighted distance histogram into ``out``.

    Blocked: rows are processed ``_WALK_BLOCK_BYTES`` at a time, so the
    ``block & mask`` temporary never scales with the node's row count —
    the walk's transient memory stays flat even at the root node of an
    undeduplicated million-row matrix, and each block's popcount input
    stays cache-resident.
    """
    words = max(int(matrix.shape[1]), 1)
    block_rows = max(_WALK_BLOCK_BYTES // (words * 8), 1)
    for start in range(row_lo, row_hi, block_rows):
        end = min(start + block_rows, row_hi)
        distances = _row_popcounts(matrix[start:end], mask)
        # Weighted bincount: weights are occurrence multiplicities,
        # far below 2**53, so the float64 sums are exact integers.
        binned = _np.bincount(distances, weights=weights[start:end])
        out[: len(binned)] += binned.astype(_np.int64)


def _walk_bit_matrix(
    zerosets: ZeroOneSets,
    limit: int,
    matrix,
    weights,
    positions,
    histograms: Dict[int, LevelHistogram],
) -> None:
    """Depth-first BCAT walk over a row-sorted weighted bit-matrix.

    ``matrix`` rows must be ordered by ``positions`` (each row's
    identifier position under the bit-reversed permutation, ascending)
    so every BCAT node is one contiguous row segment; ``weights`` are
    the rows' occurrence multiplicities.  Mirrors ``bcat.walk_bcat_sets``
    including its pruning of nodes with fewer than two members, and
    fills ``histograms`` in place.  Shared by the bigint-packing path
    (:func:`compute_level_histograms_vectorized`) and the fused packed
    path (:func:`compute_level_histograms_packed`).
    """
    nprime = zerosets.n_unique
    zero_masks, one_masks, universe = _walk_tables(zerosets, limit)
    # Per-level accumulators; a conflict cardinality can never exceed N'-1.
    level_counts = _np.zeros((limit + 1, nprime + 1), dtype=_np.int64)
    # A node is (level, mask, first_position, row_lo, row_hi, cardinality).
    stack = [(0, universe, 0, 0, matrix.shape[0], nprime)]
    while stack:
        level, mask, first_position, row_lo, row_hi, cardinality = stack.pop()
        if cardinality < 2:
            continue
        if row_hi > row_lo:
            _node_counts(matrix, weights, row_lo, row_hi, mask, level_counts[level])
        if level >= limit:
            continue
        left_mask = mask & zero_masks[level]
        left_cardinality = _mask_cardinality(left_mask)
        right_cardinality = cardinality - left_cardinality
        split_position = first_position + left_cardinality
        split_row = int(_np.searchsorted(positions, split_position))
        if right_cardinality >= 2:
            stack.append(
                (
                    level + 1,
                    mask & one_masks[level],
                    split_position,
                    split_row,
                    row_hi,
                    right_cardinality,
                )
            )
        if left_cardinality >= 2:
            stack.append(
                (level + 1, left_mask, first_position, row_lo, split_row, left_cardinality)
            )
    # Copy the dense per-level accumulators into sparse histograms.
    for level, accumulated in enumerate(level_counts):
        counts = histograms[level].counts
        for distance in _np.flatnonzero(accumulated):
            counts[int(distance)] = int(accumulated[distance])


def _level_limit(zerosets: ZeroOneSets, max_level: Optional[int]) -> int:
    max_level = validate_max_level(max_level)
    limit = zerosets.address_bits if max_level is None else max_level
    return min(limit, zerosets.address_bits)


def prepare_bigint_walk(zerosets: ZeroOneSets, limit: int, mrct: MRCT):
    """Row-sort a bigint MRCT into walk form: ``(matrix, weights, positions)``.

    Rows are ordered by their identifier's position under the
    bit-reversed permutation, so every BCAT node is one contiguous row
    segment — the precondition of :func:`_walk_bit_matrix`.
    """
    nprime = zerosets.n_unique
    nbytes = ((nprime + 63) // 64) * 8
    key = _bit_reversed_keys(zerosets, limit, nbytes)
    perm = _np.argsort(key, kind="stable")
    return _pack_conflict_rows(mrct, perm, nbytes)


def prepare_packed_walk(zerosets: ZeroOneSets, limit: int, packed: "PackedMRCT"):
    """Row-sort a :class:`PackedMRCT` into walk form.

    Returns ``(matrix, weights, positions)`` with rows gathered under
    the bit-reversed identifier permutation.
    """
    nprime = zerosets.n_unique
    nbytes = ((nprime + 63) // 64) * 8
    key = _bit_reversed_keys(zerosets, limit, nbytes)
    perm = _np.argsort(key, kind="stable")
    inverse_perm = _np.empty(nprime, dtype=_np.int64)
    inverse_perm[perm] = _np.arange(nprime, dtype=_np.int64)
    row_positions = inverse_perm[packed.idents]
    order = _np.argsort(row_positions, kind="stable")
    matrix = _np.ascontiguousarray(packed.matrix[order])
    weights = packed.weights[order].astype(_np.float64)
    positions = row_positions[order]
    return matrix, weights, positions


def compute_level_histograms_vectorized(
    zerosets: ZeroOneSets,
    mrct: MRCT,
    max_level: Optional[int] = None,
    recorder=NULL_RECORDER,
) -> Dict[int, LevelHistogram]:
    """NumPy drop-in for :func:`~repro.core.postlude.compute_level_histograms`.

    Falls back to the serial bigint kernel when NumPy is not installed;
    either way the returned histograms are bit-identical to the serial
    engine's.
    """
    if _np is None:
        return compute_level_histograms(zerosets, mrct, max_level=max_level)

    nprime = zerosets.n_unique
    limit = _level_limit(zerosets, max_level)
    histograms: Dict[int, LevelHistogram] = {
        level: LevelHistogram(level) for level in range(limit + 1)
    }
    if nprime < 2 or mrct.total_conflict_sets == 0:
        return histograms  # no row can conflict: every histogram is empty

    with recorder.phase("postlude:pack-rows"):
        matrix, weights, positions = prepare_bigint_walk(zerosets, limit, mrct)
    with recorder.phase("postlude:walk"):
        _walk_bit_matrix(zerosets, limit, matrix, weights, positions, histograms)
    return histograms


def compute_level_histograms_packed(
    zerosets: ZeroOneSets,
    packed: "PackedMRCT",
    max_level: Optional[int] = None,
    recorder=NULL_RECORDER,
) -> Dict[int, LevelHistogram]:
    """The fused postlude: consume a packed MRCT with no bigint round-trip.

    Takes the :class:`~repro.core.prelude_fast.PackedMRCT` emitted by the
    fast prelude, reorders its rows under the bit-reversed identifier
    permutation (a gather — the matrix itself is consumed as-is), and
    runs the same BCAT walk as the bigint path.  Histograms are
    bit-identical to every other engine's.  Requires NumPy — a
    ``PackedMRCT`` cannot exist without it.
    """
    if _np is None:  # pragma: no cover - packed inputs imply NumPy
        raise RuntimeError("compute_level_histograms_packed requires NumPy")
    nprime = zerosets.n_unique
    if packed.n_unique != nprime:
        raise ValueError(
            f"packed MRCT covers {packed.n_unique} unique references, "
            f"zero/one sets cover {nprime}"
        )
    limit = _level_limit(zerosets, max_level)
    histograms: Dict[int, LevelHistogram] = {
        level: LevelHistogram(level) for level in range(limit + 1)
    }
    if nprime < 2 or packed.n_rows == 0:
        return histograms

    with recorder.phase("postlude:pack-rows"):
        matrix, weights, positions = prepare_packed_walk(zerosets, limit, packed)
    with recorder.phase("postlude:walk"):
        _walk_bit_matrix(zerosets, limit, matrix, weights, positions, histograms)
    return histograms
