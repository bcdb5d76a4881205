"""Vectorized postlude: the bit-matrix kernel on NumPy ``uint64`` words.

The paper's section 2.4 credits bit-vector sets for making the analytical
pass cheap; the serial engine realizes them as Python bigints, whose
``&``/``bit_count`` are word-parallel C loops but whose *driver* — one
interpreter iteration per (occurrence, level) — dominates the wall clock
on long traces.  This engine removes that driver loop:

1. **Take** the MRCT as a :class:`~repro.core.prelude_fast.PackedMRCT`:
   one ``uint64`` bit-matrix row per distinct ``(identifier, conflict
   set)`` pair, weighted by its occurrence count (column ``j`` =
   reference with identifier ``j``, exactly the bigint layout, so
   results are bit-identical by construction).  The fast prelude emits
   it directly; a bigint MRCT is packed by
   :func:`~repro.core.prelude_fast.pack_mrct`.  Loop-dominated embedded
   traces re-enter the same steady state every iteration, so the dedup
   routinely compresses the row count from O(N) to O(N').
2. **Order** the rows by the *bit-reversed* low address bits of their
   reference.  Under that order the members of every BCAT node occupy a
   contiguous identifier range, hence every node's occurrences form one
   contiguous row segment — the whole tree becomes range arithmetic.
3. **Walk** the BCAT level by level without materializing it.  Each
   block of rows goes down the tree in a scratch copy in which every row
   is ANDed with the members of its current node.  At each level one
   popcount and one weighted ``bincount`` over the block give that
   level's counts; ``searchsorted`` over the sorted keys counts each
   row's node members, and rows whose node has fewer than two members
   are dropped; then every row is narrowed to its child node.  At the
   shallow levels, where a few nodes hold many rows, a narrowing step is
   one broadcast ``AND`` per node; below them it is one pass over the
   block that flips the zero-bit mask with a per-row all-ones word where
   the key bit is set.  There is no Python per occurrence, and none per
   node below the shallow levels.

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
from repro.core.prelude_fast import PackedMRCT, pack_mrct
from repro.core.zerosets import ZeroOneSets
from repro.obs.recorder import NULL_RECORDER

try:  # NumPy is optional: the engine falls back to the serial kernel.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None

#: Byte budget for one row block of the BCAT walk.  The walk carries each
#: block of the matrix through every level in two scratch buffers of this
#: size, so its transient memory stays flat instead of scaling with the
#: row count — at N=10^6 undeduplicated rows an unblocked pass would hold
#: temporaries twice the matrix itself.  Sized to sit in L2 cache
#: territory.
_WALK_BLOCK_BYTES = 4 * 1024 * 1024

#: Where the walk stops narrowing node by node.  Narrowing one run of
#: rows that share a child node is one broadcast ``AND`` plus a fixed
#: Python cost; the level-wide pass instead builds a per-row mask for
#: every word of the block.  A level whose block has at least this many
#: words per run (the shallow levels, where a few nodes hold many rows)
#: is narrowed run by run.
_WORDS_PER_RUN = 4096

_ALL_ONES = 0xFFFF_FFFF_FFFF_FFFF

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


def _row_popcounts(block):
    """Per-row popcount of a ``(rows, W)`` uint64 block."""
    if _USE_BITWISE_COUNT:
        # einsum sums the short uint8 rows ~1.5x faster than sum(axis=1).
        return _np.einsum("ij->i", _np.bitwise_count(block), dtype=_np.int64)
    table = _byte_popcount_table()
    return table[block.view(_np.uint8)].sum(axis=1, dtype=_np.int64)


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


def _level_masks(sets, limit: int, nbytes: int):
    """The first ``limit`` bigint split sets packed into a ``(limit, W)`` array."""
    masks = _np.empty((limit, nbytes // 8), dtype=_np.uint64)
    for bit in range(limit):
        masks[bit] = _pack_bigint(sets[bit], nbytes)
    return masks


def _walk_bit_matrix(
    zerosets: ZeroOneSets,
    limit: int,
    matrix,
    weights,
    row_keys,
    keys,
    histograms: Dict[int, LevelHistogram],
) -> None:
    """Level-synchronous BCAT pass over a key-sorted weighted bit-matrix.

    ``keys`` are every identifier's bit-reversed low ``limit`` address
    bits, sorted; ``row_keys`` are the keys of the rows' identifiers,
    ascending, so every BCAT node is one contiguous row segment.
    ``weights`` are the rows' occurrence multiplicities.  Each row block
    is carried through all levels at once (:func:`_walk_block`); the
    result equals ``bcat.walk_bcat_sets`` with its pruning of nodes with
    fewer than two members, and fills ``histograms`` in place.
    """
    rows, words = matrix.shape
    nbytes = words * 8
    zero_masks = _level_masks(zerosets.zero, limit, nbytes)
    one_masks = _level_masks(zerosets.one, limit, nbytes)
    # Per-level accumulators; a conflict cardinality can never exceed N'-1.
    level_counts = _np.zeros((limit + 1, zerosets.n_unique + 1), dtype=_np.int64)
    block_rows = max(min(_WALK_BLOCK_BYTES // nbytes, rows), 1)
    buffers = [_np.empty((block_rows, words), dtype=_np.uint64) for _ in range(2)]
    for start in range(0, rows, block_rows):
        end = min(start + block_rows, rows)
        _walk_block(
            matrix[start:end],
            weights[start:end],
            row_keys[start:end],
            keys,
            zero_masks,
            one_masks,
            level_counts,
            buffers,
        )
    # Copy the dense per-level accumulators into sparse histograms.
    for level, accumulated in enumerate(level_counts):
        counts = histograms[level].counts
        for distance in _np.flatnonzero(accumulated):
            counts[int(distance)] = int(accumulated[distance])


def _walk_block(
    block, weights, block_keys, keys, zero_masks, one_masks, level_counts, buffers
) -> None:
    """Carry one key-sorted row block down the BCAT, one level per step.

    ``live`` holds each row ANDed with the members of the row's node at
    the current level, so its row popcounts are that level's distances.
    At each level:

    1. count every row's node members with ``searchsorted`` over
       ``keys`` (once per distinct key), and drop the rows whose node
       has fewer than two members — their subtrees count nothing;
    2. add one weighted ``bincount`` of the row popcounts;
    3. narrow every row to its child node: ``zero_masks[level]`` or
       ``one_masks[level]`` by the key bit.  Where a few nodes hold many
       rows this is one broadcast ``AND`` per run of equal bits; deeper
       it is one pass that flips the zero mask with a per-row all-ones
       word where the bit is set (the rows hold no bit outside their
       node, so the flipped mask acts as the one mask).

    Each step writes the other of the two ``buffers``, so the matrix
    itself is never written.
    """
    limit = len(zero_masks)
    new_key = _np.empty(len(block_keys), dtype=bool)
    new_key[0] = True
    _np.not_equal(block_keys[1:], block_keys[:-1], out=new_key[1:])
    unique_keys = block_keys[new_key]
    inverse = _np.cumsum(new_key) - 1  # row -> index into unique_keys
    live = block
    turn = 0
    for level in range(limit + 1):
        low = _np.uint64((1 << (limit - level)) - 1)
        members = _np.searchsorted(keys, unique_keys | low, side="right")
        members -= _np.searchsorted(keys, unique_keys & ~low, side="left")
        kept = members >= 2
        if not kept.all():
            if not kept.any():
                return
            row_kept = kept[inverse]
            out = buffers[turn][: int(_np.count_nonzero(row_kept))]
            live = _np.compress(row_kept, live, axis=0, out=out)
            turn ^= 1
            weights = weights[row_kept]
            inverse = (_np.cumsum(kept) - 1)[inverse[row_kept]]
            unique_keys = unique_keys[kept]
        # Weighted bincount: weights are occurrence multiplicities, far
        # below 2**53, so the float64 sums are exact integers.
        binned = _np.bincount(_row_popcounts(live), weights=weights)
        level_counts[level, : len(binned)] += binned.astype(_np.int64)
        if level == limit:
            return
        bits = (unique_keys >> _np.uint64(limit - 1 - level)) & _np.uint64(1)
        edges = _np.flatnonzero(bits[1:] != bits[:-1]) + 1
        out = buffers[turn][: len(live)]
        turn ^= 1
        if (len(edges) + 1) * _WORDS_PER_RUN <= live.size:
            bounds = [0, *_np.searchsorted(inverse, edges).tolist(), len(live)]
            bit = int(bits[0])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                mask = one_masks[level] if bit else zero_masks[level]
                _np.bitwise_and(live[lo:hi], mask, out=out[lo:hi])
                bit ^= 1
        else:
            flips = (bits * _np.uint64(_ALL_ONES))[inverse]
            _np.bitwise_xor(zero_masks[level], flips[:, None], out=out)
            out &= live
        live = out


def _level_limit(zerosets: ZeroOneSets, max_level: Optional[int]) -> int:
    max_level = validate_max_level(max_level)
    limit = zerosets.address_bits if max_level is None else max_level
    return min(limit, zerosets.address_bits)


def prepare_packed_walk(zerosets: ZeroOneSets, limit: int, packed: PackedMRCT):
    """Row-sort a :class:`PackedMRCT` into walk form.

    Returns ``(matrix, weights, row_keys, keys)`` with rows gathered in
    ascending bit-reversed key order.  With at most 2^16 identifiers the
    rows are sorted by their key's ``uint16`` rank among the sorted
    keys, which orders them as the keys do; NumPy's stable sort is a
    radix sort at that width.
    """
    nprime = zerosets.n_unique
    nbytes = ((nprime + 63) // 64) * 8
    key = _bit_reversed_keys(zerosets, limit, nbytes)
    keys = _np.sort(key)
    row_keys = key[packed.idents]
    if nprime <= 1 << 16:
        rank = _np.searchsorted(keys, key).astype(_np.uint16)
        order = _np.argsort(rank[packed.idents], kind="stable")
    else:
        order = _np.argsort(row_keys, kind="stable")
    matrix = _np.ascontiguousarray(packed.matrix[order])
    weights = packed.weights[order].astype(_np.float64)
    return matrix, weights, row_keys[order], keys


def compute_level_histograms_packed(
    zerosets: ZeroOneSets,
    packed: PackedMRCT,
    max_level: Optional[int] = None,
    recorder=NULL_RECORDER,
) -> Dict[int, LevelHistogram]:
    """The vectorized postlude's one walk, over a packed MRCT.

    Takes a :class:`~repro.core.prelude_fast.PackedMRCT` (from
    :func:`~repro.core.prelude_fast.build_packed_mrct` or
    :func:`~repro.core.prelude_fast.pack_mrct`), reorders its rows under
    the bit-reversed identifier permutation (a gather — the matrix itself
    is consumed as-is), and walks the BCAT.  Histograms are
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
        walk = prepare_packed_walk(zerosets, limit, packed)
    with recorder.phase("postlude:walk"):
        _walk_bit_matrix(zerosets, limit, *walk, histograms)
    return histograms


def compute_level_histograms_vectorized(
    zerosets: ZeroOneSets,
    mrct: MRCT,
    max_level: Optional[int] = None,
    recorder=NULL_RECORDER,
) -> Dict[int, LevelHistogram]:
    """NumPy drop-in for :func:`~repro.core.postlude.compute_level_histograms`.

    Packs the bigint MRCT (:func:`repro.core.prelude_fast.pack_mrct`)
    and runs :func:`compute_level_histograms_packed` on it.  Falls back
    to the serial bigint kernel when NumPy is not installed; either way
    the returned histograms are bit-identical to the serial engine's.
    """
    if _np is None:
        return compute_level_histograms(zerosets, mrct, max_level=max_level)
    max_level = validate_max_level(max_level)
    return compute_level_histograms_packed(
        zerosets, pack_mrct(mrct), max_level=max_level, recorder=recorder
    )
