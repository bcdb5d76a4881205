"""Vectorized postlude: the bit-matrix kernel on NumPy ``uint64`` words.

The paper's section 2.4 credits bit-vector sets for making the analytical
pass cheap; the serial engine realizes them as Python bigints, whose
``&``/``bit_count`` are word-parallel C loops but whose *driver* — one
interpreter iteration per (occurrence, level) — dominates the wall clock
on long traces.  This engine removes that driver loop:

1. **Take** the MRCT as a :class:`~repro.core.prelude_fast.PackedMRCT`:
   one ``uint64`` bit-matrix row per distinct ``(identifier, conflict
   set)`` pair, weighted by its occurrence count.  The fast prelude emits
   it directly; a bigint MRCT is packed by
   :func:`~repro.core.prelude_fast.pack_mrct`.  Loop-dominated embedded
   traces re-enter the same steady state every iteration, so the dedup
   routinely compresses the row count from O(N) to O(N').
2. **Columns are in BCAT order.**  The prelude numbers the columns by
   the *bit-reversed* low address bits of their reference, so the
   members of every BCAT node, at every level, are one contiguous column
   range ``[lo, hi)``: level ``l`` groups references by the keys' top
   ``l`` bits.  Each level's node bounds are found once, over the N'
   sorted keys.
3. **Count each level as a rank query.**  A row's distance at level
   ``l`` is the popcount of its bits inside its own node's range,
   ``rank(hi) - rank(lo)``, where ``rank(x)`` counts the row's bits
   below column ``x``: a running popcount over whole words plus one
   masked word.  One weighted ``bincount`` per level collects the
   distances.  A row whose node has fewer than two members is dropped;
   nodes nest, so it never counts again.  There is no Python per
   occurrence or per node, and no level rewrites the matrix.

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

#: Byte budget for one row block's running popcount.  The walk holds one
#: ``int32`` count per matrix word for one block of rows at a time, so
#: its transient memory stays flat instead of scaling with the row
#: count.  Sized to sit in L2 cache territory.
_WALK_BLOCK_BYTES = 4 * 1024 * 1024

#: Prefer the hardware popcount ufunc (NumPy >= 2.0); older NumPy builds
#: fall back to a byte lookup table.  Module-level so tests can force the
#: table path.
_USE_BITWISE_COUNT = _np is not None and hasattr(_np, "bitwise_count")

_BYTE_POPCOUNT = None  # lazy (N=256) lookup table for the fallback path

#: ``_LOW_MASKS[k]`` keeps a word's ``k`` low bits, ``k`` in 0..64.
_LOW_MASKS = (
    None
    if _np is None
    else _np.array([(1 << k) - 1 for k in range(65)], dtype=_np.uint64)
)


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


def _popcounts(words):
    """Per-word popcount of a uint64 array, as ``uint8`` of its shape."""
    if _USE_BITWISE_COUNT:
        return _np.bitwise_count(words)
    table = _byte_popcount_table()
    per_byte = table[_np.ascontiguousarray(words).view(_np.uint8)]
    return per_byte.reshape(*words.shape, 8).sum(axis=-1, dtype=_np.uint8)


def _level_tables(packed: PackedMRCT, limit: int):
    """Per-column rank-query tables for levels ``1..deepest``.

    Level ``l``'s nodes are the runs of equal ``keys >> (address_bits -
    l)`` in the sorted keys, so column ``c``'s node is a column range
    ``[lo, hi)``.  Each level gives four per-column arrays: the words of
    ``lo`` and ``hi`` (``hi``'s clamped to the last word, where all 64
    bits count) and the low-bit masks of their offsets in those words.
    ``depth[c]`` counts the levels at which column ``c``'s node has two
    or more members; nodes only split going down, so those are levels
    ``1..depth[c]``, and the tables stop after the last level that has
    such a node.
    """
    keys = packed.keys
    nprime = keys.shape[0]
    last_word = packed.words - 1
    depth = _np.zeros(nprime, dtype=_np.int64)
    starts = _np.empty(nprime, dtype=bool)
    starts[0] = True
    tables = []
    for level in range(1, limit + 1):
        prefix = keys >> _np.uint64(packed.address_bits - level)
        _np.not_equal(prefix[1:], prefix[:-1], out=starts[1:])
        edges = _np.flatnonzero(starts)
        sizes = _np.diff(edges, append=nprime)
        if sizes.max() < 2:
            break
        depth += _np.repeat(sizes >= 2, sizes)
        lo = _np.repeat(edges, sizes)
        hi = _np.repeat(edges + sizes, sizes)
        hi_word = _np.minimum(hi >> 6, last_word)
        tables.append(
            (lo >> 6, _LOW_MASKS[lo & 63], hi_word, _LOW_MASKS[hi - (hi_word << 6)])
        )
    return tables, depth


def _rank_walk(packed: PackedMRCT, limit: int, histograms) -> None:
    """Every level's weighted distance counts, one row block at a time.

    Each block's words are read as one flat run with a running popcount
    ``ranks`` (``ranks[i]`` counts the set bits in the block's words
    before word ``i``).  A row's count of bits below column ``x`` is then
    ``ranks[x's word] + popcount(x's word masked below x)``, less the
    same count at the row's first word, which cancels in any difference
    of two such counts within the row.  Level 0's node is every column,
    so its distance is the row's popcount.  Below it, each live row
    counts its bits inside its column's node ``[lo, hi)`` as
    ``rank(hi) - rank(lo)`` (:func:`_level_tables`).  A row is dropped
    at the first level where its node has fewer than two members.
    """
    matrix = packed.matrix
    rows, words = matrix.shape
    tables, depth = _level_tables(packed, limit)
    # Per-level accumulators; a conflict cardinality can never exceed
    # N'-1.  Weights are occurrence multiplicities, far below 2**53, so
    # the float64 sums of the weighted bincounts are exact integers.
    level_counts = _np.zeros((len(tables) + 1, packed.n_unique + 1))
    weights = packed.weights.astype(_np.float64)
    block_rows = max(min(_WALK_BLOCK_BYTES // (4 * words), rows), 1)
    ranks = _np.zeros(block_rows * words + 1, dtype=_np.int32)
    for start in range(0, rows, block_rows):
        end = min(start + block_rows, rows)
        block = matrix[start:end].reshape(-1)
        size = block.shape[0]
        _np.cumsum(_popcounts(block), dtype=_np.int32, out=ranks[1 : size + 1])
        row_ranks = ranks[: size + 1 : words]
        block_weights = weights[start:end]
        binned = _np.bincount(_np.diff(row_ranks), weights=block_weights)
        level_counts[0, : len(binned)] += binned
        columns = packed.idents[start:end]
        row_depth = depth[columns]
        drops = _np.bincount(row_depth, minlength=len(tables) + 1).tolist()
        base = _np.arange(0, size, words, dtype=_np.int64)
        for level, (lo_word, lo_mask, hi_word, hi_mask) in enumerate(tables, 1):
            if drops[level - 1]:
                kept = row_depth >= level
                if not kept.any():
                    break
                columns = columns[kept]
                row_depth = row_depth[kept]
                block_weights = block_weights[kept]
                base = base[kept]
            high = base + hi_word[columns]
            low = base + lo_word[columns]
            distance = ranks[high] - ranks[low]
            distance += _popcounts(block[high] & hi_mask[columns])
            distance -= _popcounts(block[low] & lo_mask[columns])
            binned = _np.bincount(distance, weights=block_weights)
            level_counts[level, : len(binned)] += binned
    # Copy the dense per-level accumulators into sparse histograms.
    for level, accumulated in enumerate(level_counts):
        counts = histograms[level].counts
        for distance in _np.flatnonzero(accumulated):
            counts[int(distance)] = int(accumulated[distance])


def compute_level_histograms_packed(
    packed: PackedMRCT,
    max_level: Optional[int] = None,
    recorder=NULL_RECORDER,
) -> Dict[int, LevelHistogram]:
    """The vectorized postlude's one walk, over a packed MRCT.

    Takes a :class:`~repro.core.prelude_fast.PackedMRCT` (from
    :func:`~repro.core.prelude_fast.build_packed_mrct` or
    :func:`~repro.core.prelude_fast.pack_mrct`), whose columns and keys
    already give every BCAT node as a column range, and counts every
    level by rank queries (:func:`_rank_walk`); the matrix is read
    as-is.  Histograms are bit-identical to every other engine's.
    Requires NumPy — a ``PackedMRCT`` cannot exist without it.
    """
    if _np is None:  # pragma: no cover - packed inputs imply NumPy
        raise RuntimeError("compute_level_histograms_packed requires NumPy")
    max_level = validate_max_level(max_level)
    limit = packed.address_bits if max_level is None else max_level
    limit = min(limit, packed.address_bits)
    histograms: Dict[int, LevelHistogram] = {
        level: LevelHistogram(level) for level in range(limit + 1)
    }
    if packed.n_unique < 2 or packed.n_rows == 0:
        return histograms
    with recorder.phase("postlude:walk"):
        _rank_walk(packed, limit, histograms)
    return histograms


def _zeroset_addresses(zerosets: ZeroOneSets):
    """Each identifier's low ``address_bits`` address bits, rebuilt from
    the one-sets (bit ``b`` of identifier ``j`` is bit ``j`` of
    ``one[b]``)."""
    nprime = zerosets.n_unique
    nbytes = (nprime + 7) // 8
    addresses = _np.zeros(nprime, dtype=_np.uint64)
    for bit, ones in enumerate(zerosets.one):
        column = _np.unpackbits(
            _np.frombuffer(ones.to_bytes(nbytes, "little"), dtype=_np.uint8),
            bitorder="little",
            count=nprime,
        )
        addresses |= column.astype(_np.uint64) << _np.uint64(bit)
    return addresses


def compute_level_histograms_vectorized(
    zerosets: ZeroOneSets,
    mrct: MRCT,
    max_level: Optional[int] = None,
    recorder=NULL_RECORDER,
) -> Dict[int, LevelHistogram]:
    """NumPy drop-in for :func:`~repro.core.postlude.compute_level_histograms`.

    Packs the bigint MRCT (:func:`repro.core.prelude_fast.pack_mrct`),
    with the column order taken from the zero/one sets' addresses, and
    runs :func:`compute_level_histograms_packed` on it.  Falls back to
    the serial bigint kernel when NumPy is not installed; either way the
    returned histograms are bit-identical to the serial engine's.
    """
    if _np is None:
        return compute_level_histograms(zerosets, mrct, max_level=max_level)
    max_level = validate_max_level(max_level)
    packed = pack_mrct(mrct, _zeroset_addresses(zerosets), zerosets.address_bits)
    return compute_level_histograms_packed(
        packed, max_level=max_level, recorder=recorder
    )
