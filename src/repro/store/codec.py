"""Versioned binary serialization for the pipeline's artifacts.

Each pipeline stage has one codec — an object with a ``stage`` name, a
``version`` (the schema coordinate of :class:`repro.store.ArtifactKey`),
``encode(value) -> bytes`` and ``decode(payload, context=None) ->
value``.  The big set-valued structures (zero/one sets, MRCT conflict
sets) are arbitrary-precision ints used as bit vectors; they serialize
as length-prefixed little-endian byte strings, which round-trips exactly
and costs no more than the ints' own storage.

On disk every payload travels inside a self-checking container
(:func:`pack_entry` / :func:`unpack_entry`): magic, container version,
codec version, SHA-256 payload checksum, payload length, payload.  Any
mismatch — bad magic, truncation, a flipped bit — raises
:class:`CorruptArtifact`, which the store treats as a cache miss and
quarantines (a corrupt entry must never poison a computation).

Bumping a codec's ``version`` silently invalidates that stage's old
entries: the version participates in the artifact key, so old entries
simply stop being addressed and age out via LRU eviction.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mrct import MRCT
from repro.core.postlude import LevelHistogram
from repro.core.zerosets import ZeroOneSets
from repro.trace.strip import StrippedTrace
from repro.trace.trace import Trace

#: Container framing magic; identifies a store entry file.
MAGIC = b"RART"

#: Version of the container framing itself (not of any payload).
CONTAINER_VERSION = 1

#: Container header: magic, container version, codec version,
#: SHA-256 payload digest, payload length.
_HEADER = struct.Struct("<4sHH32sQ")


class CorruptArtifact(ValueError):
    """A store entry failed framing, checksum or decode validation."""


def pack_entry(codec_version: int, payload: bytes) -> bytes:
    """Frame a payload for disk: header + checksum + payload."""
    digest = hashlib.sha256(payload).digest()
    return (
        _HEADER.pack(
            MAGIC, CONTAINER_VERSION, codec_version, digest, len(payload)
        )
        + payload
    )


def unpack_entry(blob, codec_version: int):
    """Validate framing and checksum; return the payload.

    ``blob`` may be ``bytes`` or a ``memoryview`` (e.g. over an ``mmap``
    of the entry file); the returned payload is the same kind — a
    memoryview in, a zero-copy memoryview slice out, which zero-copy
    codecs decode into array views without materializing the payload.

    Raises:
        CorruptArtifact: on bad magic, version mismatch, truncation or
            checksum failure.
    """
    if len(blob) < _HEADER.size:
        raise CorruptArtifact("entry shorter than its header")
    magic, container, version, digest, length = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptArtifact(f"bad magic {magic!r}")
    if container != CONTAINER_VERSION:
        raise CorruptArtifact(f"unknown container version {container}")
    if version != codec_version:
        raise CorruptArtifact(
            f"codec version {version} != expected {codec_version}"
        )
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise CorruptArtifact(
            f"payload truncated: {len(payload)} bytes, header says {length}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptArtifact("payload checksum mismatch")
    return payload


class _Reader:
    """Sequential struct reader over a payload, bounds-checked."""

    __slots__ = ("_view", "_pos")

    def __init__(self, payload: bytes) -> None:
        self._view = memoryview(payload)
        self._pos = 0

    def unpack(self, fmt: str) -> Tuple:
        size = struct.calcsize(fmt)
        if self._pos + size > len(self._view):
            raise CorruptArtifact("payload truncated mid-field")
        values = struct.unpack_from(fmt, self._view, self._pos)
        self._pos += size
        return values

    def read(self, size: int) -> bytes:
        if self._pos + size > len(self._view):
            raise CorruptArtifact("payload truncated mid-block")
        block = self._view[self._pos:self._pos + size].tobytes()
        self._pos += size
        return block

    def view(self, size: int) -> memoryview:
        """A zero-copy window over the next ``size`` payload bytes.

        The view borrows the payload's buffer: whatever is built on it
        (e.g. ``np.frombuffer``) keeps the payload — and, for a mapped
        entry, the mapping — alive through ordinary refcounting.
        """
        if self._pos + size > len(self._view):
            raise CorruptArtifact("payload truncated mid-block")
        block = self._view[self._pos:self._pos + size]
        self._pos += size
        return block

    def expect_end(self) -> None:
        if self._pos != len(self._view):
            raise CorruptArtifact(
                f"{len(self._view) - self._pos} trailing bytes in payload"
            )


def _array_bytes(values: array) -> bytes:
    """An array's buffer as little-endian bytes (copy on BE hosts)."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _array_from(typecode: str, data: bytes) -> array:
    values = array(typecode)
    values.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values.byteswap()
    return values


def _encode_bigints(values: Sequence[int]) -> bytes:
    """Length-prefixed little-endian encoding of bit-vector ints."""
    parts: List[bytes] = [struct.pack("<I", len(values))]
    for value in values:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _decode_bigints(reader: _Reader) -> List[int]:
    (count,) = reader.unpack("<I")
    values: List[int] = []
    for _ in range(count):
        (size,) = reader.unpack("<I")
        values.append(int.from_bytes(reader.read(size), "little"))
    return values


class StrippedTraceCodec:
    """Stripped trace: unique addresses + identifier sequence.

    Decoding needs the raw :class:`Trace` as ``context`` — a
    :class:`StrippedTrace` keeps a reference to its source trace, and
    the cache is only ever consulted by a caller that holds it (the
    trace digest in the key came from somewhere).
    """

    stage = "stripped"
    version = 1

    def encode(self, stripped: StrippedTrace) -> bytes:
        addresses = array("q", stripped.unique_addresses)
        ids = array("I", stripped.id_sequence)
        return b"".join(
            (
                struct.pack(
                    "<IIQ", stripped.address_bits, stripped.n_unique, stripped.n
                ),
                _array_bytes(addresses),
                _array_bytes(ids),
            )
        )

    def decode(
        self, payload: bytes, context: Optional[Trace] = None
    ) -> StrippedTrace:
        if context is None:
            raise ValueError("StrippedTraceCodec.decode needs the raw trace")
        reader = _Reader(payload)
        address_bits, n_unique, n = reader.unpack("<IIQ")
        unique = _array_from("q", reader.read(8 * n_unique)).tolist()
        ids = _array_from("I", reader.read(4 * n))
        reader.expect_end()
        if n != len(context):
            raise CorruptArtifact(
                f"stripped entry covers {n} references, trace has {len(context)}"
            )
        return StrippedTrace(
            trace=context,
            unique_addresses=unique,
            id_of={addr: ident for ident, addr in enumerate(unique)},
            id_sequence=ids,
            address_bits=address_bits,
        )


class ZeroOneSetsCodec:
    """Per-bit zero/one sets: two tuples of bit-vector bigints."""

    stage = "zerosets"
    version = 1

    def encode(self, zerosets: ZeroOneSets) -> bytes:
        return b"".join(
            (
                struct.pack("<I", zerosets.n_unique),
                _encode_bigints(zerosets.zero),
                _encode_bigints(zerosets.one),
            )
        )

    def decode(
        self, payload: bytes, context: Optional[Trace] = None
    ) -> ZeroOneSets:
        reader = _Reader(payload)
        (n_unique,) = reader.unpack("<I")
        zero = tuple(_decode_bigints(reader))
        one = tuple(_decode_bigints(reader))
        reader.expect_end()
        if len(zero) != len(one):
            raise CorruptArtifact("zero/one set arrays differ in length")
        return ZeroOneSets(zero=zero, one=one, n_unique=n_unique)


class MRCTCodec:
    """Conflict table: per-reference lists of bit-vector bigints."""

    stage = "mrct"
    version = 1

    def encode(self, mrct: MRCT) -> bytes:
        parts: List[bytes] = [struct.pack("<I", mrct.n_unique)]
        parts.extend(_encode_bigints(sets) for sets in mrct.sets)
        return b"".join(parts)

    def decode(self, payload: bytes, context: Optional[Trace] = None) -> MRCT:
        reader = _Reader(payload)
        (n_unique,) = reader.unpack("<I")
        sets = [_decode_bigints(reader) for _ in range(n_unique)]
        reader.expect_end()
        return MRCT(sets=sets, n_unique=n_unique)


class HistogramsCodec:
    """Per-level conflict histograms: ``{level: {distance: count}}``.

    Engine-independent by design: every registered engine produces
    bit-identical histograms (differentially tested), so an entry
    written by one engine warm-starts every other.
    """

    stage = "histograms"
    version = 1

    def encode(self, histograms: Dict[int, LevelHistogram]) -> bytes:
        parts: List[bytes] = [struct.pack("<I", len(histograms))]
        for level in sorted(histograms):
            counts = histograms[level].counts
            parts.append(struct.pack("<II", level, len(counts)))
            for distance in sorted(counts):
                parts.append(struct.pack("<IQ", distance, counts[distance]))
        return b"".join(parts)

    def decode(
        self, payload: bytes, context: Optional[Trace] = None
    ) -> Dict[int, LevelHistogram]:
        reader = _Reader(payload)
        (n_levels,) = reader.unpack("<I")
        histograms: Dict[int, LevelHistogram] = {}
        for _ in range(n_levels):
            level, n_entries = reader.unpack("<II")
            counts: Dict[int, int] = {}
            for _ in range(n_entries):
                distance, count = reader.unpack("<IQ")
                counts[distance] = count
            histograms[level] = LevelHistogram(level=level, counts=counts)
        reader.expect_end()
        return histograms


def _le_array_view(reader: _Reader, dtype: str, count: int):
    """The next ``count`` little-endian items as a read-only array view.

    Zero-copy on little-endian hosts: a ``np.frombuffer`` view over the
    payload (which may itself be a view over a mapped entry file).  Only
    big-endian hosts pay a byteswap copy.  The view is marked read-only
    either way — decoded artifacts are shared through the store's memory
    tier, so nothing downstream may scribble on them.
    """
    import numpy as np

    itemsize = np.dtype(dtype).itemsize
    values = np.frombuffer(reader.view(itemsize * count), dtype=dtype)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        values = values.astype(values.dtype.newbyteorder("="))
    values.flags.writeable = False
    return values


class PackedMRCTCodec:
    """Packed conflict bit-matrix (:class:`repro.core.prelude_fast.PackedMRCT`).

    Fixed-width little-endian arrays — identifiers, weights, then the
    uint64 matrix — so encode is a single buffer copy and decode is
    *zero*-copy: the arrays are read-only ``np.frombuffer`` views over
    the payload (only byte-swapping big-endian hosts copy).  With the
    store's mmap read path the views point straight into the mapped
    entry file, so a warm hit never materializes a second copy of the
    matrix.  Requires NumPy to decode; the store only consults this
    stage from the fused path, which is NumPy-gated.
    """

    stage = "packed-mrct"
    version = 1

    #: Decoded values are views over the payload — the store's mmap read
    #: path keys off this to map the entry file instead of reading it.
    zero_copy = True

    def encode(self, packed) -> bytes:
        import numpy as np

        rows, words = packed.matrix.shape
        return b"".join(
            (
                struct.pack("<IIQ", packed.n_unique, words, rows),
                np.ascontiguousarray(packed.idents, dtype="<i8").tobytes(),
                np.ascontiguousarray(packed.weights, dtype="<i8").tobytes(),
                np.ascontiguousarray(packed.matrix, dtype="<u8").tobytes(),
            )
        )

    def decode(self, payload, context: Optional[Trace] = None):
        from repro.core.prelude_fast import PackedMRCT

        reader = _Reader(payload)
        n_unique, words, rows = reader.unpack("<IIQ")
        if words != (n_unique + 63) // 64:
            raise CorruptArtifact(
                f"packed matrix is {words} words wide, "
                f"{n_unique} unique references need {(n_unique + 63) // 64}"
            )
        idents = _le_array_view(reader, "<i8", rows)
        weights = _le_array_view(reader, "<i8", rows)
        matrix = _le_array_view(reader, "<u8", rows * words).reshape(rows, words)
        reader.expect_end()
        if rows and (
            (idents < 0).any() or (idents >= max(n_unique, 1)).any()
        ):
            raise CorruptArtifact("packed row identifier out of range")
        if rows and (weights <= 0).any():
            raise CorruptArtifact("packed row weight must be positive")
        return PackedMRCT(
            matrix=matrix, idents=idents, weights=weights, n_unique=n_unique
        )


class StreamCheckpointCodec:
    """A :class:`repro.core.streaming.StreamingState` snapshot.

    Layout: header (address width, bound flag + bound, total references,
    digest accumulators), the LRU stack as uint64 little-endian addresses
    most recent first (the stack holds exactly the unique references —
    nothing is ever evicted), uint64 occurrence counts aligned to the
    stack, then the *raw* per-level cardinality counts in the
    :class:`HistogramsCodec` layout (raw: before the singleton-row
    post-filter, which is re-derived from the restored state).  Row
    membership is rebuilt from the stack on decode.
    """

    stage = "stream-checkpoint"
    version = 1

    def encode(self, snapshot: Dict[str, object]) -> bytes:
        stack = snapshot["stack"]
        occurrences = snapshot["occurrences"]
        max_level = snapshot["max_level"]
        bounded = 0 if max_level is None else 1
        counts: List[Dict[int, int]] = snapshot["counts"]  # type: ignore[assignment]
        parts: List[bytes] = [
            struct.pack(
                "<IBIQQQQ",
                snapshot["address_bits"],
                bounded,
                0 if max_level is None else int(max_level),
                snapshot["total_refs"],
                snapshot["h1"],
                snapshot["h2"],
                len(stack),
            ),
            _array_bytes(array("Q", stack)),
            _array_bytes(array("Q", occurrences)),
            struct.pack("<I", len(counts)),
        ]
        for level, level_counts in enumerate(counts):
            parts.append(struct.pack("<II", level, len(level_counts)))
            for distance in sorted(level_counts):
                parts.append(struct.pack("<IQ", distance, level_counts[distance]))
        return b"".join(parts)

    def decode(
        self, payload: bytes, context: Optional[Trace] = None
    ) -> Dict[str, object]:
        reader = _Reader(payload)
        (
            address_bits,
            bounded,
            bound,
            total_refs,
            h1,
            h2,
            n_unique,
        ) = reader.unpack("<IBIQQQQ")
        stack = _array_from("Q", reader.read(8 * n_unique)).tolist()
        occurrences = _array_from("Q", reader.read(8 * n_unique)).tolist()
        (n_levels,) = reader.unpack("<I")
        counts: List[Dict[int, int]] = []
        for expected in range(n_levels):
            level, n_entries = reader.unpack("<II")
            if level != expected:
                raise CorruptArtifact(
                    f"checkpoint level {level} out of order (expected {expected})"
                )
            level_counts: Dict[int, int] = {}
            for _ in range(n_entries):
                distance, count = reader.unpack("<IQ")
                level_counts[distance] = count
            counts.append(level_counts)
        reader.expect_end()
        if address_bits < 1:
            raise CorruptArtifact("checkpoint address_bits must be >= 1")
        max_level = int(bound) if bounded else None
        limit = address_bits if max_level is None else min(max_level, address_bits)
        if n_levels != limit + 1:
            raise CorruptArtifact(
                f"checkpoint carries {n_levels} levels, expected {limit + 1}"
            )
        if len(set(stack)) != len(stack):
            raise CorruptArtifact("checkpoint stack repeats an address")
        if any(a < 0 or a >= (1 << address_bits) for a in stack):
            raise CorruptArtifact("checkpoint stack address out of range")
        if any(c < 1 for c in occurrences):
            raise CorruptArtifact("checkpoint occurrence count must be >= 1")
        if sum(occurrences) > total_refs:
            raise CorruptArtifact(
                "checkpoint occurrence counts exceed total references"
            )
        return {
            "address_bits": address_bits,
            "max_level": max_level,
            "total_refs": total_refs,
            "h1": h1,
            "h2": h2,
            "stack": stack,
            "occurrences": occurrences,
            "counts": counts,
        }


class PolicyMissesCodec:
    """Per-depth miss table of one non-LRU replacement policy.

    Keyed with the policy name and depth as artifact-key params — a
    stage of its own, disjoint from the (LRU-only) ``histograms``
    stage, so policy entries can never be addressed by an LRU
    warm-start or vice versa.
    """

    stage = "policy-misses"
    version = 1

    def encode(self, table) -> bytes:
        counts = table.counts
        parts: List[bytes] = [
            struct.pack(
                "<III", table.depth, table.zero_associativity, len(counts)
            )
        ]
        for assoc in sorted(counts):
            parts.append(struct.pack("<IQ", assoc, counts[assoc]))
        return b"".join(parts)

    def decode(self, payload: bytes, context: Optional[Trace] = None):
        from repro.core.fifo import PolicyMissTable

        reader = _Reader(payload)
        depth, zero, n_entries = reader.unpack("<III")
        if depth < 1 or (depth & (depth - 1)) != 0:
            raise CorruptArtifact(f"depth {depth} is not a power of two")
        if zero < 1:
            raise CorruptArtifact(f"zero associativity {zero} < 1")
        counts: Dict[int, int] = {}
        previous = 1
        for _ in range(n_entries):
            assoc, misses = reader.unpack("<IQ")
            if not previous < assoc < zero:
                raise CorruptArtifact(
                    f"associativity {assoc} out of order or outside "
                    f"(1, {zero})"
                )
            previous = assoc
            counts[assoc] = misses
        reader.expect_end()
        return PolicyMissTable(
            depth=depth, zero_associativity=zero, counts=counts
        )


#: Shared codec instances, one per pipeline stage.
STRIPPED_CODEC = StrippedTraceCodec()
ZEROSETS_CODEC = ZeroOneSetsCodec()
MRCT_CODEC = MRCTCodec()
HISTOGRAMS_CODEC = HistogramsCodec()
PACKED_MRCT_CODEC = PackedMRCTCodec()
STREAM_CHECKPOINT_CODEC = StreamCheckpointCodec()
POLICY_MISSES_CODEC = PolicyMissesCodec()

#: All stage codecs by stage name (CLI stats iterate this).
STAGE_CODECS = {
    codec.stage: codec
    for codec in (
        STRIPPED_CODEC,
        ZEROSETS_CODEC,
        MRCT_CODEC,
        PACKED_MRCT_CODEC,
        HISTOGRAMS_CODEC,
        STREAM_CHECKPOINT_CODEC,
        POLICY_MISSES_CODEC,
    )
}
