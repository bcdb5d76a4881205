"""Versioned binary serialization for the pipeline's artifacts.

Each stored stage has one codec — an object with a ``stage`` name, a
``version`` (the schema coordinate of :class:`repro.store.ArtifactKey`),
``encode(value) -> bytes`` and ``decode(payload) -> value``.  Only what
answers are read from is stored: the per-level conflict histograms,
the per-depth miss tables of non-LRU policies, and streaming
checkpoints.  The prelude's intermediate products (stripped trace,
zero/one sets, MRCT) are rebuilt from the trace when needed.

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
from typing import Dict, List, Tuple

from repro.core.postlude import LevelHistogram

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


def unpack_entry(blob: bytes, codec_version: int) -> bytes:
    """Validate framing and checksum; return the payload.

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


#: One ``(distance or associativity, count)`` entry of a stored table.
_PAIR = struct.Struct("<IQ")


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

    def pairs(self, count: int) -> Dict[int, int]:
        """``count`` ``<IQ`` (key, value) pairs as a dict, bounds-checked
        once and unpacked in bulk."""
        size = _PAIR.size * count
        if self._pos + size > len(self._view):
            raise CorruptArtifact("payload truncated mid-field")
        block = self._view[self._pos:self._pos + size]
        self._pos += size
        return dict(_PAIR.iter_unpack(block))

    def read(self, size: int) -> bytes:
        if self._pos + size > len(self._view):
            raise CorruptArtifact("payload truncated mid-block")
        block = self._view[self._pos:self._pos + size].tobytes()
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

    def decode(self, payload: bytes) -> Dict[int, LevelHistogram]:
        reader = _Reader(payload)
        (n_levels,) = reader.unpack("<I")
        histograms: Dict[int, LevelHistogram] = {}
        for _ in range(n_levels):
            level, n_entries = reader.unpack("<II")
            histograms[level] = LevelHistogram(
                level=level, counts=reader.pairs(n_entries)
            )
        reader.expect_end()
        return histograms


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

    def decode(self, payload: bytes) -> Dict[str, object]:
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
            counts.append(reader.pairs(n_entries))
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

    def decode(self, payload: bytes):
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


#: Shared codec instances, one per stored stage.
HISTOGRAMS_CODEC = HistogramsCodec()
STREAM_CHECKPOINT_CODEC = StreamCheckpointCodec()
POLICY_MISSES_CODEC = PolicyMissesCodec()

#: Every stored stage's codec, by stage name.
STAGE_CODECS = {
    codec.stage: codec
    for codec in (
        HISTOGRAMS_CODEC,
        STREAM_CHECKPOINT_CODEC,
        POLICY_MISSES_CODEC,
    )
}
