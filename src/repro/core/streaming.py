"""Streaming postlude: all level histograms in one trace pass, O(N') memory.

The paper stores the MRCT explicitly, making space proportional to the
trace length (its section 2.4 accepts this because embedded traces are
loop-dominated).  This module removes even that: conflict cardinalities
for *every* level are computed on the fly from a single global LRU
stack, so memory is O(N') regardless of trace length, and no conflict
set is ever materialized.

The trick: when reference ``u`` recurs, its conflict set is exactly the
stack entries above it.  The row-local conflict cardinality at level
``l`` is the number of those entries agreeing with ``u`` in the low
``l`` address bits — i.e. whose XOR with ``u`` has at least ``l``
trailing zero bits.  One walk over the ``d`` entries above ``u``
therefore yields every level's cardinality at once: bucket each entry
by ``trailing_zeros(entry XOR u)`` (clamped to the deepest level) and
suffix-sum the buckets.  Total cost is O(sum of global reuse distances
+ N * levels) — the same asymptotics as the MRCT path.  The stack is a
doubly-linked list with an address → node position map, so relocating a
reference to the top is O(1) and the only per-reference cost is the
reuse-distance walk itself.  In pure Python that walk is slower than
the MRCT path's word-parallel bitmask popcounts (the benchmark
quantifies it), so this pass's value is its *space* and its
*appendability*: O(N') live state versus conflict sets proportional to
the trace length.

All of the per-reference state lives in :class:`StreamingState`, which
is *appendable* (feed the trace in chunks; histograms are exact after
every chunk) and *checkpointable* (``repro.store`` persists and
restores it, see :mod:`repro.stream`).  Produces histograms
bit-identical to :func:`repro.core.postlude.compute_level_histograms`
(tested).  It is not a registered engine — the ``streaming`` name in
:mod:`repro.core.engines` is an alias of ``vectorized``, which is far
faster on a whole trace — but the session layer appends to it.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.postlude import LevelHistogram, validate_max_level
from repro.trace.trace import Trace

#: Domain tag folded into every session content digest.
DIGEST_TAG = b"repro-stream-digest/1"

#: Two distinct odd multipliers for the resumable polynomial digest.
_POLY_A = 0x9E3779B97F4A7C15
_POLY_B = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1


def _trailing_zeros(value: int) -> int:
    """Number of trailing zero bits (value must be non-zero)."""
    return (value & -value).bit_length() - 1


def _mix64(value: int) -> int:
    """splitmix64 finalizer: scramble one 64-bit word."""
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


class _Node:
    """One LRU-stack entry (intrusive doubly-linked list node)."""

    __slots__ = ("addr", "prev", "next")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class StreamingState:
    """Appendable, checkpointable state of the streaming postlude.

    Holds the global LRU stack (doubly-linked, with an address → node
    position map for O(1) relocation), per-address occurrence counts,
    per-level row-membership counts, the raw per-level cardinality
    counts, and a resumable content digest.  After *any* sequence of
    :meth:`append` calls, :meth:`histograms` is bit-identical to running
    the batch engines on the concatenation of everything appended so
    far — the state never needs to revisit old references.

    Args:
        address_bits: significant address width; fixed for the session
            (appended addresses must fit).
        max_level: deepest level to histogram (default: ``address_bits``).

    Raises:
        ValueError: on a non-positive width or a negative ``max_level``.
    """

    def __init__(self, address_bits: int, max_level: Optional[int] = None) -> None:
        if address_bits < 1:
            raise ValueError(f"address_bits must be >= 1, got {address_bits}")
        max_level = validate_max_level(max_level)
        self.address_bits = address_bits
        self.max_level = max_level
        self.limit = address_bits if max_level is None else min(max_level, address_bits)
        # Sentinel-headed circular list; head.next is the stack top.
        self._head = _Node(-1)
        self._head.prev = self._head
        self._head.next = self._head
        self._nodes: Dict[int, _Node] = {}
        self.occurrences: Dict[int, int] = {}
        self.row_members: List[Dict[int, int]] = [
            dict() for _ in range(self.limit + 1)
        ]
        # Raw cardinality counts per level, *before* the singleton-row
        # post-filter (which histograms() applies non-destructively).
        self._counts: List[Dict[int, int]] = [dict() for _ in range(self.limit + 1)]
        self.total_refs = 0
        # Resumable rolling digest over the appended address sequence.
        self._h1 = 0
        self._h2 = 0

    # -- ingestion -------------------------------------------------------------

    def append(self, chunk: Union[Trace, Iterable[int]]) -> int:
        """Ingest a chunk of references; histograms stay exact.

        Args:
            chunk: a :class:`Trace` or iterable of word addresses, in
                program order.  Addresses must fit ``address_bits``.

        Returns:
            the number of references ingested from this chunk.

        Raises:
            ValueError: when an address does not fit ``address_bits``.
                The whole chunk is checked first, so a rejected chunk
                leaves the state exactly as it was.
        """
        if isinstance(chunk, Trace):
            if chunk.address_bits > self.address_bits:
                raise ValueError(
                    f"chunk address_bits {chunk.address_bits} exceeds "
                    f"session width {self.address_bits}"
                )
            addresses: Sequence = chunk.addresses
        elif isinstance(chunk, (list, tuple, array)):
            addresses = chunk
        else:
            addresses = list(chunk)
        top_mask = -1 << self.address_bits
        if addresses and (
            int(min(addresses)) < 0 or int(max(addresses)) & top_mask
        ):
            for addr in addresses:
                addr = int(addr)
                if addr < 0 or addr & top_mask:
                    raise ValueError(
                        f"address {addr:#x} does not fit in "
                        f"{self.address_bits} bits"
                    )

        limit = self.limit
        head = self._head
        nodes = self._nodes
        occurrences = self.occurrences
        row_members = self.row_members
        counts = self._counts
        h1, h2 = self._h1, self._h2
        n = 0

        for addr in addresses:
            addr = int(addr)
            n += 1
            mixed = _mix64(addr & _MASK64)
            h1 = (h1 * _POLY_A + mixed + 1) & _MASK64
            h2 = (h2 * _POLY_B + mixed + 1) & _MASK64
            node = nodes.get(addr)
            if node is None:
                # Cold occurrence: push a fresh node, no conflicts recorded.
                node = _Node(addr)
                first = head.next
                node.prev = head
                node.next = first
                first.prev = node
                head.next = node
                nodes[addr] = node
                occurrences[addr] = 1
                for level in range(limit + 1):
                    row = addr & ((1 << level) - 1)
                    members = row_members[level]
                    members[row] = members.get(row, 0) + 1
                continue
            occurrences[addr] += 1
            # Walk top → node, bucketing the d conflicting entries above
            # it by shared low bits with addr (depth falls out for free).
            buckets = [0] * (limit + 1)
            walker = head.next
            while walker is not node:
                shared = _trailing_zeros(walker.addr ^ addr)
                buckets[shared if shared < limit else limit] += 1
                walker = walker.next
            # Level l's conflict cardinality = entries sharing >= l low bits.
            cardinality = 0
            for level in range(limit, -1, -1):
                cardinality += buckets[level]
                level_counts = counts[level]
                level_counts[cardinality] = level_counts.get(cardinality, 0) + 1
            # Relocate to the top: unlink, then relink after the sentinel.
            node.prev.next = node.next
            node.next.prev = node.prev
            first = head.next
            node.prev = head
            node.next = first
            first.prev = node
            head.next = node

        self._h1, self._h2 = h1, h2
        self.total_refs += n
        return n

    # -- results ---------------------------------------------------------------

    def histograms(self) -> Dict[int, LevelHistogram]:
        """Current per-level histograms, bit-identical to the batch path.

        Applies the BCAT singleton-row post-filter (zero-distance entries
        of rows holding one unique reference are omitted) to a *copy* of
        the raw counts, so the state keeps accepting appends afterwards.
        """
        result: Dict[int, LevelHistogram] = {}
        occurrences = self.occurrences
        for level in range(self.limit + 1):
            counts = dict(self._counts[level])
            mask = (1 << level) - 1
            members = self.row_members[level]
            removable = 0
            for addr, count in occurrences.items():
                if count > 1 and members[addr & mask] == 1:
                    removable += count - 1
            if removable:
                counts[0] -= removable
                if counts[0] == 0:
                    del counts[0]
            result[level] = LevelHistogram(level, counts)
        return result

    @property
    def unique_count(self) -> int:
        """Distinct addresses seen so far (the paper's N')."""
        return len(self._nodes)

    def stack_addresses(self) -> List[int]:
        """The LRU stack, most recent first (exactly the unique addresses)."""
        out: List[int] = []
        walker = self._head.next
        while walker is not self._head:
            out.append(walker.addr)
            walker = walker.next
        return out

    # -- digest & checkpointing ------------------------------------------------

    def digest_state(self) -> Tuple[int, int, int]:
        """The resumable digest accumulator ``(h1, h2, total_refs)``."""
        return (self._h1, self._h2, self.total_refs)

    @property
    def content_digest(self) -> str:
        """Hex digest identifying (address_bits, appended sequence).

        Split-independent: any chunking of the same sequence yields the
        same digest.  Built from two independent 64-bit polynomial
        rolling hashes over splitmix64-mixed addresses (so the
        accumulator is checkpointable), finalized through SHA-256.  Not
        a cryptographic hash of the trace — a stable session identity.
        """
        payload = DIGEST_TAG + b"\x00" + b"%d:%d:%d:%d" % (
            self.address_bits,
            self.total_refs,
            self._h1,
            self._h2,
        )
        return hashlib.sha256(payload).hexdigest()

    def snapshot(self) -> Dict[str, object]:
        """Checkpointable view of the full state (see the store codec).

        The stack (most recent first) carries exactly the unique
        addresses, so ``occurrences`` is stored aligned to it and
        ``row_members`` is rebuilt on restore.
        """
        stack = self.stack_addresses()
        return {
            "address_bits": self.address_bits,
            "max_level": self.max_level,
            "total_refs": self.total_refs,
            "h1": self._h1,
            "h2": self._h2,
            "stack": stack,
            "occurrences": [self.occurrences[addr] for addr in stack],
            "counts": [dict(c) for c in self._counts],
        }

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "StreamingState":
        """Rebuild a state from :meth:`snapshot` output."""
        state = cls(
            int(snapshot["address_bits"]),
            snapshot["max_level"],  # type: ignore[arg-type]
        )
        stack: List[int] = list(snapshot["stack"])  # type: ignore[arg-type]
        occ: List[int] = list(snapshot["occurrences"])  # type: ignore[arg-type]
        if len(stack) != len(occ):
            raise ValueError("snapshot stack/occurrences length mismatch")
        # Relink bottom-up so the first stack entry ends up on top.
        for addr, count in zip(reversed(stack), reversed(occ)):
            node = _Node(addr)
            first = state._head.next
            node.prev = state._head
            node.next = first
            first.prev = node
            state._head.next = node
            state._nodes[addr] = node
            state.occurrences[addr] = count
            for level in range(state.limit + 1):
                row = addr & ((1 << level) - 1)
                members = state.row_members[level]
                members[row] = members.get(row, 0) + 1
        counts: List[Dict[int, int]] = snapshot["counts"]  # type: ignore[assignment]
        if len(counts) != state.limit + 1:
            raise ValueError(
                f"snapshot carries {len(counts)} levels, expected {state.limit + 1}"
            )
        state._counts = [
            {int(k): int(v) for k, v in level.items()} for level in counts
        ]
        state.total_refs = int(snapshot["total_refs"])
        state._h1 = int(snapshot["h1"])
        state._h2 = int(snapshot["h2"])
        return state


class StreamDigest:
    """Digest-only accumulator: a session's content digest without its state.

    Runs the same rolling hashes as :class:`StreamingState` but keeps no
    stack or histograms, so a cheap pre-pass over a chunked file can
    decide whether a checkpoint for the full sequence already exists
    before paying for ingestion.
    """

    __slots__ = ("address_bits", "total_refs", "_h1", "_h2")

    def __init__(self, address_bits: int) -> None:
        if address_bits < 1:
            raise ValueError(f"address_bits must be >= 1, got {address_bits}")
        self.address_bits = address_bits
        self.total_refs = 0
        self._h1 = 0
        self._h2 = 0

    def append(self, chunk: Iterable[int]) -> int:
        h1, h2 = self._h1, self._h2
        n = 0
        for addr in chunk:
            mixed = _mix64(int(addr) & _MASK64)
            h1 = (h1 * _POLY_A + mixed + 1) & _MASK64
            h2 = (h2 * _POLY_B + mixed + 1) & _MASK64
            n += 1
        self._h1, self._h2 = h1, h2
        self.total_refs += n
        return n

    @property
    def content_digest(self) -> str:
        payload = DIGEST_TAG + b"\x00" + b"%d:%d:%d:%d" % (
            self.address_bits,
            self.total_refs,
            self._h1,
            self._h2,
        )
        return hashlib.sha256(payload).hexdigest()


def trace_stream_digest(trace: Trace) -> str:
    """The :attr:`StreamingState.content_digest` of a whole trace.

    Convenience for warm-start lookups: matches the digest of a session
    that appended exactly this trace, without building the full state.
    """
    digest = StreamDigest(trace.address_bits)
    digest.append(trace)
    return digest.content_digest


def compute_level_histograms_streaming(
    trace: Trace, max_level: Optional[int] = None
) -> Dict[int, LevelHistogram]:
    """All per-level conflict histograms in one pass over the trace.

    Args:
        trace: word-addressed trace.
        max_level: deepest level to histogram (default: the trace's
            address width).

    Returns:
        ``{level: LevelHistogram}`` for levels ``0 .. max_level``,
        identical to the BCAT/MRCT pipeline's output.
    """
    state = StreamingState(trace.address_bits, max_level=max_level)
    state.append(trace)
    return state.histograms()
