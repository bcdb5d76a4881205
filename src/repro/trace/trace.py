"""The :class:`Trace` container.

A :class:`Trace` is an immutable-ish sequence of word addresses together
with the number of significant address bits.  The address width determines
how many index bits the analytical algorithm may consume, i.e. the maximum
cache depth that can be explored (``2**address_bits`` rows).

Addresses are *word* addresses: the paper fixes the cache line size at one
word and varies only depth and associativity, so the low-order address bits
are the cache index bits, exactly as in the paper's running example
(Table 1 uses raw 4-bit addresses).
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.trace.reference import AccessKind, MemoryReference

#: Access kinds as packed dinero labels, one byte per reference.
KindLabels = Union[bytes, bytearray, memoryview]

#: The kind of each dinero label (0 read, 1 write, 2 fetch).
_KIND_BY_LABEL = tuple(AccessKind)
_LABELS = bytes(kind.value for kind in AccessKind)
_KIND_VALUE = attrgetter("_value_")

#: From this length one NumPy ``min``/``max`` pass beats Python's (about
#: 5.5 vs 10 us at 128 refs, 6 vs 39 us at 512; a NumPy pass costs about
#: 5 us at any short length), and a shorter trace never imports NumPy.
#: ``_shifted`` uses the same cut-off.
_NUMPY_RANGE_MIN_REFS = 128


def _required_bits(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1)."""
    return max(1, int(value).bit_length())


def _address_range(addrs: array) -> Tuple[int, int]:
    """``(min, max)`` of packed addresses, ``(0, 0)`` when empty."""
    if len(addrs) >= _NUMPY_RANGE_MIN_REFS:
        try:
            import numpy as np
        except ImportError:
            pass
        else:
            values = np.frombuffer(addrs, dtype=np.int64)
            return int(values.min()), int(values.max())
    if not len(addrs):
        return 0, 0
    return min(addrs), max(addrs)


def _shifted(addrs: array, shift: int) -> array:
    """``addr >> shift`` for every packed address."""
    if len(addrs) >= _NUMPY_RANGE_MIN_REFS:
        try:
            import numpy as np
        except ImportError:
            pass
        else:
            shifted = array("q", addrs)
            view = np.frombuffer(shifted, dtype=np.int64)
            view >>= shift  # in place, through the array's buffer
            return shifted
    return array("q", [addr >> shift for addr in addrs])


def _kind_labels(kinds: Union[KindLabels, Sequence[AccessKind]]) -> bytes:
    """Access kinds as checked dinero labels."""
    if isinstance(kinds, (bytes, bytearray, memoryview)):
        labels = bytes(kinds)
        # Deleting every known label must leave nothing behind.
        stray = labels.translate(None, _LABELS)
        if stray:
            AccessKind.from_din(stray[0])  # raises, naming the label
        return labels
    try:
        return bytes(map(_KIND_VALUE, kinds))
    except AttributeError:
        raise TypeError(
            "kinds must be AccessKind values or bytes-like dinero labels"
        ) from None


class Trace:
    """A sequence of word-addressed memory references.

    Args:
        addresses: iterable of non-negative word addresses, in program order.
        address_bits: significant address width in bits.  Defaults to the
            width of the largest address present (minimum 1).
        kinds: optional per-reference access kinds, as a sequence of
            :class:`AccessKind` or as bytes-like dinero labels (0 read,
            1 write, 2 fetch; kept packed, one byte per reference); must
            match ``addresses`` in length when given.  When omitted
            every access is a READ.
        name: optional human-readable label (e.g. ``"crc.data"``).

    Raises:
        ValueError: on negative addresses, on an address that does not fit
            in ``address_bits``, on a label outside 0-2, or on a
            kinds/addresses length mismatch.
    """

    __slots__ = ("_addresses", "_kind_labels", "_address_bits", "name")

    def __init__(
        self,
        addresses: Iterable[int],
        address_bits: Optional[int] = None,
        kinds: Union[None, KindLabels, Sequence[AccessKind]] = None,
        name: str = "",
    ) -> None:
        if isinstance(addresses, array) and addresses.typecode == "q":
            addrs = array("q", addresses)  # one C-level copy
        else:
            addrs = array("q", (int(a) for a in addresses))
        min_addr, max_addr = _address_range(addrs)
        if min_addr < 0:
            raise ValueError("trace addresses must be non-negative")
        if address_bits is None:
            address_bits = _required_bits(max_addr)
        if address_bits < 1:
            raise ValueError(f"address_bits must be >= 1, got {address_bits}")
        if max_addr.bit_length() > address_bits:
            raise ValueError(
                f"address {max_addr:#x} does not fit in {address_bits} bits"
            )
        labels = None if kinds is None else _kind_labels(kinds)
        if labels is not None and len(labels) != len(addrs):
            raise ValueError(
                f"kinds length {len(labels)} != addresses length {len(addrs)}"
            )
        self._addresses = addrs
        self._kind_labels = labels
        self._address_bits = address_bits
        self.name = name

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_references(
        cls,
        references: Iterable[MemoryReference],
        address_bits: Optional[int] = None,
        name: str = "",
    ) -> "Trace":
        """Build a trace from :class:`MemoryReference` objects."""
        refs = list(references)
        return cls(
            (r.address for r in refs),
            address_bits=address_bits,
            kinds=[r.kind for r in refs],
            name=name,
        )

    @classmethod
    def from_bit_strings(cls, patterns: Iterable[str], name: str = "") -> "Trace":
        """Build a trace from binary strings such as ``"1011"``.

        All patterns must have the same width, which becomes the trace's
        ``address_bits``.  This mirrors how the paper presents its running
        example (Table 1).
        """
        pats = [p.strip() for p in patterns]
        if not pats:
            raise ValueError("at least one bit pattern is required")
        width = len(pats[0])
        if width == 0:
            raise ValueError("bit patterns must be non-empty")
        for p in pats:
            if len(p) != width:
                raise ValueError(f"inconsistent pattern width: {p!r} vs {width} bits")
            if set(p) - {"0", "1"}:
                raise ValueError(f"invalid bit pattern: {p!r}")
        return cls((int(p, 2) for p in pats), address_bits=width, name=name)

    # -- core protocol ---------------------------------------------------------

    @property
    def addresses(self) -> Sequence[int]:
        """The raw address sequence (a compact ``array``)."""
        return self._addresses

    @property
    def address_bits(self) -> int:
        """Number of significant address bits."""
        return self._address_bits

    @property
    def kinds(self) -> Optional[List[AccessKind]]:
        """Per-reference access kinds (a new list), or ``None`` when untyped."""
        if self._kind_labels is None:
            return None
        return list(map(_KIND_BY_LABEL.__getitem__, self._kind_labels))

    @property
    def kind_labels(self) -> Optional[bytes]:
        """Per-reference dinero labels, one byte each, or ``None`` when untyped."""
        return self._kind_labels

    @property
    def has_kinds(self) -> bool:
        """True when per-reference access kinds are attached."""
        return self._kind_labels is not None

    def kind(self, index: int) -> AccessKind:
        """Access kind of the reference at ``index`` (READ when untyped)."""
        if self._kind_labels is None:
            return AccessKind.READ
        return _KIND_BY_LABEL[self._kind_labels[index]]

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self._addresses)

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "Trace"]:
        if isinstance(index, slice):
            labels = self._kind_labels
            return Trace(
                self._addresses[index],
                address_bits=self._address_bits,
                kinds=labels[index] if labels is not None else None,
                name=self.name,
            )
        return self._addresses[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self._addresses == other._addresses
            and self._address_bits == other._address_bits
        )

    def __hash__(self) -> int:
        return hash((bytes(self._addresses.tobytes()), self._address_bits))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Trace{label} n={len(self)} bits={self._address_bits} "
            f"unique={self.unique_count()}>"
        )

    # -- derived views ----------------------------------------------------------

    def references(self) -> Iterator[MemoryReference]:
        """Iterate the trace as :class:`MemoryReference` objects."""
        for i, addr in enumerate(self._addresses):
            yield MemoryReference(addr, self.kind(i))

    def unique_addresses(self) -> List[int]:
        """Unique addresses in order of first occurrence (the stripped trace)."""
        seen = set()
        out: List[int] = []
        for addr in self._addresses:
            if addr not in seen:
                seen.add(addr)
                out.append(addr)
        return out

    def unique_count(self) -> int:
        """Number of distinct addresses (the paper's N')."""
        return len(set(self._addresses))

    def filter_kind(self, *kinds: AccessKind, name: str = "") -> "Trace":
        """Sub-trace containing only the given access kinds.

        Used to split a combined processor trace into the instruction trace
        (``FETCH``) and the data trace (``READ``, ``WRITE``).
        """
        labels = self._kind_labels
        if labels is None:
            raise ValueError("trace has no access kinds to filter on")
        wanted = {kind.value for kind in kinds}
        idx = [i for i, label in enumerate(labels) if label in wanted]
        return Trace(
            (self._addresses[i] for i in idx),
            address_bits=self._address_bits,
            kinds=bytes(labels[i] for i in idx),
            name=name or self.name,
        )

    def concat(self, other: "Trace", name: str = "") -> "Trace":
        """Concatenate two traces; widths widen to fit both."""
        bits = max(self._address_bits, other._address_bits)
        kinds: Optional[bytes] = None
        if self.has_kinds or other.has_kinds:
            # An untyped side reads as all READ (label 0).
            kinds = (self._kind_labels or bytes(len(self))) + (
                other._kind_labels or bytes(len(other))
            )
        merged = array("q", self._addresses)
        merged.extend(other._addresses)
        return Trace(merged, address_bits=bits, kinds=kinds, name=name)

    def rebased(self, address_bits: int) -> "Trace":
        """Same addresses with a different declared width."""
        return Trace(
            self._addresses,
            address_bits=address_bits,
            kinds=self._kind_labels,
            name=self.name,
        )

    def to_line_trace(self, line_words: int) -> "Trace":
        """The trace as seen at line granularity: ``address >> log2(L)``.

        A set-associative LRU cache with ``line_words``-word lines
        behaves on this trace (with one-word lines) exactly as it does
        on the original trace — the transformation that extends the
        analytical algorithm to the line-size axis.
        """
        if line_words < 1 or (line_words & (line_words - 1)) != 0:
            raise ValueError(
                f"line_words must be a power of two, got {line_words}"
            )
        shift = line_words.bit_length() - 1
        bits = max(1, self._address_bits - shift)
        return Trace(
            _shifted(self._addresses, shift),
            address_bits=bits,
            kinds=self._kind_labels,
            name=f"{self.name}/L{line_words}" if self.name else "",
        )
