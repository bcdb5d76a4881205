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
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.trace.reference import AccessKind, MemoryReference


def _required_bits(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1)."""
    return max(1, int(value).bit_length())


class Trace:
    """A sequence of word-addressed memory references.

    Args:
        addresses: iterable of non-negative word addresses, in program order.
        address_bits: significant address width in bits.  Defaults to the
            width of the largest address present (minimum 1).
        kinds: optional per-reference access kinds; must match ``addresses``
            in length when given.  When omitted every access is a READ.
        name: optional human-readable label (e.g. ``"crc.data"``).

    Raises:
        ValueError: on negative addresses, on an address that does not fit
            in ``address_bits``, or on a kinds/addresses length mismatch.
    """

    __slots__ = ("_addresses", "_kinds", "_address_bits", "name")

    def __init__(
        self,
        addresses: Iterable[int],
        address_bits: Optional[int] = None,
        kinds: Optional[Sequence[AccessKind]] = None,
        name: str = "",
    ) -> None:
        if isinstance(addresses, array) and addresses.typecode == "q":
            addrs = array("q", addresses)  # one C-level copy
        else:
            addrs = array("q", (int(a) for a in addresses))
        if len(addrs) and min(addrs) < 0:
            raise ValueError("trace addresses must be non-negative")
        max_addr = max(addrs) if len(addrs) else 0
        if address_bits is None:
            address_bits = _required_bits(max_addr)
        if address_bits < 1:
            raise ValueError(f"address_bits must be >= 1, got {address_bits}")
        if max_addr >= (1 << address_bits):
            raise ValueError(
                f"address {max_addr:#x} does not fit in {address_bits} bits"
            )
        if kinds is not None:
            kinds = list(kinds)
            if len(kinds) != len(addrs):
                raise ValueError(
                    f"kinds length {len(kinds)} != addresses length {len(addrs)}"
                )
        self._addresses = addrs
        self._kinds = kinds
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
    def kinds(self) -> Optional[Sequence[AccessKind]]:
        """Per-reference access kinds, or ``None`` when untyped."""
        return self._kinds

    @property
    def has_kinds(self) -> bool:
        """True when per-reference access kinds are attached."""
        return self._kinds is not None

    def kind(self, index: int) -> AccessKind:
        """Access kind of the reference at ``index`` (READ when untyped)."""
        if self._kinds is None:
            return AccessKind.READ
        return self._kinds[index]

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self._addresses)

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "Trace"]:
        if isinstance(index, slice):
            kinds = self._kinds[index] if self._kinds is not None else None
            return Trace(
                self._addresses[index],
                address_bits=self._address_bits,
                kinds=kinds,
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
        if self._kinds is None:
            raise ValueError("trace has no access kinds to filter on")
        wanted = set(kinds)
        idx = [i for i, k in enumerate(self._kinds) if k in wanted]
        return Trace(
            (self._addresses[i] for i in idx),
            address_bits=self._address_bits,
            kinds=[self._kinds[i] for i in idx],
            name=name or self.name,
        )

    def concat(self, other: "Trace", name: str = "") -> "Trace":
        """Concatenate two traces; widths widen to fit both."""
        bits = max(self._address_bits, other._address_bits)
        kinds: Optional[List[AccessKind]] = None
        if self._kinds is not None or other._kinds is not None:
            kinds = [self.kind(i) for i in range(len(self))]
            kinds.extend(other.kind(i) for i in range(len(other)))
        merged = array("q", self._addresses)
        merged.extend(other._addresses)
        return Trace(merged, address_bits=bits, kinds=kinds, name=name)

    def rebased(self, address_bits: int) -> "Trace":
        """Same addresses with a different declared width."""
        return Trace(
            self._addresses,
            address_bits=address_bits,
            kinds=self._kinds,
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
            (addr >> shift for addr in self._addresses),
            address_bits=bits,
            kinds=self._kinds,
            name=f"{self.name}/L{line_words}" if self.name else "",
        )
