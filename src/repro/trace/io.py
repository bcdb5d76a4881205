"""Trace file input/output.

Three on-disk formats are supported, each optionally gzip-compressed
(selected by a ``.gz`` suffix):

* **text** (``.trace`` / ``.txt``) — one hexadecimal word address per line,
  ``#`` comments allowed.
* **dinero** (``.din``) — the classic dinero III input format: one access
  per line as ``<label> <hex-address>`` where label 0 = data read,
  1 = data write, 2 = instruction fetch.
* **csv** (``.csv``) — ``kind,address`` rows with a header, kind being one
  of ``read``/``write``/``fetch``.
* **binary** (``.rbt``, "repro binary trace") — a fixed-width format
  for long traces: magic ``RBT1``, address width, count, kind flag,
  then little-endian 8-byte addresses and (optionally) one kind byte
  per reference.  Loads in one ``array.frombytes`` call — far faster
  than line parsing — and compresses well under the ``.gz`` option.

:func:`read_trace` and :func:`write_trace` dispatch on the file suffix.
"""

from __future__ import annotations

import csv
import functools
import gzip
import io
import os
import struct
from array import array
from typing import Callable, Dict, Iterator, List, Optional, TextIO, Union

from repro.trace.reference import AccessKind
from repro.trace.trace import Trace

PathLike = Union[str, "os.PathLike[str]"]

_KIND_NAMES = {
    AccessKind.READ: "read",
    AccessKind.WRITE: "write",
    AccessKind.FETCH: "fetch",
}
_KIND_BY_NAME = {name: kind for kind, name in _KIND_NAMES.items()}


def _open_text(path: PathLike, mode: str) -> TextIO:
    """Open a (possibly gzip-compressed) text file."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _strip_gz(path: PathLike) -> str:
    name = str(path)
    return name[:-3] if name.endswith(".gz") else name


# -- text format ---------------------------------------------------------------


def write_text_trace(trace: Trace, path: PathLike) -> None:
    """Write one hexadecimal address per line."""
    with _open_text(path, "w") as fh:
        fh.write(f"# address_bits={trace.address_bits}\n")
        for addr in trace:
            fh.write(f"{addr:x}\n")


def read_text_trace(path: PathLike, address_bits: Optional[int] = None) -> Trace:
    """Read a text trace; honours an ``# address_bits=`` header comment."""
    addresses: List[int] = []
    header_bits: Optional[int] = None
    with _open_text(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("address_bits="):
                    header_bits = int(body.split("=", 1)[1])
                continue
            addresses.append(int(line, 16))
    bits = address_bits if address_bits is not None else header_bits
    return Trace(addresses, address_bits=bits, name=os.path.basename(_strip_gz(path)))


# -- dinero din format -----------------------------------------------------------


def write_dinero_trace(trace: Trace, path: PathLike) -> None:
    """Write the dinero III ``<label> <hex-address>`` format."""
    with _open_text(path, "w") as fh:
        for i, addr in enumerate(trace):
            fh.write(f"{trace.kind(i).value} {addr:x}\n")


def read_dinero_trace(path: PathLike, address_bits: Optional[int] = None) -> Trace:
    """Read a dinero III trace, preserving access kinds.

    A file of canonical ``<0-2> <1-15 hex digits>\\n`` lines (what
    :func:`write_dinero_trace` writes) is decoded in one NumPy pass over
    its bytes.  Anything else — comments, blank lines, tabs, CRLF,
    other labels, longer addresses, or no NumPy — is read line by line,
    and only that loop reports malformed lines.
    """
    name = os.path.basename(_strip_gz(path))
    with _open_binary(path, "r") as fh:
        scanned = _scan_dinero(fh.read())
    if scanned is None:
        return _read_dinero_lines(path, address_bits, name)
    addresses, kinds = scanned
    return Trace(addresses, address_bits=address_bits, kinds=kinds, name=name)


def _read_dinero_lines(
    path: PathLike, address_bits: Optional[int], name: str
) -> Trace:
    """The general dinero reader: one line at a time."""
    addresses: List[int] = []
    labels = bytearray()
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: malformed dinero line: {line!r}")
            labels.append(AccessKind.from_din(int(parts[0])).value)
            addresses.append(int(parts[1], 16))
    return Trace(addresses, address_bits=address_bits, kinds=labels, name=name)


#: Longest address the bulk scan decodes: 15 hex digits stay below 2**63.
_SCAN_HEX_DIGITS = 15


@functools.lru_cache(maxsize=None)
def _hex_values():
    """Lookup table of the bulk dinero scan: each byte's hex digit value
    (-1 for a non-digit)."""
    import numpy as np

    values = np.full(256, -1, dtype=np.int8)
    for byte in b"0123456789abcdefABCDEF":
        values[byte] = int(chr(byte), 16)
    return values


def _scan_dinero(data: bytes):
    """Decode canonical dinero lines in bulk; ``None`` when not canonical.

    Every line must be a label byte ``0``-``2``, one space and 1-15 hex
    digits, ended by ``\\n`` (the last line may omit it).  Returns the
    ``array('q')`` addresses and the packed dinero labels (``bytes``).
    """
    try:
        import numpy as np
    except ImportError:
        return None
    hex_values = _hex_values()
    buf = np.frombuffer(data, dtype=np.uint8)
    # Line ends (a missing last newline counts as one past the end).
    # Positions fit int32 below 2 GiB, halving the index arrays.
    index_type = np.int32 if len(buf) < 2**31 - 1 else np.int64
    ends = np.flatnonzero(buf == ord("\n")).astype(index_type)
    if len(buf) and buf[-1] != ord("\n"):
        ends = np.append(ends, index_type(len(buf)))
    if not len(ends):
        return array("q"), b""
    digits = np.diff(ends, prepend=index_type(-1))
    digits -= 3  # the label, the space and the newline
    widest = int(digits.max())
    if digits.min() < 1 or widest > _SCAN_HEX_DIGITS:
        return None
    # Besides the newlines, the only non-hex byte of a canonical line is
    # the space after its label.
    values = hex_values[buf]
    spaces_and_newlines = len(buf) - int(digits.sum(dtype=np.int64)) - len(ends)
    at = ends - digits
    at -= 1
    if np.count_nonzero(values < 0) != spaces_and_newlines or not np.all(
        buf[at] == ord(" ")
    ):
        return None
    at -= 1
    labels = values[at]
    if labels.max() > 2:
        return None
    addresses = np.zeros(len(ends), dtype=np.int64)
    # Index arrays are dropped as soon as they are spent, so the scan's
    # peak memory stays at the line loop's.
    np.subtract(ends, widest, out=at)
    del ends
    for offset in range(widest, 0, -1):
        # A line with fewer than ``offset`` digits stays 0 until its
        # first digit comes up.
        addresses *= 16
        addresses += np.where(digits >= offset, values[at], 0)
        at += 1
    del at, digits, values
    packed = array("q")
    packed.frombytes(addresses.view(np.uint8))
    del addresses
    # A label byte's hex value is the label itself.
    return packed, labels.tobytes()


# -- csv format ------------------------------------------------------------------


def write_csv_trace(trace: Trace, path: PathLike) -> None:
    """Write ``kind,address`` rows with a header."""
    with _open_text(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "address"])
        for i, addr in enumerate(trace):
            writer.writerow([_KIND_NAMES[trace.kind(i)], f"{addr:#x}"])


def read_csv_trace(path: PathLike, address_bits: Optional[int] = None) -> Trace:
    """Read a ``kind,address`` CSV trace."""
    addresses: List[int] = []
    labels = bytearray()
    with _open_text(path, "r") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            kind_name = row["kind"].strip().lower()
            if kind_name not in _KIND_BY_NAME:
                raise ValueError(f"unknown access kind in CSV: {row['kind']!r}")
            labels.append(_KIND_BY_NAME[kind_name].value)
            addresses.append(int(row["address"], 0))
    return Trace(
        addresses,
        address_bits=address_bits,
        kinds=labels,
        name=os.path.basename(_strip_gz(path)),
    )


# -- binary format -----------------------------------------------------------------

_BINARY_MAGIC = b"RBT1"


def _open_binary(path: PathLike, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


def write_binary_trace(trace: Trace, path: PathLike) -> None:
    """Write the compact ``.rbt`` binary format."""
    from array import array as _array
    import struct

    with _open_binary(path, "w") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(
            struct.pack(
                "<BQB",
                trace.address_bits,
                len(trace),
                1 if trace.has_kinds else 0,
            )
        )
        addresses = _array("q", trace.addresses)
        if addresses.itemsize != 8:  # pragma: no cover - platform guard
            raise RuntimeError("platform lacks 8-byte array('q') items")
        fh.write(addresses.tobytes())
        if trace.has_kinds:
            fh.write(trace.kind_labels)


def read_binary_trace(path: PathLike, address_bits: Optional[int] = None) -> Trace:
    """Read the compact ``.rbt`` binary format."""
    from array import array as _array
    import struct

    with _open_binary(path, "r") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a repro binary trace (bad magic)")
        bits, count, has_kinds = struct.unpack("<BQB", fh.read(10))
        addresses = _array("q")
        addresses.frombytes(fh.read(8 * count))
        if len(addresses) != count:
            raise ValueError(f"{path}: truncated address block")
        kinds = None
        if has_kinds:
            kinds = fh.read(count)
            if len(kinds) != count:
                raise ValueError(f"{path}: truncated kind block")
    return Trace(
        addresses,
        address_bits=address_bits if address_bits is not None else bits,
        kinds=kinds,
        name=os.path.basename(_strip_gz(path)),
    )


# -- chunked / out-of-core reading -------------------------------------------------

#: Default references per chunk for :func:`iter_trace_chunks`.
DEFAULT_CHUNK_REFS = 65536


def _iter_text_addresses(path: PathLike) -> Iterator[int]:
    with _open_text(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield int(line, 16)


def _iter_dinero_addresses(path: PathLike) -> Iterator[int]:
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: malformed dinero line: {line!r}")
            yield int(parts[1], 16)


def _iter_csv_addresses(path: PathLike) -> Iterator[int]:
    with _open_text(path, "r") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            kind_name = row["kind"].strip().lower()
            if kind_name not in _KIND_BY_NAME:
                raise ValueError(f"unknown access kind in CSV: {row['kind']!r}")
            yield int(row["address"], 0)


_CHUNK_ITERATORS: Dict[str, Callable[[PathLike], Iterator[int]]] = {
    ".trace": _iter_text_addresses,
    ".txt": _iter_text_addresses,
    ".din": _iter_dinero_addresses,
    ".csv": _iter_csv_addresses,
}


def _iter_binary_chunks(path: PathLike, chunk_refs: int) -> Iterator[array]:
    """Blocked reads of the ``.rbt`` address block — no line parsing."""
    with _open_binary(path, "r") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a repro binary trace (bad magic)")
        _bits, count, _has_kinds = struct.unpack("<BQB", fh.read(10))
        remaining = count
        while remaining:
            take = min(remaining, chunk_refs)
            raw = fh.read(8 * take)
            chunk = array("q")
            chunk.frombytes(raw)
            if len(chunk) != take:
                raise ValueError(f"{path}: truncated address block")
            remaining -= take
            yield chunk


def iter_trace_chunks(
    path: PathLike, chunk_refs: int = DEFAULT_CHUNK_REFS
) -> Iterator[array]:
    """Stream a trace file as bounded ``array('q')`` address chunks.

    The out-of-core companion to :func:`read_trace`: dispatches on the
    same suffixes (``.gz`` included) but never materializes the whole
    trace — at most ``chunk_refs`` addresses are live at once, so
    10⁶–10⁸-reference files feed a
    :class:`repro.stream.TraceSession` in O(chunk) memory.  Access
    kinds are not surfaced; the analytical pipeline only consumes
    addresses.
    """
    if chunk_refs < 1:
        raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
    suffix = _suffix(path)
    if suffix == ".rbt":
        yield from _iter_binary_chunks(path, chunk_refs)
        return
    iterator = _CHUNK_ITERATORS.get(suffix)
    if iterator is None:
        raise ValueError(
            f"unknown trace format {suffix!r}; expected one of "
            f"{sorted((*_CHUNK_ITERATORS, '.rbt'))}"
        )
    chunk = array("q")
    for address in iterator(path):
        chunk.append(address)
        if len(chunk) >= chunk_refs:
            yield chunk
            chunk = array("q")
    if len(chunk):
        yield chunk


def probe_address_bits(path: PathLike) -> Optional[int]:
    """The address width a trace file declares, without reading its body.

    ``.rbt`` carries the width in its header and text traces may carry
    an ``# address_bits=`` comment; dinero and CSV files declare
    nothing, so the caller must supply a width (``None`` is returned).
    """
    suffix = _suffix(path)
    if suffix == ".rbt":
        with _open_binary(path, "r") as fh:
            magic = fh.read(4)
            if magic != _BINARY_MAGIC:
                raise ValueError(f"{path}: not a repro binary trace (bad magic)")
            bits, _count, _has_kinds = struct.unpack("<BQB", fh.read(10))
            return bits
    if suffix in (".trace", ".txt"):
        with _open_text(path, "r") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if not line.startswith("#"):
                    break
                body = line.lstrip("#").strip()
                if body.startswith("address_bits="):
                    return int(body.split("=", 1)[1])
        return None
    if suffix in (".din", ".csv"):
        return None
    raise ValueError(
        f"unknown trace format {suffix!r}; expected one of {sorted(_READERS)}"
    )


# -- dispatch ---------------------------------------------------------------------

_READERS: Dict[str, Callable[..., Trace]] = {
    ".trace": read_text_trace,
    ".txt": read_text_trace,
    ".din": read_dinero_trace,
    ".csv": read_csv_trace,
    ".rbt": read_binary_trace,
}
_WRITERS: Dict[str, Callable[[Trace, PathLike], None]] = {
    ".trace": write_text_trace,
    ".txt": write_text_trace,
    ".din": write_dinero_trace,
    ".csv": write_csv_trace,
    ".rbt": write_binary_trace,
}


def _suffix(path: PathLike) -> str:
    return os.path.splitext(_strip_gz(path))[1].lower()


def read_trace(path: PathLike, address_bits: Optional[int] = None) -> Trace:
    """Read a trace, dispatching on the file suffix."""
    suffix = _suffix(path)
    reader = _READERS.get(suffix)
    if reader is None:
        raise ValueError(
            f"unknown trace format {suffix!r}; expected one of {sorted(_READERS)}"
        )
    return reader(path, address_bits=address_bits)


def write_trace(trace: Trace, path: PathLike) -> None:
    """Write a trace, dispatching on the file suffix."""
    suffix = _suffix(path)
    writer = _WRITERS.get(suffix)
    if writer is None:
        raise ValueError(
            f"unknown trace format {suffix!r}; expected one of {sorted(_WRITERS)}"
        )
    writer(trace, path)
