"""The bulk ``.din`` scan against the line-by-line reader.

:func:`repro.trace.io.read_dinero_trace` decodes files of canonical
``<0-2> <1-15 hex digits>`` lines with one NumPy pass and reads
everything else line by line.  Both must build the same trace —
addresses, kinds, width and name — and every non-canonical file must
reach the line loop, which alone reports malformed lines.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace import io as trace_io
from repro.trace.io import _read_dinero_lines, _scan_dinero, read_dinero_trace

try:
    import numpy  # noqa: F401
except ImportError:  # the fallback lane: both readers are the line loop
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="the bulk scan needs NumPy")


def _canonical_line(label: int, address: int, upper: bool, width: int) -> str:
    digits = f"{address:0{width}x}"
    return f"{label} {digits.upper() if upper else digits}"


canonical_lines = st.builds(
    _canonical_line,
    label=st.integers(0, 2),
    address=st.one_of(
        st.integers(0, 0xFF),
        st.integers(0, 2**60 - 1),
        st.sampled_from([2**60 - 1, 2**56, 2**63 - 1, 2**63, 2**64 - 1]),
    ),
    upper=st.booleans(),
    width=st.sampled_from([1, 8, 15, 16]),
)

#: Lines that are valid dinero but not canonical, or not valid at all.
other_lines = st.sampled_from(
    [
        "",
        "# a comment",
        "  ",
        "1\t2f",
        "  0 10  ",
        "3 ff",
        "0 0x10",
        "0 1_0",
        "00 7",
        "+1 7",
        "0  7",
        "2 fg",
        "0",
        "0 1 2",
        "0 ١",
    ]
)


@st.composite
def dinero_files(draw) -> bytes:
    lines = draw(
        st.lists(
            st.one_of(canonical_lines, canonical_lines, canonical_lines, other_lines),
            max_size=30,
        )
    )
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text.encode("utf-8")


def _outcome(read):
    """A comparable summary of a read: the trace, or the error raised."""
    try:
        trace = read()
    except (ValueError, OverflowError) as exc:
        return ("error", type(exc), str(exc))
    return ("trace", list(trace.addresses), trace.kinds, trace.address_bits, trace.name)


def _both_readers(path, address_bits=None):
    bulk = _outcome(lambda: read_dinero_trace(path, address_bits=address_bits))
    lines = _outcome(
        lambda: _read_dinero_lines(path, address_bits, "case.din")
    )
    return bulk, lines


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("din") / "case.din"


@given(data=dinero_files())
@settings(max_examples=300, deadline=None)
@example(data=b"")
@example(data=b"0 10\n1 2f")
@example(data=b"0 ABCDEF\n2 abcdef\n")
@example(data=b"1 " + b"f" * 15 + b"\n")
@example(data=b"1 " + b"f" * 16 + b"\n")
@example(data=b"0 " + b"0" * 16 + b"1\n")
@example(data=b"# header\n0 10\n")
@example(data=b"0 10\n\n1 20\n")
@example(data=b"0\t10\n")
@example(data=b"0 10\r\n1 20\r\n")
@example(data=b"3 10\n")
def test_bulk_scan_builds_the_line_loop_trace(case_path, data) -> None:
    case_path.write_bytes(data)
    bulk, lines = _both_readers(case_path)
    assert bulk == lines


@given(data=dinero_files(), bits=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_explicit_width_agrees(case_path, data, bits) -> None:
    case_path.write_bytes(data)
    bulk, lines = _both_readers(case_path, address_bits=bits)
    assert bulk == lines


class TestScanPath:
    """Which files the scan takes, and which it hands to the line loop."""

    @pytest.mark.parametrize(
        "data",
        [b"", b"0 1\n", b"0 1", b"2 ABCdef\n1 0\n", b"0 " + b"f" * 15 + b"\n"],
    )
    @needs_numpy
    def test_canonical_files_are_scanned(self, data) -> None:
        assert _scan_dinero(data) is not None

    @pytest.mark.parametrize(
        "data",
        [
            b"\n",
            b"# c\n0 1\n",
            b"0 1\n\n",
            b"0\t1\n",
            b"0 1\r\n",
            b"0 1\r",
            b"3 1\n",
            b"a 1\n",
            b"0 " + b"f" * 16 + b"\n",
            b"0 1 \n",
            b" 0 1\n",
            b"0 x\n",
            b"0 \n",
            b"01 1\n",
            "0 ١\n".encode("utf-8"),
        ],
    )
    def test_other_files_go_to_the_line_loop(self, data) -> None:
        assert _scan_dinero(data) is None

    def test_malformed_line_reported_by_the_line_loop(self, tmp_path) -> None:
        path = tmp_path / "bad.din"
        path.write_bytes(b"0 10\n0 1 2\n")
        with pytest.raises(ValueError, match=r"bad.din:2: malformed dinero line"):
            read_dinero_trace(path)

    def test_gzip_file_is_scanned_like_plain(self, tmp_path) -> None:
        import gzip

        data = b"0 10\n1 2F\n2 3\n"
        plain, packed = tmp_path / "t.din", tmp_path / "t.din.gz"
        plain.write_bytes(data)
        with gzip.open(packed, "wb") as fh:
            fh.write(data)
        assert _outcome(lambda: read_dinero_trace(packed)) == _outcome(
            lambda: read_dinero_trace(plain)
        )

    def test_without_numpy_the_line_loop_reads(self, tmp_path, monkeypatch) -> None:
        path = tmp_path / "t.din"
        path.write_bytes(b"0 10\n1 2f\n2 3\n")
        scanned = _outcome(lambda: read_dinero_trace(path))
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert _scan_dinero(path.read_bytes()) is None
        assert _outcome(lambda: read_dinero_trace(path)) == scanned
        assert trace_io.read_trace(path).kinds == scanned[2]
