"""Property-based tests of the trace substrate."""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.io import read_trace, write_trace
from repro.trace.reference import AccessKind
from repro.trace.stats import max_misses_depth_one
from repro.trace.strip import strip_trace
from repro.trace.trace import Trace

addresses = st.lists(st.integers(0, 1023), min_size=0, max_size=100)


@given(addrs=addresses)
@settings(max_examples=150, deadline=None)
def test_strip_identifiers_are_dense_and_consistent(addrs):
    stripped = strip_trace(Trace(addrs, address_bits=10))
    assert sorted(stripped.id_of.values()) == list(range(stripped.n_unique))
    for i, addr in enumerate(addrs):
        assert stripped.unique_addresses[stripped.id_sequence[i]] == addr


@given(addrs=addresses)
@settings(max_examples=150, deadline=None)
def test_strip_preserves_order_of_first_occurrence(addrs):
    stripped = strip_trace(Trace(addrs, address_bits=10))
    seen = []
    for addr in addrs:
        if addr not in seen:
            seen.append(addr)
    assert stripped.unique_addresses == seen


@given(addrs=addresses)
@settings(max_examples=100, deadline=None)
def test_max_misses_bounds(addrs):
    trace = Trace(addrs, address_bits=10)
    max_misses = max_misses_depth_one(trace)
    assert 0 <= max_misses <= max(0, len(addrs) - trace.unique_count())


@given(
    addrs=st.lists(st.integers(0, 4095), min_size=0, max_size=60),
    suffix=st.sampled_from([".trace", ".din", ".csv", ".din.gz"]),
    kinds=st.lists(
        st.sampled_from(list(AccessKind)), min_size=0, max_size=60
    ),
)
@settings(max_examples=60, deadline=None)
def test_io_roundtrip(tmp_path_factory, addrs, suffix, kinds):
    tmp_path = tmp_path_factory.mktemp("io")
    kinds = (kinds + [AccessKind.READ] * len(addrs))[: len(addrs)]
    trace = Trace(addrs, address_bits=12, kinds=kinds)
    path = tmp_path / f"t{suffix}"
    write_trace(trace, path)
    loaded = read_trace(path, address_bits=12)
    assert list(loaded) == addrs
    if suffix != ".trace":  # text format does not carry kinds
        assert [loaded.kind(i) for i in range(len(loaded))] == kinds


@given(addrs=addresses, split=st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_concat_of_slices_is_identity(addrs, split):
    trace = Trace(addrs, address_bits=10)
    split = min(split, len(trace))
    rebuilt = trace[:split].concat(trace[split:])
    assert list(rebuilt) == addrs
    assert rebuilt.address_bits == 10


@st.composite
def _wide_traces(draw):
    """Traces of any width up to 63 bits, long enough to take the
    NumPy path, with or without access kinds."""
    bits = draw(st.integers(1, 63))
    addrs = draw(
        st.lists(st.integers(0, (1 << bits) - 1), min_size=0, max_size=300)
    )
    kinds = draw(
        st.none()
        | st.lists(
            st.sampled_from(list(AccessKind)),
            min_size=len(addrs),
            max_size=len(addrs),
        )
    )
    return Trace(addrs, address_bits=bits, kinds=kinds, name="t")


@pytest.mark.parametrize("numpy_blocked", [False, True])
@given(trace=_wide_traces(), line_log=st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_line_trace_is_the_per_element_shift(trace, line_log, numpy_blocked):
    line_words = 1 << line_log
    blocked = {"numpy": None} if numpy_blocked else {}
    with mock.patch.dict(sys.modules, blocked):
        line = trace.to_line_trace(line_words)
    assert list(line) == [addr >> line_log for addr in trace]
    assert line.address_bits == max(1, trace.address_bits - line_log)
    assert line.kinds == trace.kinds
    assert line.name == f"t/L{line_words}"
