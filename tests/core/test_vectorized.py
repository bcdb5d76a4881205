"""The vectorized (NumPy bit-matrix) engine against the serial reference.

Bit-identity on the paper's example and edge cases, both popcount code
paths, the rank walk under every block size (Hypothesis), the NumPy-less
fallback (in-process and in a real subprocess with ``import numpy``
failing, where ``auto`` resolves to ``serial``).
"""

import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import vectorized as vec
from repro.core.mrct import build_mrct
from repro.core.postlude import compute_level_histograms
from repro.core.vectorized import compute_level_histograms_vectorized
from repro.core.zerosets import build_zero_one_sets
from repro.trace.strip import strip_trace
from repro.trace.synthetic import loop_nest_trace, zipf_trace
from repro.trace.trace import Trace

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _both(trace, max_level=None):
    stripped = strip_trace(trace)
    zerosets = build_zero_one_sets(stripped)
    mrct = build_mrct(stripped)
    serial = compute_level_histograms(zerosets, mrct, max_level=max_level)
    fast = compute_level_histograms_vectorized(
        zerosets, mrct, max_level=max_level
    )
    return serial, fast


def test_paper_example_bit_identical(paper_trace):
    serial, fast = _both(paper_trace)
    assert fast == serial


@pytest.mark.parametrize(
    "trace",
    [
        Trace([]),
        Trace([7, 7, 7, 7]),
        Trace([3, 12, 3, 12, 3]),
        Trace(range(64)),
        loop_nest_trace(64, 6),
        zipf_trace(900, 70, seed=11),
    ],
    ids=["empty", "single-address", "two-addresses", "no-reuse", "loop", "zipf"],
)
def test_bit_identical_on_edge_and_small_traces(trace):
    serial, fast = _both(trace)
    assert fast == serial


@pytest.mark.parametrize("max_level", [0, 1, 3, 99])
def test_max_level_clamped_like_serial(max_level):
    serial, fast = _both(zipf_trace(500, 60, seed=2), max_level=max_level)
    assert sorted(fast) == sorted(serial)
    assert fast == serial


@pytest.mark.skipif(not vec.numpy_available(), reason="needs numpy")
def test_byte_table_popcount_path(monkeypatch):
    """Forcing the pre-2.0 LUT popcount must not change any histogram."""
    trace = zipf_trace(700, 90, seed=5)
    serial, fast = _both(trace)
    monkeypatch.setattr(vec, "_USE_BITWISE_COUNT", False)
    _, table_path = _both(trace)
    assert fast == serial
    assert table_path == serial


@st.composite
def walk_traces(draw):
    """Traces for the rank walk: 1- to 63-bit addresses; reuse, loops
    (rows of weight > 1), all-cold sequences, at most one unique address,
    and N' in {63, 64, 65}, where a node's ``hi`` can fall on a word
    boundary."""
    bits = draw(st.integers(min_value=1, max_value=63))
    kind = draw(st.sampled_from(["reuse", "loop", "cold", "single", "wide"]))
    if kind == "wide":
        bits = max(bits, 7)  # room for 65 distinct addresses
    top = (1 << bits) - 1
    if kind == "single":
        addresses = [draw(st.integers(0, top))] * draw(st.integers(0, 6))
    elif kind == "cold":
        addresses = draw(st.lists(st.integers(0, top), unique=True, max_size=40))
    elif kind == "wide":
        size = draw(st.sampled_from([63, 64, 65]))
        pool = draw(
            st.lists(st.integers(0, top), min_size=size, max_size=size, unique=True)
        )
        addresses = pool + draw(st.lists(st.sampled_from(pool), max_size=60))
        addresses = addresses * draw(st.integers(1, 2))
    else:
        pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=16))
        addresses = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
        if kind == "loop":
            addresses = addresses * draw(st.integers(2, 4))
    return Trace(addresses, address_bits=bits)


@pytest.mark.skipif(not vec.numpy_available(), reason="needs numpy")
@given(
    trace=walk_traces(),
    max_level=st.sampled_from([None, 0, 2, "above"]),
    block_bytes=st.sampled_from([1, vec._WALK_BLOCK_BYTES]),
    bitwise_count=st.booleans(),
)
@example(
    trace=Trace(
        [(1 << 62) | 9, 9, (1 << 62) | 9, 3 << 61, 9, (1 << 62) | 9] * 2,
        address_bits=64,
    ),
    max_level=None,
    block_bytes=1,
    bitwise_count=True,
)
@settings(max_examples=200, deadline=None)
def test_level_walk_matches_serial(trace, max_level, block_bytes, bitwise_count):
    """The rank walk over both packings (the fast prelude's and the
    packed bigint MRCT's) equals the serial engine.

    ``max_level="above"`` bounds the walk past the address width;
    ``block_bytes=1`` forces one row per block; ``bitwise_count=False``
    takes the byte-table popcount.
    """
    from repro.core.prelude_fast import build_packed_mrct

    if max_level == "above":
        max_level = trace.address_bits + 1
    stripped = strip_trace(trace)
    zerosets = build_zero_one_sets(stripped)
    mrct = build_mrct(stripped)
    reference = compute_level_histograms(zerosets, mrct, max_level=max_level)
    packed = build_packed_mrct(stripped)
    with mock.patch.object(vec, "_WALK_BLOCK_BYTES", block_bytes), mock.patch.object(
        vec, "_USE_BITWISE_COUNT", bitwise_count and vec._USE_BITWISE_COUNT
    ):
        assert (
            compute_level_histograms_vectorized(zerosets, mrct, max_level=max_level)
            == reference
        )
        assert (
            vec.compute_level_histograms_packed(packed, max_level=max_level)
            == reference
        )


@pytest.mark.skipif(not vec.numpy_available(), reason="needs numpy")
def test_level_walk_on_full_width_addresses():
    """64 address bits: the root's key range spans the whole uint64."""
    trace = Trace(
        [(1 << 62) | 5, 5, (1 << 62) | 5, 7, 5, (3 << 61) | 7, 7],
        address_bits=64,
    )
    serial, fast = _both(trace)
    assert fast == serial


def test_fallback_when_numpy_object_missing(monkeypatch, paper_trace):
    """With ``_np`` gone the function must delegate to the serial kernel."""
    monkeypatch.setattr(vec, "_np", None)
    assert not vec.numpy_available()
    serial, fast = _both(paper_trace)
    assert fast == serial


def test_core_works_in_numpy_less_interpreter():
    """Real subprocess where ``import numpy`` raises: core must still run.

    ``sys.modules["numpy"] = None`` makes any ``import numpy`` raise
    ImportError, which is how a NumPy-less install behaves.
    """
    script = """
import sys
sys.modules["numpy"] = None
from repro.core import (
    AnalyticalCacheExplorer,
    compute_level_histograms_vectorized,
    numpy_available,
)
from repro.trace.synthetic import loop_nest_trace

assert not numpy_available()
trace = loop_nest_trace(16, 400)
assert AnalyticalCacheExplorer(trace).resolved_engine == "serial"
explorer = AnalyticalCacheExplorer(trace, engine="vectorized")
reference = AnalyticalCacheExplorer(trace, engine="serial")
assert explorer.histograms == reference.histograms
assert explorer.explore(0).as_dict() == reference.explore(0).as_dict()
print("ok")
"""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": SRC_DIR,
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
