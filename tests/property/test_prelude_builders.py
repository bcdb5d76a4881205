"""Property-based MRCT-builder equivalence (hypothesis).

Every MRCT builder — the paper's incremental ``build_mrct``, the
quadratic ``build_mrct_naive`` oracle, the Fenwick/segment-tree
``build_mrct_fenwick`` and (with NumPy) the bit-matrix
``build_mrct_fast`` — must produce the same conflict sets in the same
occurrence order on arbitrary traces, including the degenerate shapes a
random sampler rarely hits (single reference, all-unique traces).
"""

from hypothesis import given, settings, strategies as st

from repro.core.mrct import build_mrct, build_mrct_naive
from repro.core.prelude_fast import (
    build_mrct_auto,
    build_mrct_fenwick,
    build_packed_mrct,
)
from repro.core.vectorized import numpy_available
from repro.trace.strip import strip_trace
from repro.trace.trace import Trace


@st.composite
def reuse_traces(draw, max_length=150, max_bits=9):
    """Traces with deliberate reuse: references drawn from a small pool."""
    bits = draw(st.integers(min_value=3, max_value=max_bits))
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=1,
            max_size=30,
        )
    )
    sequence = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=max_length)
    )
    return Trace(sequence, address_bits=bits)


def _all_builders():
    builders = [build_mrct, build_mrct_naive, build_mrct_fenwick, build_mrct_auto]
    if numpy_available():
        from repro.core.prelude_fast import build_mrct_fast

        builders.append(build_mrct_fast)
    return builders


def assert_builders_agree(trace):
    stripped = strip_trace(trace)
    reference = build_mrct(stripped)
    for builder in _all_builders():
        table = builder(stripped)
        # Identical sets AND identical occurrence order, per identifier.
        assert table.n_unique == reference.n_unique, builder.__name__
        assert table.sets == reference.sets, builder.__name__


@given(trace=reuse_traces())
@settings(max_examples=80, deadline=None)
def test_builders_agree_on_random_traces(trace):
    assert_builders_agree(trace)


@given(address=st.integers(min_value=0, max_value=255))
@settings(max_examples=20, deadline=None)
def test_builders_agree_on_single_reference(address):
    assert_builders_agree(Trace([address], address_bits=8))


@given(length=st.integers(min_value=1, max_value=120))
@settings(max_examples=20, deadline=None)
def test_builders_agree_on_all_unique_traces(length):
    assert_builders_agree(Trace(list(range(length))))


@given(trace=reuse_traces())
@settings(max_examples=40, deadline=None)
def test_packed_matrix_is_weighted_mrct(trace):
    """The packed bit-matrix is the MRCT as a weighted row multiset."""
    if not numpy_available():
        return
    stripped = strip_trace(trace)
    packed = build_packed_mrct(stripped)
    reference = build_mrct(stripped)
    expected = {}
    for ident, sets in enumerate(reference.sets):
        for conflicts in sets:
            expected[(ident, conflicts)] = (
                expected.get((ident, conflicts), 0) + 1
            )
    # Columns are identifiers in bit-reversed address order: map the
    # row's own column and every conflict bit back to stripped ids.
    ids = packed.column_ids.tolist()
    actual = {}
    for row in range(packed.n_rows):
        columns = int.from_bytes(packed.matrix[row].tobytes(), "little")
        conflicts = sum(
            1 << ids[column]
            for column in range(columns.bit_length())
            if columns >> column & 1
        )
        key = (ids[int(packed.idents[row])], conflicts)
        actual[key] = actual.get(key, 0) + int(packed.weights[row])
    assert actual == expected
