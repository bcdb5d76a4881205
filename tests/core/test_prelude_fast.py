"""Unit tests for the fast prelude kernels (``repro.core.prelude_fast``).

The fast builders are exact replacements: every test here pins them to
the paper-faithful python builders — same stripped trace, same zero/one
sets, same MRCT sets in the same occurrence order, bit-identical
histograms through the fused packed postlude.
"""

import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.prelude_fast as prelude_fast
import repro.core.vectorized as vectorized
import repro.core.zerosets as zerosets_module
import repro.trace.strip as strip_module
from repro.core import engines
from repro.core.mrct import build_mrct
from repro.core.postlude import compute_level_histograms
from repro.core.prelude_fast import FENWICK_MIN_UNIQUE, build_mrct_fenwick
from repro.core.vectorized import numpy_available
from repro.core.zerosets import build_zero_one_sets
from repro.obs import Recorder
from repro.trace.strip import strip_trace
from repro.trace.synthetic import (
    loop_nest_trace,
    markov_trace,
    random_trace,
    zipf_trace,
)
from repro.trace.trace import Trace

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="needs NumPy")


def edge_traces():
    """Small traces covering the builders' corner cases."""
    return [
        Trace([5], name="single"),
        Trace([7, 7, 7, 7], name="all-same"),
        Trace(list(range(40)), name="all-unique"),
        Trace([1, 2, 3, 1, 2, 3, 4, 1], name="paper-ish"),
        loop_nest_trace(16, 6),
        zipf_trace(600, 90, seed=2),
        markov_trace(500, 64, locality=0.8, seed=5),
        random_trace(300, 50, seed=9),
    ]


PANEL = edge_traces()


class TestFenwickBuilder:
    """The pure-python O(N log N') builder (no NumPy required)."""

    @pytest.mark.parametrize("trace", PANEL, ids=lambda t: t.name)
    def test_matches_reference_builder(self, trace):
        stripped = strip_trace(trace)
        assert build_mrct_fenwick(stripped) == build_mrct(stripped)

    def test_empty_trace(self):
        stripped = strip_trace(Trace([], name="empty"))
        assert build_mrct_fenwick(stripped) == build_mrct(stripped)


class TestNumpyBuilders:
    @needs_numpy
    @pytest.mark.parametrize("trace", PANEL, ids=lambda t: t.name)
    def test_fast_mrct_matches_reference(self, trace):
        from repro.core.prelude_fast import build_mrct_fast

        stripped = strip_trace(trace)
        assert build_mrct_fast(stripped) == build_mrct(stripped)

    @needs_numpy
    @pytest.mark.parametrize("trace", PANEL, ids=lambda t: t.name)
    def test_numpy_strip_matches_reference(self, trace):
        from repro.trace.strip import strip_trace_numpy

        python = strip_trace(trace)
        fast = strip_trace_numpy(trace)
        assert fast.unique_addresses == python.unique_addresses
        assert list(fast.id_sequence) == list(python.id_sequence)
        assert fast.address_bits == python.address_bits
        assert fast.id_of == python.id_of

    @needs_numpy
    @pytest.mark.parametrize("trace", PANEL, ids=lambda t: t.name)
    def test_numpy_zerosets_match_reference(self, trace):
        from repro.core.zerosets import build_zero_one_sets_numpy

        stripped = strip_trace(trace)
        assert build_zero_one_sets_numpy(stripped) == build_zero_one_sets(
            stripped
        )

    @needs_numpy
    @pytest.mark.parametrize("trace", PANEL, ids=lambda t: t.name)
    def test_packed_mrct_weight_preserving(self, trace):
        """The packed matrix is the MRCT as a weighted multiset of rows."""
        from repro.core.prelude_fast import build_packed_mrct

        stripped = strip_trace(trace)
        packed = build_packed_mrct(stripped)
        mrct = build_mrct(stripped)
        assert weighted_rows(packed) == occurrence_rows(mrct)
        expanded = packed.to_mrct()  # multiset-equal, order not preserved
        assert expanded.n_unique == mrct.n_unique
        assert [sorted(sets) for sets in expanded.sets] == [
            sorted(sets) for sets in mrct.sets
        ]

    @needs_numpy
    def test_packed_mrct_deterministic(self):
        from repro.core.prelude_fast import build_packed_mrct

        stripped = strip_trace(zipf_trace(800, 100, seed=4))
        assert build_packed_mrct(stripped) == build_packed_mrct(stripped)

    @needs_numpy
    def test_budget_fallback_paths_agree(self, monkeypatch):
        """The row budget only sets chunk sizes: any budget is exact."""
        import repro.core.prelude_fast as pf

        trace = zipf_trace(1200, 150, seed=6)
        stripped = strip_trace(trace)
        reference = build_mrct(stripped)
        assert pf.build_mrct_fast(stripped) == reference
        for budget in (0, 256, 1 << 30):  # one row, a few rows, whole table
            monkeypatch.setattr(pf, "_CHUNK_BYTES", budget)
            assert pf.build_mrct_fast(stripped) == reference

    @needs_numpy
    def test_scatter_tail_chunking_is_exact(self, monkeypatch):
        """Tiny chunks force many doubling and gather batches; the rows
        and their order are unchanged."""
        import repro.core.prelude_fast as pf

        trace = zipf_trace(1500, 200, seed=7)
        stripped = strip_trace(trace)
        ids = pf._ids_array(stripped)
        rows, noncold = pf._conflict_rows(ids, stripped.n_unique)
        monkeypatch.setattr(pf, "_CHUNK_BYTES", 64)  # a few rows per chunk
        small_rows, small_noncold = pf._conflict_rows(ids, stripped.n_unique)
        assert (small_noncold == noncold).all()
        assert (small_rows == rows).all()
        assert pf.build_mrct_fast(stripped) == build_mrct(stripped)


@st.composite
def kernel_traces(draw):
    """Address lists aimed at the doubling kernel's edges.

    Draws N' from the word boundaries (63, 64, 65), the exact dedup key's
    edge (57, 58, 59) or anywhere up to two words, optionally opens with
    every reference once (so N' is exact),
    then mixes a random body with planted windows of length exactly
    ``2^k`` or ``2^k - 1`` (``k = 0`` plants an empty window).
    """
    n_unique = draw(
        st.sampled_from([1, 2, 57, 58, 59, 63, 64, 65]) | st.integers(1, 130)
    )
    addresses = list(range(n_unique)) if draw(st.booleans()) else []
    addresses += draw(st.lists(st.integers(0, n_unique - 1), max_size=200))
    for _ in range(draw(st.integers(0, 4))):
        ident = draw(st.integers(0, n_unique - 1))
        length = (1 << draw(st.integers(0, 7))) - draw(st.integers(0, 1))
        fill = []
        if n_unique > 1:  # else no other reference can fill a window
            others = st.integers(0, n_unique - 2).map(lambda x: x + (x >= ident))
            fill = draw(st.lists(others, min_size=length, max_size=length))
        addresses += [ident, *fill, ident]
    return addresses


def _phases(recorder):
    """Every phase record in a recorder's tree, depth-first."""
    stack = list(recorder.phases)
    while stack:
        record = stack.pop()
        yield record
        stack.extend(record.children)


def pair_counts(matrix, idents, weights, column_ids=None):
    """Packed rows as ``{(identifier, conflict set): weight}``.

    With ``column_ids`` every column (the row's own and each conflict
    bit) maps back to its stripped identifier."""
    ids = None if column_ids is None else column_ids.tolist()
    rows = {}
    for row in range(matrix.shape[0]):
        conflicts = int.from_bytes(matrix[row].tobytes(), "little")
        ident = int(idents[row])
        if ids is not None:
            ident = ids[ident]
            conflicts = sum(
                1 << ids[column]
                for column in range(conflicts.bit_length())
                if conflicts >> column & 1
            )
        rows[(ident, conflicts)] = rows.get((ident, conflicts), 0) + int(weights[row])
    return rows


def weighted_rows(packed):
    """A packed MRCT's rows as ``{(identifier, conflict set): weight}``,
    in stripped identifiers."""
    return pair_counts(packed.matrix, packed.idents, packed.weights, packed.column_ids)


def pack_reference(stripped):
    """The ``python`` prelude's packing of ``stripped``."""
    return prelude_fast.pack_mrct(
        build_mrct(stripped), stripped.unique_addresses, stripped.address_bits
    )


def occurrence_rows(mrct):
    """A bigint MRCT's occurrences as ``{(identifier, conflict set): count}``."""
    rows = {}
    for ident, sets in enumerate(mrct.sets):
        for conflicts in sets:
            rows[(ident, conflicts)] = rows.get((ident, conflicts), 0) + 1
    return rows


@needs_numpy
class TestDoublingKernel:
    """``_conflict_rows`` against the classic builder, at its edges."""

    @settings(max_examples=150, deadline=None)
    @given(addresses=kernel_traces(), one_row_chunks=st.booleans())
    @example(addresses=[5], one_row_chunks=False)  # single reference
    @example(addresses=list(range(65)), one_row_chunks=False)  # all cold
    @example(addresses=[0, *range(1, 65), 0], one_row_chunks=True)  # L = 2^6
    @example(addresses=[0, *range(1, 64), 0, 64], one_row_chunks=True)
    def test_matches_classic_builder(self, addresses, one_row_chunks):
        from repro.core.prelude_fast import build_mrct_fast, build_packed_mrct

        stripped = strip_trace(Trace(addresses, name="kernel"))
        reference = build_mrct(stripped)
        # A 1-byte budget makes every doubling and gather chunk one row.
        budget = 1 if one_row_chunks else prelude_fast._CHUNK_BYTES
        with mock.patch.object(prelude_fast, "_CHUNK_BYTES", budget):
            assert build_mrct_fast(stripped) == reference
            packed = build_packed_mrct(stripped)
        assert weighted_rows(packed) == occurrence_rows(reference)


@needs_numpy
class TestDedupVerification:
    """``_dedup_rows`` checks each hash group exactly, block by block."""

    @staticmethod
    def _packed_bytes(packed):
        return (packed.matrix.tobytes(), packed.idents.tobytes(),
                packed.weights.tobytes())

    def test_hash_collisions_fall_back_to_exact_dedup(self, monkeypatch):
        stripped = strip_trace(zipf_trace(1500, 200, seed=7))
        reference = occurrence_rows(build_mrct(stripped))
        # Two hash values for every row: nearly every group collides.
        monkeypatch.setattr(
            prelude_fast, "_row_hashes",
            lambda rows, idents: (idents % 2).astype("uint64"),
        )
        assert weighted_rows(prelude_fast.build_packed_mrct(stripped)) == reference

    @pytest.mark.parametrize("chunk_bytes", [1, 8, 64])
    def test_groups_spanning_blocks_are_exact(self, monkeypatch, chunk_bytes):
        """Blocks of one row upward split every hash group; the packed
        bytes are those of one whole-matrix block."""
        stripped = strip_trace(zipf_trace(1500, 60, seed=3))
        whole = prelude_fast.build_packed_mrct(stripped)
        assert whole.n_rows < len(stripped.id_sequence)  # dedup ran
        monkeypatch.setattr(prelude_fast, "_CHUNK_BYTES", chunk_bytes)
        split = prelude_fast.build_packed_mrct(stripped)
        assert self._packed_bytes(split) == self._packed_bytes(whole)

    def test_mismatch_in_last_block_is_caught(self, monkeypatch):
        """One group whose only differing member sits in the last block.

        Two-word rows (N' = 65), so the hash path and its check run."""
        import numpy as np

        rows = np.zeros((10, 2), dtype=np.uint64)
        rows[-1, 1] = 1
        idents = np.zeros(10, dtype=np.int64)
        monkeypatch.setattr(prelude_fast, "_CHUNK_BYTES", 16)  # one row
        monkeypatch.setattr(
            prelude_fast, "_row_hashes",
            lambda rows, idents: np.zeros(rows.shape[0], dtype=np.uint64),
        )
        matrix, idents, weights = prelude_fast._dedup_rows(rows, idents, 65)
        assert pair_counts(matrix, idents, weights) == {(0, 0): 9, (0, 1 << 64): 1}


def top_bit_trace(n_unique):
    """A trace over ``n_unique`` addresses whose conflict rows repeat and
    hold the top identifier ``n_unique - 1`` (bit 57 at N' = 58)."""
    rounds = [list(range(n_unique)) for _ in range(4)]
    rounds.append(random_trace(400, n_unique, seed=n_unique).addresses)
    return Trace([a for part in rounds for a in part], name=f"top-{n_unique}")


@pytest.fixture
def hash_calls(monkeypatch):
    """Row counts of every ``_row_hashes`` call."""
    calls = []
    original = prelude_fast._row_hashes

    def spy(rows, idents):
        calls.append(rows.shape[0])
        return original(rows, idents)

    monkeypatch.setattr(prelude_fast, "_row_hashes", spy)
    return calls


@needs_numpy
class TestDedupKeys:
    """One-word rows of N' <= 58 dedup on the exact key ``row << 6 |
    identifier``; wider rows on a verified hash."""

    @pytest.mark.parametrize("n_unique", [57, 58, 59])
    def test_key_width_edge(self, hash_calls, n_unique):
        stripped = strip_trace(top_bit_trace(n_unique))
        assert stripped.n_unique == n_unique
        reference = occurrence_rows(build_mrct(stripped))
        top = 1 << (n_unique - 1)
        assert any(conflicts & top for _, conflicts in reference)
        for packed in (
            prelude_fast.build_packed_mrct(stripped),
            pack_reference(stripped),
        ):
            assert weighted_rows(packed) == reference
            assert packed.n_rows < packed.total_conflict_sets  # dedup ran
        assert bool(hash_calls) == (n_unique > 58)

    @pytest.mark.parametrize(
        "trace",
        [t for t in PANEL if len(set(t.addresses)) <= 58],
        ids=lambda t: t.name,
    )
    def test_one_word_path_never_hashes(self, hash_calls, trace):
        stripped = strip_trace(trace)
        packed = prelude_fast.build_packed_mrct(stripped)
        assert weighted_rows(packed) == occurrence_rows(build_mrct(stripped))
        assert hash_calls == []

    def test_scarce_duplicates_keep_trace_order(self):
        """Under 1/8 duplicates both paths ship the rows with unit weights."""
        import numpy as np

        for n_unique, nwords in ((40, 1), (100, 2)):
            rows = np.arange(1, 17, dtype=np.uint64).reshape(16, 1)
            rows = np.repeat(rows, nwords, axis=1)
            idents = np.zeros(16, dtype=np.int64)
            matrix, _, weights = prelude_fast._dedup_rows(rows, idents, n_unique)
            assert matrix is rows
            assert weights.tolist() == [1] * 16


def reversed_low_bits(address, bits):
    """``address``'s low ``bits`` bits in reverse order, as an integer."""
    return int(format(address & ((1 << bits) - 1), f"0{bits}b")[::-1], 2)


@needs_numpy
class TestWalkOrder:
    """Both preludes number the columns in bit-reversed address order."""

    @settings(max_examples=100, deadline=None)
    @given(addresses=kernel_traces(), shift=st.integers(0, 55))
    @example(addresses=list(range(65)) * 2, shift=0)  # hi on a word boundary
    @example(addresses=[(1 << 62) | 9, 9, (1 << 62) | 9, 9], shift=0)
    def test_pack_mrct_equals_build_packed_mrct(self, addresses, shift):
        """Same columns, keys and weighted rows from both preludes —
        byte-equal whenever the rows dedup — and ``to_mrct`` gives back
        the bigint MRCT in stripped identifiers.  ``shift`` spreads the
        addresses over up to 63 bits."""
        trace = Trace([a << shift | a for a in addresses], name="walk-order")
        stripped = strip_trace(trace)
        width = stripped.address_bits
        fast = prelude_fast.build_packed_mrct(stripped)
        python = pack_reference(stripped)
        ids = fast.column_ids.tolist()
        assert sorted(ids) == list(range(stripped.n_unique))
        assert fast.keys.tolist() == [
            reversed_low_bits(stripped.unique_addresses[i], width) for i in ids
        ]
        assert fast.keys.tolist() == sorted(fast.keys.tolist())
        assert fast.address_bits == python.address_bits == width
        assert (python.column_ids == fast.column_ids).all()
        assert (python.keys == fast.keys).all()
        reference = build_mrct(stripped)
        assert weighted_rows(python) == weighted_rows(fast) == occurrence_rows(
            reference
        )
        if fast.n_rows < fast.total_conflict_sets:  # dedup ran
            assert python == fast
        for packed in (fast, python):
            expanded = packed.to_mrct()
            assert expanded.n_unique == reference.n_unique
            assert [sorted(sets) for sets in expanded.sets] == [
                sorted(sets) for sets in reference.sets
            ]

    def test_nodes_are_column_ranges(self):
        """At every level the references sharing their low address bits
        hold one contiguous run of columns."""
        stripped = strip_trace(zipf_trace(900, 150, seed=3))
        packed = prelude_fast.build_packed_mrct(stripped)
        addresses = [stripped.unique_addresses[i] for i in packed.column_ids]
        for level in range(stripped.address_bits + 1):
            sets = [address & ((1 << level) - 1) for address in addresses]
            runs = [row for i, row in enumerate(sets) if i == 0 or sets[i - 1] != row]
            assert len(runs) == len(set(sets))


@needs_numpy
class TestDedupSkip:
    """Wide rows skip the hash when a projection of the pairs already
    shows too few duplicates; the packed tables do not change."""

    TRACES = [
        random_trace(2000, 500, seed=1),  # projection skips the hash
        zipf_trace(1500, 200, seed=7),  # hashed, then unit weights
        markov_trace(3000, 300, locality=0.8, seed=2),  # deduplicated
        top_bit_trace(59),
    ]

    @pytest.mark.parametrize("trace", TRACES, ids=lambda t: t.name)
    def test_packed_bytes_unchanged(self, monkeypatch, trace):
        stripped = strip_trace(trace)
        skipped = prelude_fast.build_packed_mrct(stripped)
        monkeypatch.setattr(prelude_fast, "_projection_count", lambda rows, idents: 0)
        hashed = prelude_fast.build_packed_mrct(stripped)
        assert skipped == hashed
        assert weighted_rows(skipped) == occurrence_rows(build_mrct(stripped))

    def test_unrepeated_rows_never_hash(self, hash_calls):
        stripped = strip_trace(self.TRACES[0])
        assert stripped.n_unique > 58
        packed = prelude_fast.build_packed_mrct(stripped)
        assert packed.weights.tolist() == [1] * packed.n_rows
        assert hash_calls == []

    def test_projection_bounds_distinct_pairs(self):
        """Equal pairs project equal: the count never exceeds the
        distinct pairs, even when the packing's fields overlap."""
        import numpy as np

        rows = np.array([[1, 0], [1, 0], [1 << 40, 0], [3, 7]], dtype=np.uint64)
        idents = np.array([0, 0, 1 << 20, 5], dtype=np.int64)
        assert prelude_fast._projection_count(rows, idents) <= 3


#: Every prelude builder a dispatcher may pick: (module, attribute).
#: ``strip_trace`` and ``build_mrct`` are called through two modules
#: each, so both bindings are spied under one name.
BUILDERS = (
    (strip_module, "strip_trace"),
    (engines, "strip_trace"),
    (strip_module, "strip_trace_numpy"),
    (engines, "build_zero_one_sets"),
    (zerosets_module, "build_zero_one_sets_numpy"),
    (prelude_fast, "build_mrct"),
    (engines, "build_mrct"),
    (prelude_fast, "build_mrct_fast"),
    (prelude_fast, "build_mrct_fenwick"),
)

#: Trace lengths spanning every old size gate (the smallest traces too).
SIZES = (0, 1, 16, 2048)


@pytest.fixture
def builder_calls(monkeypatch):
    """Names of the prelude builders called, in call order."""
    calls = []
    for module, name in BUILDERS:
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def without_numpy(monkeypatch):
    """Simulate a NumPy-less interpreter for the prelude dispatchers."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(prelude_fast, "_np", None)
    monkeypatch.setattr(vectorized, "_np", None)


def sized_trace(n):
    return random_trace(n, 64, seed=n)


def run_prelude(trace, prelude):
    inputs = engines.EngineInputs(trace, prelude=prelude)
    return inputs.stripped, inputs.zerosets, inputs.mrct


class TestAutoDispatch:
    """One builder per stage and platform: with NumPy the NumPy kernels
    at every size, without it the Fenwick/classic MRCT split."""

    @needs_numpy
    @pytest.mark.parametrize("n", SIZES)
    def test_numpy_builders_at_every_size(self, builder_calls, n):
        trace = sized_trace(n)
        stripped = strip_module.strip_trace_auto(trace)
        assert builder_calls == ["strip_trace_numpy"]
        reference = strip_trace(trace)
        assert stripped.unique_addresses == reference.unique_addresses
        assert list(stripped.id_sequence) == list(reference.id_sequence)
        del builder_calls[:]
        assert prelude_fast.build_mrct_auto(stripped) == build_mrct(reference)
        assert builder_calls == ["build_mrct_fast"]

    @needs_numpy
    @pytest.mark.parametrize("n", SIZES)
    def test_engine_inputs_take_numpy_builders(self, builder_calls, n):
        trace = sized_trace(n)
        stripped, zerosets, mrct = run_prelude(trace, "auto")
        assert builder_calls == [
            "strip_trace_numpy",
            "build_zero_one_sets_numpy",
            "build_mrct_fast",
        ]
        reference = strip_trace(trace)
        assert zerosets == build_zero_one_sets(reference)
        assert mrct == build_mrct(reference)

    def split_choice(self, builder_calls, trace):
        """The MRCT builder ``build_mrct_auto`` takes for ``trace``."""
        stripped = strip_module.strip_trace_auto(trace)
        assert builder_calls == ["strip_trace_numpy", "strip_trace"]
        del builder_calls[:]
        assert prelude_fast.build_mrct_auto(stripped) == build_mrct(stripped)
        return builder_calls

    def test_short_trace_uses_reference_builder(self, without_numpy, builder_calls):
        """Without NumPy, a trace below FENWICK_MIN_UNIQUE unique
        references keeps the classic builder."""
        trace = zipf_trace(2000, 300, seed=1)
        assert strip_trace(trace).n_unique < FENWICK_MIN_UNIQUE
        assert self.split_choice(builder_calls, trace) == ["build_mrct"]

    def test_long_trace_uses_fast_builder(self, without_numpy, builder_calls):
        """Without NumPy, a long trace with many unique references takes
        the fast pure-Python (Fenwick) builder."""
        trace = zipf_trace(8192, 2000, seed=1)
        assert self.split_choice(builder_calls, trace) == ["build_mrct_fenwick"]

    def test_short_trace_many_unique_uses_fast_builder(
        self, without_numpy, builder_calls
    ):
        """Trace length does not gate the split: a short trace at exactly
        FENWICK_MIN_UNIQUE unique references takes the Fenwick builder."""
        trace = Trace(list(range(FENWICK_MIN_UNIQUE)) * 2, name="twice")
        assert self.split_choice(builder_calls, trace) == ["build_mrct_fenwick"]

    def test_long_trace_few_unique_uses_reference_builder(
        self, without_numpy, builder_calls
    ):
        trace = loop_nest_trace(FENWICK_MIN_UNIQUE - 1, 40)
        assert len(trace) >= 16 * FENWICK_MIN_UNIQUE
        assert self.split_choice(builder_calls, trace) == ["build_mrct"]

    def test_python_mode_runs_reference_builders(self, builder_calls):
        run_prelude(zipf_trace(500, 80, seed=2), "python")
        assert builder_calls == [
            "strip_trace",
            "build_zero_one_sets",
            "build_mrct",
        ]

    @pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "no-numpy"])
    def test_fast_runs_what_auto_runs(self, request, builder_calls, numpy):
        if numpy and not numpy_available():
            pytest.skip("needs NumPy")
        if not numpy:
            request.getfixturevalue("without_numpy")
        traces = [sized_trace(n) for n in SIZES]
        traces.append(zipf_trace(8192, 2000, seed=1))  # Fenwick without NumPy
        for trace in traces:
            auto = run_prelude(trace, "auto")
            auto_calls = list(builder_calls)
            del builder_calls[:]
            fast = run_prelude(trace, "fast")
            assert builder_calls == auto_calls
            del builder_calls[:]
            assert fast[1:] == auto[1:]

    def test_fenwick_gates_exist(self):
        assert FENWICK_MIN_UNIQUE > 1


class TestFusedEngine:
    @needs_numpy
    @pytest.mark.parametrize("trace", PANEL, ids=lambda t: t.name)
    def test_packed_postlude_matches_serial(self, trace):
        from repro.core.prelude_fast import build_packed_mrct
        from repro.core.vectorized import compute_level_histograms_packed

        stripped = strip_trace(trace)
        zerosets = build_zero_one_sets(stripped)
        reference = compute_level_histograms(zerosets, build_mrct(stripped))
        packed = build_packed_mrct(stripped)
        assert compute_level_histograms_packed(packed) == reference

    @needs_numpy
    @pytest.mark.parametrize("max_level", [0, 2, 5])
    def test_packed_postlude_respects_max_level(self, max_level):
        from repro.core.prelude_fast import build_packed_mrct
        from repro.core.vectorized import compute_level_histograms_packed

        stripped = strip_trace(zipf_trace(500, 80, seed=3))
        zerosets = build_zero_one_sets(stripped)
        reference = compute_level_histograms(
            zerosets, build_mrct(stripped), max_level=max_level
        )
        packed = build_packed_mrct(stripped)
        assert (
            compute_level_histograms_packed(packed, max_level=max_level)
            == reference
        )

    @needs_numpy
    def test_packed_rejects_mismatched_universe(self):
        """An MRCT packed under another trace's addresses is refused."""
        from repro.core.vectorized import compute_level_histograms_vectorized

        a = strip_trace(zipf_trace(200, 40, seed=1))
        b = strip_trace(zipf_trace(200, 70, seed=2))
        assert a.n_unique != b.n_unique
        with pytest.raises(ValueError, match="unique references"):
            compute_level_histograms_vectorized(
                build_zero_one_sets(b), build_mrct(a)
            )

    @needs_numpy
    def test_fused_path_skips_bigint_mrct(self):
        """The vectorized engine runs packed end-to-end on a cold trace."""
        recorder = Recorder()
        inputs = engines.EngineInputs(
            zipf_trace(400, 60, seed=7), recorder=recorder
        )
        engines.compute_histograms("vectorized", inputs)
        assert recorder.find("prelude:packed-mrct") is not None
        assert recorder.find("prelude:conflict-rows") is not None
        assert recorder.find("prelude:mrct") is None

    @needs_numpy
    def test_python_prelude_mode_stays_bigint(self):
        """Under ``python`` the walk's rows come from the bigint MRCT."""
        recorder = Recorder()
        inputs = engines.EngineInputs(
            zipf_trace(400, 60, seed=7), recorder=recorder, prelude="python"
        )
        engines.compute_histograms("vectorized", inputs)
        assert recorder.find("prelude:mrct") is not None
        assert recorder.find("prelude:packed-mrct") is not None
        assert recorder.find("prelude:conflict-rows") is None

    @needs_numpy
    def test_prebuilt_mrct_short_circuits_fusion(self):
        """Under ``python`` a bigint MRCT built first is packed, not rebuilt."""
        recorder = Recorder()
        inputs = engines.EngineInputs(
            zipf_trace(400, 60, seed=7), recorder=recorder, prelude="python"
        )
        reference = engines.compute_histograms("serial", inputs)
        assert engines.compute_histograms("vectorized", inputs) == reference
        assert sum(p.name == "prelude:mrct" for p in _phases(recorder)) == 1
        assert recorder.find("prelude:conflict-rows") is None

    @needs_numpy
    def test_auto_walks_packed_rows_after_mrct_built(self, monkeypatch):
        """A bigint MRCT built first does not reroute ``auto``'s walk: it
        still walks ``build_packed_mrct``'s matrix."""
        recorder = Recorder()
        trace = zipf_trace(400, 60, seed=7)
        inputs = engines.EngineInputs(trace, recorder=recorder)
        inputs.mrct
        walked = []
        real_walk = vectorized.compute_level_histograms_packed

        def spy(packed, **kwargs):
            walked.append(packed)
            return real_walk(packed, **kwargs)

        monkeypatch.setattr(vectorized, "compute_level_histograms_packed", spy)
        histograms = engines.compute_histograms("vectorized", inputs)
        assert walked == [inputs.packed_mrct]
        packed_phase = recorder.find("prelude:packed-mrct")
        assert packed_phase.find("prelude:conflict-rows") is not None
        assert walked[0] == prelude_fast.build_packed_mrct(strip_trace(trace))
        assert histograms == engines.compute_histograms(
            "serial", engines.EngineInputs(trace, prelude="python")
        )

    @needs_numpy
    @pytest.mark.parametrize("max_level", [None, 0, 2])
    @pytest.mark.parametrize(
        "trace",
        [
            Trace([], address_bits=8, name="empty"),
            Trace([5], name="single-ref"),
            Trace(list(range(40)), name="all-cold"),
            Trace([0, 1, 0, 1, 1, 0, 0], address_bits=1, name="1-bit"),
            Trace(
                [(1 << 62) | 5, 5, (1 << 62) | 5, 7, 5, (3 << 61) | 7, 7],
                address_bits=64,
                name="64-bit",
            ),
        ],
        ids=lambda t: t.name,
    )
    def test_python_prelude_packing_matches_fast(self, trace, max_level):
        """Both preludes hand the walk the same weighted multiset, and the
        ``python`` prelude's vectorized walk equals its serial one."""
        stripped = strip_trace(trace)
        packed = pack_reference(stripped)
        assert weighted_rows(packed) == weighted_rows(
            prelude_fast.build_packed_mrct(stripped)
        )
        vector, serial = (
            engines.compute_histograms(
                name,
                engines.EngineInputs(trace, prelude="python"),
                max_level=max_level,
            )
            for name in ("vectorized", "serial")
        )
        assert vector == serial

    @pytest.mark.parametrize("mode", engines.PRELUDE_MODES)
    def test_all_prelude_modes_agree(self, mode):
        trace = zipf_trace(300, 50, seed=8)
        reference = engines.compute_histograms(
            "serial", engines.EngineInputs(trace, prelude="python")
        )
        inputs = engines.EngineInputs(trace, prelude=mode)
        assert engines.compute_histograms("serial", inputs) == reference
        if numpy_available():
            inputs = engines.EngineInputs(trace, prelude=mode)
            assert (
                engines.compute_histograms("vectorized", inputs) == reference
            )

    def test_unknown_prelude_mode_rejected(self):
        with pytest.raises(ValueError, match="prelude"):
            engines.EngineInputs(loop_nest_trace(4, 2), prelude="turbo")


class TestPackedStoreWarmStart:
    """The fused path stores only its histograms; a warm run reads them."""

    @needs_numpy
    def test_warm_packed_run_matches_cold_histograms(self, tmp_path):
        from repro.store import ArtifactStore

        trace = zipf_trace(500, 80, seed=12)
        store = ArtifactStore(tmp_path / "cache")
        cold = engines.compute_histograms(
            "vectorized", engines.EngineInputs(trace, store=store)
        )
        recorder = Recorder()
        warm_inputs = engines.EngineInputs(trace, recorder=recorder, store=store)
        warm = engines.compute_histograms("vectorized", warm_inputs)
        assert warm == cold
        assert recorder.find("prelude:packed-mrct") is None
        assert recorder.find("prelude:strip") is None
