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

    Draws N' from the word boundaries (63, 64, 65) or anywhere up to two
    words, optionally opens with every reference once (so N' is exact),
    then mixes a random body with planted windows of length exactly
    ``2^k`` or ``2^k - 1`` (``k = 0`` plants an empty window).
    """
    n_unique = draw(st.sampled_from([1, 2, 63, 64, 65]) | st.integers(1, 130))
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


def weighted_rows(packed):
    """A packed MRCT's rows as ``{(identifier, conflict set): weight}``."""
    rows = {}
    for row in range(packed.n_rows):
        conflicts = int.from_bytes(packed.matrix[row].tobytes(), "little")
        key = (int(packed.idents[row]), conflicts)
        rows[key] = rows.get(key, 0) + int(packed.weights[row])
    return rows


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
        assert compute_level_histograms_packed(zerosets, packed) == reference

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
            compute_level_histograms_packed(
                zerosets, packed, max_level=max_level
            )
            == reference
        )

    @needs_numpy
    def test_packed_rejects_mismatched_universe(self):
        from repro.core.prelude_fast import build_packed_mrct
        from repro.core.vectorized import compute_level_histograms_packed

        a = strip_trace(zipf_trace(200, 40, seed=1))
        b = strip_trace(zipf_trace(200, 70, seed=2))
        packed = build_packed_mrct(a)
        assert a.n_unique != b.n_unique
        with pytest.raises(ValueError, match="unique references"):
            compute_level_histograms_packed(build_zero_one_sets(b), packed)

    @needs_numpy
    def test_fused_path_skips_bigint_mrct(self):
        """The vectorized engine runs packed end-to-end on a cold trace."""
        inputs = engines.EngineInputs(zipf_trace(400, 60, seed=7))
        engines.compute_histograms("vectorized", inputs)
        assert inputs.packed_mrct_if_built is not None
        assert inputs.mrct_if_built is None

    @needs_numpy
    def test_python_prelude_mode_stays_bigint(self):
        inputs = engines.EngineInputs(
            zipf_trace(400, 60, seed=7), prelude="python"
        )
        engines.compute_histograms("vectorized", inputs)
        assert inputs.packed_mrct_if_built is None
        assert inputs.mrct_if_built is not None

    @needs_numpy
    def test_prebuilt_mrct_short_circuits_fusion(self):
        """Injected bigint MRCTs are consumed as-is (benchmark contract)."""
        trace = zipf_trace(400, 60, seed=7)
        stripped = strip_trace(trace)
        inputs = engines.EngineInputs(
            trace, stripped=stripped, mrct=build_mrct(stripped)
        )
        reference = engines.compute_histograms("serial", inputs)
        assert engines.compute_histograms("vectorized", inputs) == reference
        assert inputs.packed_mrct_if_built is None

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
        warm_inputs = engines.EngineInputs(trace, store=store)
        warm = engines.compute_histograms("vectorized", warm_inputs)
        assert warm == cold
        assert warm_inputs.packed_mrct_if_built is None
        assert warm_inputs.stripped_if_built is None


class TestAutoCalibration:
    """``auto`` only ever picks from AUTO_CANDIDATES (BENCH-calibrated)."""

    def test_candidates_exclude_bigint_parallel_and_streaming(self):
        assert engines.AUTO_CANDIDATES == ("serial", "vectorized")

    @pytest.mark.parametrize(
        "trace",
        [
            None,
            loop_nest_trace(8, 4),
            zipf_trace(300, 60, seed=1),
            random_trace(5000, 2000, seed=2),
        ],
        ids=["none", "tiny-loop", "small-zipf", "large-random"],
    )
    def test_choice_always_a_candidate(self, trace):
        stripped = strip_trace(trace) if trace is not None else None
        for prelude_ready in (False, True):
            choice = engines.choose_auto(
                trace, stripped=stripped, prelude_ready=prelude_ready
            )
            assert choice in engines.AUTO_CANDIDATES

    @needs_numpy
    def test_postlude_threshold_is_higher(self):
        """With the MRCT prebuilt the fused prelude can't help, so auto
        stays serial up to the BENCH-measured crossover."""
        assert engines.AUTO_MIN_REFS_POSTLUDE > engines.AUTO_MIN_REFS
        n = engines.AUTO_MIN_REFS
        trace = zipf_trace(n, 200, seed=3)
        assert engines.choose_auto(trace) == "vectorized"
        assert engines.choose_auto(trace, prelude_ready=True) == "serial"

    @needs_numpy
    def test_resolve_applies_postlude_threshold_for_prebuilt_mrct(self):
        n = engines.AUTO_MIN_REFS
        trace = zipf_trace(n, 200, seed=3)
        cold = engines.EngineInputs(trace)
        assert engines.resolve_engine("auto", cold).name == "vectorized"
        stripped = strip_trace(trace)
        warm = engines.EngineInputs(
            trace, stripped=stripped, mrct=build_mrct(stripped)
        )
        assert engines.resolve_engine("auto", warm).name == "serial"
