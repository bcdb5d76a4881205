"""Cross-engine differential matrix: every engine x every panel trace.

Every registered engine (plus the ``auto`` policy and the legacy
aliases) must produce LevelHistograms bit-identical to the
serial reference — same levels, same distances, same counts — and hence
identical minimum-associativity tables, on the paper's running example,
synthetic loops, and real workload traces.
"""

import pytest

from repro.core import engines
from repro.core.explorer import AnalyticalCacheExplorer
from repro.trace.synthetic import (
    loop_nest_trace,
    markov_trace,
    random_trace,
    strided_trace,
    zipf_trace,
)
from repro.trace.trace import Trace
from tests.conftest import PAPER_TRACE_BITS

WORKLOADS = ("crc", "fir", "ucbqsort")

ALL_ENGINE_NAMES = engines.engine_names() + tuple(engines.ALIASES)


def _panel(tiny_runs):
    traces = [
        Trace.from_bit_strings(PAPER_TRACE_BITS, name="paper-table-1"),
        loop_nest_trace(48, 12),
        strided_trace(200, stride=3),
        zipf_trace(1200, 90, seed=4),
        markov_trace(900, 80, locality=0.85, seed=8),
        random_trace(700, 120, seed=6),
    ]
    traces += [tiny_runs[name].data_trace for name in WORKLOADS]
    return traces


@pytest.fixture(scope="module")
def panel(tiny_runs):
    return _panel(tiny_runs)


@pytest.fixture(scope="module")
def serial_reference(panel):
    """Reference histograms per trace, computed once by the serial engine."""
    reference = {}
    for trace in panel:
        inputs = engines.EngineInputs(trace)
        reference[trace.name] = engines.compute_histograms("serial", inputs)
    return reference


@pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
def test_histograms_bit_identical_to_serial(engine, panel, serial_reference):
    for trace in panel:
        inputs = engines.EngineInputs(trace)
        histograms = engines.compute_histograms(engine, inputs)
        expected = serial_reference[trace.name]
        assert sorted(histograms) == sorted(expected), trace.name
        for level, reference in expected.items():
            got = histograms[level]
            assert got.level == reference.level
            assert got.counts == reference.counts, (trace.name, level)


@pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
def test_min_associativity_tables_identical(engine, panel, serial_reference):
    """The exploration output — A_min per (depth, budget) — must agree."""
    for trace in panel:
        inputs = engines.EngineInputs(trace)
        histograms = engines.compute_histograms(engine, inputs)
        expected = serial_reference[trace.name]
        for level, reference in expected.items():
            for budget in (0, 2, 10):
                assert (
                    histograms[level].min_associativity(budget)
                    == reference.min_associativity(budget)
                ), (trace.name, level, budget)


@pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
def test_explorer_results_identical(engine, tiny_runs):
    """End-to-end: explorers disagree on nothing an engine can affect."""
    trace = tiny_runs["crc"].data_trace
    explorer = AnalyticalCacheExplorer(trace, engine=engine)
    reference = AnalyticalCacheExplorer(trace, engine="serial")
    assert explorer.histograms == reference.histograms
    for budget in (0, 3):
        assert (
            explorer.explore(budget).as_dict()
            == reference.explore(budget).as_dict()
        )


@pytest.mark.parametrize("engine", ALL_ENGINE_NAMES)
def test_cached_runs_identical_to_uncached(engine, tiny_runs, tmp_path):
    """The cached axis: warm-starting from the artifact store changes
    nothing an engine (or the store) can affect."""
    from repro.store import ArtifactStore

    for name in ("crc", "fir"):
        trace = tiny_runs[name].data_trace
        uncached = AnalyticalCacheExplorer(trace, engine=engine)
        cold_store = ArtifactStore(tmp_path / name)
        cold = AnalyticalCacheExplorer(trace, engine=engine, store=cold_store)
        warm_store = ArtifactStore(tmp_path / name)  # fresh memory tier
        warm = AnalyticalCacheExplorer(trace, engine=engine, store=warm_store)
        for budget in (0, 3):
            reference = uncached.explore(budget).to_json_dict()
            assert cold.explore(budget).to_json_dict() == reference, name
            assert warm.explore(budget).to_json_dict() == reference, name
        assert cold_store.stats.puts > 0, name
        assert warm_store.stats.hits > 0, name
        assert warm_store.stats.puts == 0, name


def test_registry_lists_all_expected_engines():
    names = engines.engine_names()
    assert names == ("serial", "vectorized", "auto")
    assert engines.canonical_name("bitmask") == "serial"
    for retired in ("parallel", "parallel-shm", "streaming"):
        assert engines.canonical_name(retired) == "vectorized"
    with pytest.raises(ValueError, match="unknown engine"):
        engines.canonical_name("warp-drive")
    with pytest.raises(ValueError, match="already taken"):
        engines.register_engine(
            engines.EngineSpec(
                name="serial",
                summary="",
                memory="",
                best_for="",
                runner=lambda inputs, max_level=None: {},
            )
        )


def test_auto_resolves_to_concrete_engine():
    trace = loop_nest_trace(16, 4)
    explorer = AnalyticalCacheExplorer(trace, engine="auto")
    assert explorer.engine == "auto"
    assert explorer.resolved_engine in engines.engine_names(include_auto=False)
    with pytest.raises(ValueError, match="selection policy"):
        engines.get_engine("auto")
