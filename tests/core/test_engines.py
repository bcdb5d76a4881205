"""Unit tests for the explorer's selectable histogram engines."""

import pytest

from repro.core import engines
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.vectorized import numpy_available
from repro.trace.strip import strip_trace
from repro.trace.synthetic import loop_nest_trace, random_trace, zipf_trace
from repro.trace.trace import Trace

#: Every name an engine argument accepts: the registry plus legacy aliases.
ACCEPTED_NAMES = AnalyticalCacheExplorer.ENGINES + tuple(engines.ALIASES)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            AnalyticalCacheExplorer(loop_nest_trace(4, 2), engine="magic")

    def test_processes_keyword_is_gone(self):
        with pytest.raises(TypeError, match="processes"):
            AnalyticalCacheExplorer(
                loop_nest_trace(4, 2), engine="parallel", processes=2
            )

    @pytest.mark.parametrize("engine", ACCEPTED_NAMES)
    def test_every_engine_accepted(self, engine):
        explorer = AnalyticalCacheExplorer(
            loop_nest_trace(8, 4), engine=engine
        )
        assert explorer.engine == engine
        assert explorer.resolved_engine in AnalyticalCacheExplorer.ENGINES


class TestAutoSelection:
    """Regression: ``choose_auto`` treated trace=None as "short trace"
    and always answered ``serial`` for injected prelude products."""

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_traceless_inputs_size_by_n_unique(self):
        big = strip_trace(random_trace(4 * engines.AUTO_MIN_UNIQUE,
                                       2 * engines.AUTO_MIN_UNIQUE, seed=0))
        assert big.n_unique >= engines.AUTO_MIN_UNIQUE
        assert engines.choose_auto(None, stripped=big) == "vectorized"

    def test_traceless_small_stripped_stays_serial(self):
        small = strip_trace(loop_nest_trace(16, 4))
        assert engines.choose_auto(None, stripped=small) == "serial"

    def test_nothing_known_stays_serial(self):
        assert engines.choose_auto(None) == "serial"

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_million_refs_pick_vectorized(self):
        # Regression: auto escalated to the retired parallel-shm engine
        # from 10^6 refs, slower than vectorized on every measured trace.
        from array import array

        trace = Trace(array("q", bytes(8 * 1_000_000)), address_bits=1)
        assert engines.choose_auto(trace) == "vectorized"
        assert engines.AUTO_CANDIDATES == ("serial", "vectorized")

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_resolve_engine_uses_injected_stripped(self):
        trace = random_trace(4 * engines.AUTO_MIN_UNIQUE,
                             2 * engines.AUTO_MIN_UNIQUE, seed=0)
        stripped = strip_trace(trace)
        inputs = engines.EngineInputs(None, stripped=stripped)
        assert engines.resolve_engine("auto", inputs).name == "vectorized"

    def test_resolve_never_triggers_prelude(self):
        inputs = engines.EngineInputs(None)  # no trace, nothing injected
        engines.resolve_engine("auto", inputs)  # sizes by nothing: serial
        assert inputs.stripped_if_built is None


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_histograms_across_engines(self, seed):
        trace = zipf_trace(300, 60, seed=seed)
        reference = AnalyticalCacheExplorer(trace, engine="bitmask").histograms
        for engine in ("vectorized", "auto"):
            other = AnalyticalCacheExplorer(trace, engine=engine).histograms
            assert sorted(reference) == sorted(other)
            for level in reference:
                assert reference[level].counts == other[level].counts, (
                    engine,
                    level,
                )

    @pytest.mark.parametrize("engine", ACCEPTED_NAMES)
    def test_identical_exploration_results(self, engine):
        trace = random_trace(250, 40, seed=3)
        reference = AnalyticalCacheExplorer(trace).explore(5)
        other = AnalyticalCacheExplorer(trace, engine=engine).explore(5)
        assert other.as_dict() == reference.as_dict()
        assert other.misses == reference.misses

    def test_max_depth_respected_by_all_engines(self):
        trace = random_trace(150, 30, seed=4)
        for engine in AnalyticalCacheExplorer.ENGINES:
            explorer = AnalyticalCacheExplorer(
                trace, max_depth=8, engine=engine
            )
            assert max(explorer.histograms) == 3

class TestAutoResolvedOnce:
    """A single-mode request resolves ``auto`` once, and its report
    names the engine that ran (the same name the two-call resolution
    reported)."""

    @pytest.fixture
    def picks(self, monkeypatch):
        calls, ran = [], []
        choose, compute = engines.choose_auto, engines.EngineSpec.compute

        def counting_choose(*args, **kwargs):
            calls.append(choose(*args, **kwargs))
            return calls[-1]

        def recording_compute(spec, *args, **kwargs):
            ran.append(spec.name)
            return compute(spec, *args, **kwargs)

        monkeypatch.setattr(engines, "choose_auto", counting_choose)
        monkeypatch.setattr(engines.EngineSpec, "compute", recording_compute)
        return calls, ran

    @pytest.mark.parametrize("prelude", engines.PRELUDE_MODES)
    @pytest.mark.parametrize(
        "n", [1000, engines.AUTO_MIN_REFS, engines.AUTO_MIN_REFS_POSTLUDE]
    )
    def test_one_choice_per_request(self, picks, prelude, n):
        from repro.core.request import ExplorationRequest, explore_request

        calls, ran = picks
        report = explore_request(
            ExplorationRequest.single(
                zipf_trace(n, 300, seed=4), percents=(5, 10, 20), prelude=prelude
            )
        )
        threshold = (
            engines.AUTO_MIN_REFS_POSTLUDE
            if prelude == "python"
            else engines.AUTO_MIN_REFS
        )
        expected = (
            "vectorized" if numpy_available() and n >= threshold else "serial"
        )
        assert calls == [expected]
        assert ran == [expected]
        assert report.engine == expected
