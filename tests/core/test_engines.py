"""Unit tests for the explorer's selectable histogram engines."""

import pytest

from repro.core import engines
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.vectorized import numpy_available
from repro.obs import Recorder
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


#: The one engine ``auto`` may resolve to in this interpreter.
AUTO_TARGET = "vectorized" if numpy_available() else "serial"


def _auto_trace(n):
    """An ``n``-reference trace (``n`` may be 0), at most 256 unique."""
    if n == 0:
        return Trace([], address_bits=8)
    return random_trace(n, min(256, max(1, n // 4)), seed=n)


class TestAutoSelection:
    """``auto`` is ``vectorized`` wherever NumPy is importable and
    ``serial`` elsewhere: no trace size, prelude or prebuilt product
    moves the choice."""

    @pytest.mark.parametrize("prebuilt_mrct", [False, True],
                             ids=["cold", "prebuilt-mrct"])
    @pytest.mark.parametrize("prelude", ["auto", "python"])
    @pytest.mark.parametrize("n", [0, 1, 2, 16, 255, 4096, 16384])
    @pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "no-numpy"])
    def test_auto_rule(self, monkeypatch, numpy, n, prelude, prebuilt_mrct):
        from repro.core import vectorized

        if numpy and not numpy_available():
            pytest.skip("needs NumPy")
        if not numpy:
            monkeypatch.setattr(vectorized, "numpy_available", lambda: False)
        explorer = AnalyticalCacheExplorer(_auto_trace(n), prelude=prelude)
        if prebuilt_mrct:
            explorer.mrct  # the bigint MRCT exists before auto resolves
        expected = "vectorized" if numpy else "serial"
        assert explorer.resolved_engine == expected
        assert engines.choose_auto() == expected

    @pytest.mark.parametrize("mode", ["sum", "each", "linesize"])
    def test_auto_rule_in_multi_trace_reports(self, mode):
        from repro.core.request import ExplorationRequest, explore_request

        short, long = _auto_trace(16), _auto_trace(4096)
        if mode == "linesize":
            request = ExplorationRequest.line_sweep(short, budget=1)
        else:
            request = ExplorationRequest.multi([short, long], 1, mode=mode)
        assert explore_request(request).engine == AUTO_TARGET

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_million_refs_pick_vectorized(self):
        # Regression: auto escalated to the retired parallel-shm engine
        # from 10^6 refs, slower than vectorized on every measured trace.
        from array import array

        trace = Trace(array("q", bytes(8 * 1_000_000)), address_bits=1)
        assert AnalyticalCacheExplorer(trace).resolved_engine == "vectorized"

    def test_resolve_never_triggers_prelude(self):
        recorder = Recorder()
        explorer = AnalyticalCacheExplorer(_auto_trace(4096), recorder=recorder)
        assert explorer.resolved_engine == AUTO_TARGET
        assert recorder.find("resolve-engine") is not None
        assert recorder.find("prelude:strip") is None


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
    @pytest.mark.parametrize("n", [1000, 4096, 16384])
    def test_one_choice_per_request(self, picks, prelude, n):
        from repro.core.request import ExplorationRequest, explore_request

        calls, ran = picks
        report = explore_request(
            ExplorationRequest.single(
                zipf_trace(n, 300, seed=4), percents=(5, 10, 20), prelude=prelude
            )
        )
        assert calls == [AUTO_TARGET]
        assert ran == [AUTO_TARGET]
        assert report.engine == AUTO_TARGET
