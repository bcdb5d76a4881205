"""ExplorationRequest parity: the one entry point vs the explorer classes.

:func:`repro.core.explore_request` runs every exploration shape through
the same explorer classes a caller could drive by hand; both spellings
must produce identical results on the paper's workloads.
"""

import pytest

from repro.core import (
    AnalyticalCacheExplorer,
    ExplorationReport,
    ExplorationRequest,
    ExplorationResult,
    MultiTraceExplorer,
    explore_request,
)
from repro.core.linesize import LineSizeExplorer
from repro.obs import Recorder
from repro.store import ArtifactStore
from repro.trace.synthetic import loop_nest_trace, zipf_trace
from repro.trace.trace import Trace
from tests.conftest import PAPER_TRACE_BITS

WORKLOADS = ("crc", "fir")


def _paper_trace():
    return Trace.from_bit_strings(PAPER_TRACE_BITS, name="paper-table-1")


@pytest.fixture(scope="module")
def parity_traces(tiny_runs):
    traces = [_paper_trace()]
    traces += [tiny_runs[name].data_trace for name in WORKLOADS]
    return traces


def _explore(trace, budget, **kwargs):
    """The first result of a one-budget single-trace request."""
    return explore_request(
        ExplorationRequest.single(trace, budget=budget, **kwargs)
    ).results[0]


class TestSingleParity:
    def test_request_matches_explorer_class(self, parity_traces):
        for trace in parity_traces:
            explorer = AnalyticalCacheExplorer(trace)
            for budget in (0, 2, 4):
                report = explore_request(
                    ExplorationRequest.single(trace, budget=budget)
                )
                assert report.mode == "single"
                assert report.budgets == (budget,)
                assert (
                    report.results[0].to_json_dict()
                    == explorer.explore(budget).to_json_dict()
                ), trace.name

    def test_explore_percent_parity(self, parity_traces):
        for trace in parity_traces:
            explorer = AnalyticalCacheExplorer(trace)
            report = explore_request(
                ExplorationRequest.single(trace, percent=10.0)
            )
            assert (
                report.results[0].to_json_dict()
                == explorer.explore_percent(10.0).to_json_dict()
            )
            # The resolved absolute budget matches the trace statistics.
            assert report.budgets == (explorer.statistics.budget(10.0),)

    def test_explore_many_parity(self, parity_traces):
        budgets = (0, 1, 5)
        for trace in parity_traces:
            direct = AnalyticalCacheExplorer(trace).explore_many(budgets)
            report = explore_request(
                ExplorationRequest.single(trace, budgets=budgets)
            )
            assert len(direct) == len(report.results) == len(budgets)
            for direct_result, request_result in zip(direct, report.results):
                assert (
                    direct_result.to_json_dict() == request_result.to_json_dict()
                )

    def test_mixed_absolute_and_percent_budgets(self):
        trace = _paper_trace()
        report = explore_request(
            ExplorationRequest.single(trace, budgets=(0, 2), percents=(50.0,))
        )
        explorer = AnalyticalCacheExplorer(trace)
        assert report.budgets == (0, 2, explorer.statistics.budget(50.0))
        assert len(report.results) == 3

    def test_include_depth_one_passes_through(self):
        trace = _paper_trace()
        direct = AnalyticalCacheExplorer(trace).explore(0, include_depth_one=True)
        result = _explore(trace, 0, include_depth_one=True)
        assert 1 in result.as_dict()
        assert result.to_json_dict() == direct.to_json_dict()


class TestExploreEngineBugfix:
    """A request honours its engine, recorder and store."""

    def test_engine_choice_is_honored(self):
        trace = zipf_trace(400, 40, seed=3)
        recorder = Recorder()
        _explore(trace, 0, engine="vectorized", recorder=recorder)
        assert recorder.find("engine:vectorized") is not None

    def test_alias_and_all_engines_agree(self, parity_traces):
        trace = parity_traces[0]
        reference = _explore(trace, 1, engine="serial").to_json_dict()
        for engine in (
            "parallel",
            "parallel-shm",
            "streaming",
            "vectorized",
            "auto",
            "bitmask",
        ):
            assert _explore(trace, 1, engine=engine).to_json_dict() == reference
        # The retired names run vectorized, and their reports say so.
        vectorized = explore_request(
            ExplorationRequest.single(trace, budget=1, engine="vectorized")
        ).to_json_dict()
        for alias in ("parallel", "parallel-shm", "streaming"):
            report = explore_request(
                ExplorationRequest.single(trace, budget=1, engine=alias)
            )
            assert report.to_json_dict() == vectorized, alias

    def test_store_passes_through(self, tmp_path):
        trace = zipf_trace(300, 30, seed=9)
        store = ArtifactStore(tmp_path / "s")
        _explore(trace, 0, store=store)
        assert store.stats.puts > 0

    def test_unknown_engine_fails_fast(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExplorationRequest.single(_paper_trace(), budget=0, engine="warp-drive")


class TestMultiParity:
    @pytest.fixture(scope="class")
    def app_set(self):
        a = loop_nest_trace(24, 10)
        a.name = "loops"
        b = zipf_trace(500, 40, seed=2)
        b.name = "zipf"
        return [a, b]

    @pytest.mark.parametrize("mode", ["sum", "each"])
    def test_request_matches_explorer(self, app_set, mode):
        direct = getattr(MultiTraceExplorer(app_set), f"explore_{mode}")(4)
        report = explore_request(
            ExplorationRequest.multi(app_set, budget=4, mode=mode)
        )
        got = report.multi_results[0]
        assert report.mode == mode
        assert got.mode == direct.mode == mode
        assert got.as_dict() == direct.as_dict()
        assert got.misses_by_trace == direct.misses_by_trace

    def test_weights_pass_through(self, app_set):
        direct = MultiTraceExplorer(app_set, weights=[3, 1]).explore_sum(8)
        report = explore_request(
            ExplorationRequest.multi(app_set, budget=8, weights=(3, 1))
        )
        assert report.multi_results[0].as_dict() == direct.as_dict()


class TestPreludeReachesEveryMode:
    @pytest.mark.parametrize("mode", ["sum", "each", "linesize"])
    def test_python_prelude_runs_the_reference_builders(self, monkeypatch, mode):
        import json

        from repro.core import engines
        from repro.scenario import ScenarioSpec

        calls = []
        reference = engines.build_mrct

        def spy(stripped):
            calls.append(stripped)
            return reference(stripped)

        monkeypatch.setattr(engines, "build_mrct", spy)
        a = loop_nest_trace(24, 10)
        a.name = "loops"
        b = zipf_trace(500, 40, seed=2)
        b.name = "zipf"
        traces = (b,) if mode == "linesize" else (a, b)

        def report(prelude):
            request = ExplorationRequest(
                traces=traces,
                mode=mode,
                budgets=(0, 6),
                scenario=ScenarioSpec(prelude=prelude),
            )
            return json.dumps(explore_request(request).to_json_dict())

        auto = report("auto")
        assert calls == []
        assert report("python") == auto
        # One reference MRCT per trace, or per swept line size.
        assert len(calls) == (
            len(LineSizeExplorer.DEFAULT_LINE_SIZES) if mode == "linesize" else 2
        )


class TestLineSizeParity:
    def test_request_matches_class(self):
        trace = zipf_trace(600, 48, seed=7)
        line_sizes = (1, 2, 4)
        direct = LineSizeExplorer(trace, line_sizes=line_sizes).explore(2)
        report = explore_request(
            ExplorationRequest.line_sweep(trace, budget=2, line_sizes=line_sizes)
        )
        sweep = report.line_sweeps[0]
        assert sweep.budget == direct.budget == 2
        for line in line_sizes:
            assert (
                sweep.by_line_words[line].to_json_dict()
                == direct.by_line_words[line].to_json_dict()
            )


class TestRequestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ExplorationRequest(traces=(_paper_trace(),), mode="exhaustive")

    def test_no_traces(self):
        with pytest.raises(ValueError, match="at least one trace"):
            ExplorationRequest(traces=(), mode="single")

    def test_single_takes_one_trace(self):
        trace = _paper_trace()
        with pytest.raises(ValueError, match="exactly one trace"):
            ExplorationRequest(traces=(trace, trace), mode="single")

    def test_percents_only_in_single_mode(self):
        a = loop_nest_trace(8, 4)
        a.name = "a"
        b = loop_nest_trace(8, 4, start=64)
        b.name = "b"
        with pytest.raises(ValueError, match="percent"):
            ExplorationRequest(
                traces=(a, b), mode="sum", budgets=(1,), percents=(5.0,)
            )

    def test_weights_only_in_sum_mode(self):
        with pytest.raises(ValueError, match="weights"):
            ExplorationRequest(
                traces=(_paper_trace(),),
                mode="single",
                budgets=(0,),
                weights=(2,),
            )

    def test_multi_needs_a_budget(self):
        a = loop_nest_trace(8, 4)
        a.name = "a"
        with pytest.raises(ValueError, match="budget"):
            ExplorationRequest(traces=(a,), mode="each")

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExplorationRequest(traces=(_paper_trace(),), budgets=(-1,))

    def test_unknown_engine(self):
        from repro.scenario import ScenarioSpec

        with pytest.raises(ValueError, match="unknown engine"):
            ExplorationRequest(
                traces=(_paper_trace(),),
                budgets=(0,),
                scenario=ScenarioSpec(engine="nope"),
            )


class TestScenario:
    """ScenarioSpec is the contract; constructor keywords build one."""

    def test_loose_kwargs_build_an_equivalent_spec(self):
        from repro.scenario import ScenarioSpec

        loose = ExplorationRequest.single(
            _paper_trace(),
            budget=0,
            engine="serial",
            prelude="python",
            max_depth=8,
        )
        spec_first = ExplorationRequest(
            traces=(_paper_trace(),),
            budgets=(0,),
            scenario=ScenarioSpec(
                engine="serial", prelude="python", max_depth=8
            ),
        )
        assert loose.scenario == spec_first.scenario
        # The machinery attributes read through to the scenario.
        assert spec_first.engine == "serial"
        assert spec_first.prelude == "python"
        assert spec_first.max_depth == 8
        assert spec_first.include_depth_one is False

    def test_loose_and_scenario_reports_are_byte_identical(self):
        from repro.scenario import ScenarioSpec

        trace = _paper_trace()
        via_loose = explore_request(
            ExplorationRequest.single(trace, budgets=(0, 2), engine="serial")
        )
        via_spec = explore_request(
            ExplorationRequest(
                traces=(trace,),
                budgets=(0, 2),
                scenario=ScenarioSpec(engine="serial"),
            )
        )
        assert via_loose.to_json_dict() == via_spec.to_json_dict()

    def test_conflicting_loose_kwarg_and_spec_rejected(self):
        from repro.scenario import ScenarioSpec

        # One spelling per call: even an agreeing keyword is refused.
        for engine in ("serial", "vectorized"):
            with pytest.raises(ValueError, match="conflicting 'engine'"):
                ExplorationRequest.single(
                    _paper_trace(),
                    budget=0,
                    engine=engine,
                    scenario=ScenarioSpec(engine="vectorized"),
                )
        with pytest.raises(ValueError, match="conflicting 'max_depth', 'policy'"):
            ExplorationRequest.single(
                _paper_trace(),
                budget=0,
                max_depth=8,
                policy="fifo",
                scenario=ScenarioSpec(),
            )

    def test_default_scenario_is_the_baseline(self):
        from repro.scenario import ScenarioSpec

        request = ExplorationRequest(traces=(_paper_trace(),), budgets=(0,))
        assert request.scenario == ScenarioSpec()
        for mode in ("multi", "line_sweep"):
            trace = _paper_trace()
            trace.name = "a"
            built = getattr(ExplorationRequest, mode)(
                [trace] if mode == "multi" else trace,
                budget=0,
                max_depth=4,
                engine="serial",
            )
            assert built.scenario == ScenarioSpec(engine="serial", max_depth=4)

    def test_single_helper_accepts_the_scenario_triple(self):
        request = ExplorationRequest.single(
            _paper_trace(), budget=0, policy="fifo", cost_model="area"
        )
        assert request.policy == "fifo"
        assert request.cost_model == "area"
        assert request.scenario.policy == "fifo"

    def test_non_single_modes_reject_scenarios(self):
        from repro.scenario import ScenarioSpec

        a = loop_nest_trace(8, 4)
        a.name = "a"
        b = loop_nest_trace(8, 4, start=64)
        b.name = "b"
        with pytest.raises(ValueError, match="mode 'single'"):
            ExplorationRequest(
                traces=(a, b),
                mode="sum",
                budgets=(0,),
                scenario=ScenarioSpec(policy="fifo"),
            )

    def test_baseline_report_has_no_scenario_key(self):
        report = explore_request(
            ExplorationRequest.single(_paper_trace(), budget=0)
        )
        assert report.scenario is None
        assert "scenario" not in report.to_json_dict()

    def test_fifo_report_matches_the_fifo_engine(self):
        from repro.core.fifo import FIFOHybridExplorer

        trace = zipf_trace(400, 40, seed=6)
        report = explore_request(
            ExplorationRequest.single(trace, budget=3, policy="fifo")
        )
        direct = FIFOHybridExplorer(trace).explore(3)
        assert report.results[0].to_json_dict() == direct.to_json_dict()
        assert report.scenario["policy"] == "fifo"

    def test_scenario_report_round_trips_through_json(self):
        trace = zipf_trace(400, 40, seed=6)
        report = explore_request(
            ExplorationRequest.single(
                trace, budget=3, policy="fifo", l2_depth=8, cost_model="energy"
            )
        )
        payload = report.to_json_dict()
        assert payload["scenario"]["levels"] == 2
        clone = ExplorationReport.from_json_dict(payload)
        assert clone.to_json_dict() == payload


class TestReport:
    def test_report_shape_and_result_accessor(self):
        trace = _paper_trace()
        report = explore_request(ExplorationRequest.single(trace, budget=0))
        assert isinstance(report, ExplorationReport)
        assert report.engine in ("serial", "vectorized")
        assert report.result is report.results[0]
        payload = report.to_json_dict()
        assert payload["mode"] == "single"
        assert payload["budgets"] == [0]
        assert payload["results"][0] == report.results[0].to_json_dict()
        assert "store" not in payload

    def test_report_includes_store_stats(self, tmp_path):
        trace = zipf_trace(300, 30, seed=5)
        store = ArtifactStore(tmp_path / "s")
        report = explore_request(
            ExplorationRequest.single(trace, budget=0, store=store)
        )
        assert report.store_stats == store.stats.as_dict()
        assert report.to_json_dict()["store"]["puts"] > 0

    def test_result_json_round_trip(self):
        result = _explore(_paper_trace(), 3)
        clone = ExplorationResult.from_json_dict(result.to_json_dict())
        assert clone.to_json_dict() == result.to_json_dict()
        assert clone.as_dict() == result.as_dict()

    def test_empty_report_result_is_none(self):
        report = ExplorationReport(mode="single", engine="serial", budgets=())
        assert report.result is None
