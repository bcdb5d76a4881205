"""Unit tests for the AnalyticalCacheExplorer facade."""

import pytest

from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.request import ExplorationRequest, explore_request
from repro.trace.synthetic import loop_nest_trace, random_trace, zipf_trace
from repro.trace.trace import Trace


class TestConstruction:
    def test_max_depth_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            AnalyticalCacheExplorer(Trace([0, 1]), max_depth=3)

    def test_stages_are_cached(self):
        explorer = AnalyticalCacheExplorer(random_trace(100, 10, seed=0))
        assert explorer.stripped is explorer.stripped
        assert explorer.zerosets is explorer.zerosets
        assert explorer.mrct is explorer.mrct
        assert explorer.histograms is explorer.histograms
        assert explorer.statistics is explorer.statistics


class TestMisses:
    def test_exact_on_hand_example(self):
        # Thrash pair in one set of a depth-2 cache.
        explorer = AnalyticalCacheExplorer(Trace([0, 2, 0, 2], address_bits=3))
        assert explorer.misses(2, 1) == 2
        assert explorer.misses(2, 2) == 0

    def test_depth_must_be_power_of_two(self):
        explorer = AnalyticalCacheExplorer(Trace([0, 1]))
        with pytest.raises(ValueError, match="power of two"):
            explorer.misses(3, 1)

    def test_depths_beyond_bcat_are_conflict_free(self):
        explorer = AnalyticalCacheExplorer(Trace([0, 1, 0, 1]))
        assert explorer.misses(1 << 20, 1) == 0

    def test_loop_footprint_boundary(self):
        # Loop of 8 addresses: depth 8 direct-mapped holds it all.
        explorer = AnalyticalCacheExplorer(loop_nest_trace(8, 10))
        assert explorer.misses(8, 1) == 0
        assert explorer.misses(4, 1) > 0
        assert explorer.misses(4, 2) == 0


class TestExplore:
    def test_budget_always_met(self):
        explorer = AnalyticalCacheExplorer(zipf_trace(500, 60, seed=1))
        for budget in (0, 5, 25):
            result = explorer.explore(budget)
            assert all(m <= budget for m in result.misses)

    def test_minimality_of_associativity(self):
        """A-1 must violate the budget wherever A > 1 (minimality)."""
        explorer = AnalyticalCacheExplorer(zipf_trace(400, 50, seed=2))
        result = explorer.explore(3)
        for inst in result:
            if inst.associativity > 1:
                assert explorer.misses(inst.depth, inst.associativity - 1) > 3

    def test_explore_percent_uses_max_misses(self):
        trace = loop_nest_trace(16, 6)
        explorer = AnalyticalCacheExplorer(trace)
        from_percent = explorer.explore_percent(10)
        budget = explorer.statistics.budget(10)
        assert from_percent.budget == budget
        assert from_percent.as_dict() == explorer.explore(budget).as_dict()

    def test_explore_many_matches_individual_runs(self):
        explorer = AnalyticalCacheExplorer(random_trace(200, 30, seed=4))
        many = explorer.explore_many([0, 4])
        assert many[0].as_dict() == explorer.explore(0).as_dict()
        assert many[1].as_dict() == explorer.explore(4).as_dict()

    def test_report_extends_one_level_past_last_conflict(self):
        explorer = AnalyticalCacheExplorer(loop_nest_trace(8, 10))
        result = explorer.explore(0)
        depths = [inst.depth for inst in result]
        # Deepest conflicting level is depth 4; report reaches depth 8.
        assert depths[-1] == 8
        assert result.as_dict()[8] == 1

    def test_max_depth_override(self):
        explorer = AnalyticalCacheExplorer(loop_nest_trace(8, 10), max_depth=32)
        result = explorer.explore(0)
        assert [inst.depth for inst in result] == [2, 4, 8, 16, 32]

    def test_trace_name_propagates(self):
        trace = loop_nest_trace(4, 4)
        trace.name = "myloop"
        assert AnalyticalCacheExplorer(trace).explore(0).trace_name == "myloop"


class TestExplorationResult:
    def test_iteration_and_len(self):
        result = AnalyticalCacheExplorer(loop_nest_trace(4, 4)).explore(0)
        assert len(result) == len(list(result))

    def test_associativity_for_missing_depth_is_none(self):
        result = AnalyticalCacheExplorer(loop_nest_trace(4, 4)).explore(0)
        assert result.associativity_for(1 << 30) is None

    def test_smallest_prefers_fewest_words(self):
        result = AnalyticalCacheExplorer(zipf_trace(300, 40, seed=3)).explore(5)
        smallest = result.smallest()
        assert all(smallest.size_words <= i.size_words for i in result)


class TestModuleLevelHelper:
    """The one-shot module-level path: ``explore_request``."""

    def test_explore_function(self):
        report = explore_request(
            ExplorationRequest.single(loop_nest_trace(8, 5), budget=0)
        )
        assert report.results[0].as_dict()[8] == 1

    def test_explore_function_with_max_depth(self):
        report = explore_request(
            ExplorationRequest.single(
                loop_nest_trace(8, 5), budget=0, max_depth=16
            )
        )
        assert max(i.depth for i in report.results[0]) == 16
