"""Unit tests for the line-size extension."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.core.linesize import LineSizeExplorer
from repro.trace.synthetic import (
    loop_nest_trace,
    random_trace,
    sequential_trace,
    zipf_trace,
)
from repro.trace.trace import Trace


class TestLineTrace:
    def test_addresses_are_shifted(self):
        trace = Trace([0, 1, 4, 5, 8], address_bits=4)
        line = trace.to_line_trace(4)
        assert list(line) == [0, 0, 1, 1, 2]
        assert line.address_bits == 2

    def test_line_one_is_identity(self):
        trace = Trace([3, 7, 3])
        assert list(trace.to_line_trace(1)) == [3, 7, 3]

    def test_kinds_preserved(self):
        from repro.trace.reference import AccessKind

        trace = Trace([0, 4], kinds=[AccessKind.WRITE, AccessKind.READ])
        line = trace.to_line_trace(4)
        assert line.kind(0) is AccessKind.WRITE

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            Trace([0]).to_line_trace(3)

    def test_name_records_line_size(self):
        trace = Trace([0], name="demo")
        assert trace.to_line_trace(8).name == "demo/L8"


class TestExactness:
    """The headline property: line-trace analysis == multiword-line simulation."""

    @pytest.mark.parametrize("line_words", [1, 2, 4, 8])
    def test_against_simulator(self, line_words):
        trace = random_trace(500, 120, seed=line_words)
        explorer = LineSizeExplorer(trace, line_sizes=[line_words])
        for depth in (2, 8, 32):
            for assoc in (1, 2, 4):
                analytical = explorer.misses(line_words, depth, assoc)
                simulated = simulate_trace(
                    trace,
                    CacheConfig(
                        depth=depth, associativity=assoc, line_words=line_words
                    ),
                ).non_cold_misses
                assert analytical == simulated

    def test_sequential_trace_benefits_from_long_lines(self):
        # Pure streaming: longer lines turn misses into spatial hits,
        # shrinking cold misses; non-cold stay zero everywhere.
        trace = sequential_trace(256)
        sweep = LineSizeExplorer(trace).explore(0)
        colds = {
            li.line_words: li.cold_misses for li in sweep.instances
        }
        assert colds[8] * 8 == colds[1]


class TestSweep:
    def test_default_line_sizes(self):
        sweep = LineSizeExplorer(loop_nest_trace(16, 5)).explore(0)
        assert sweep.line_sizes() == [1, 2, 4, 8]

    def test_budget_met_per_line_size(self):
        trace = zipf_trace(600, 90, seed=3)
        sweep = LineSizeExplorer(trace).explore(10)
        for point in sweep.instances:
            assert point.non_cold_misses <= 10

    def test_size_words_includes_line(self):
        sweep = LineSizeExplorer(loop_nest_trace(16, 5)).explore(0)
        point = next(li for li in sweep.instances if li.line_words == 4)
        assert point.size_words == point.instance.size_words * 4

    def test_traffic_counts_words_per_fetch(self):
        sweep = LineSizeExplorer(loop_nest_trace(16, 5)).explore(0)
        for point in sweep.instances:
            assert point.traffic_words == point.total_misses * point.line_words

    def test_smallest_and_least_traffic_are_members(self):
        sweep = LineSizeExplorer(zipf_trace(400, 60, seed=1)).explore(5)
        assert sweep.smallest() in sweep.instances
        assert sweep.least_traffic() in sweep.instances

    def test_at_accessor(self):
        sweep = LineSizeExplorer(loop_nest_trace(8, 4)).explore(0)
        assert sweep.at(2).budget == 0

    def test_loop_footprint_shrinks_with_line_size(self):
        # Footprint 32 words = 8 lines of 4: depth 8 direct-mapped is
        # conflict-free at L=4 where L=1 needs depth 32.
        trace = loop_nest_trace(32, 10)
        explorer = LineSizeExplorer(trace, line_sizes=[1, 4])
        assert explorer.misses(1, 8, 1) > 0
        assert explorer.misses(4, 8, 1) == 0

    def test_validation_hooks(self):
        trace = zipf_trace(300, 50, seed=2)
        sweep = LineSizeExplorer(trace).explore(3)
        for point in sweep.instances:
            simulated = simulate_trace(trace, point.to_config())
            assert simulated.non_cold_misses == point.non_cold_misses
            assert simulated.cold_misses == point.cold_misses


class TestValidationOfInputs:
    def test_empty_line_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            LineSizeExplorer(Trace([0]), line_sizes=[])

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            LineSizeExplorer(Trace([0]), line_sizes=[3])

    def test_duplicate_line_sizes_deduplicated(self):
        explorer = LineSizeExplorer(Trace([0, 1]), line_sizes=[2, 2, 1])
        assert explorer.line_sizes == [1, 2]
