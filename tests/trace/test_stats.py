"""Unit tests for trace statistics (paper Tables 5/6 quantities)."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.trace.stats import compute_statistics, max_misses_depth_one
from repro.trace.synthetic import loop_nest_trace, random_trace
from repro.trace.trace import Trace


class TestMaxMisses:
    def test_hand_computed_example(self):
        # 5, 5 hits once; 6, 5, 6 are all non-repeat accesses.
        trace = Trace([5, 5, 6, 5, 6])
        # transitions: 5(cold) 5(hit) 6(cold) 5(miss) 6(miss) -> 2 non-cold
        assert max_misses_depth_one(trace) == 2

    def test_single_address_trace_has_zero(self):
        assert max_misses_depth_one(Trace([3, 3, 3, 3])) == 0

    def test_all_distinct_trace_has_zero(self):
        # Every miss is cold, so nothing remains beyond cold misses.
        assert max_misses_depth_one(Trace([1, 2, 3, 4])) == 0

    def test_empty_trace(self):
        assert max_misses_depth_one(Trace([])) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_depth_one_direct_mapped_simulation(self, seed):
        """The closed form must equal an actual depth-1 DM simulation."""
        trace = random_trace(400, 37, seed=seed)
        simulated = simulate_trace(trace, CacheConfig(depth=1, associativity=1))
        assert max_misses_depth_one(trace) == simulated.non_cold_misses

    def test_matches_simulation_on_paper_trace(self, paper_trace):
        simulated = simulate_trace(
            paper_trace, CacheConfig(depth=1, associativity=1)
        )
        assert max_misses_depth_one(paper_trace) == simulated.non_cold_misses


class TestTraceStatistics:
    def test_fields(self):
        trace = loop_nest_trace(8, 5)
        stats = compute_statistics(trace, name="loop")
        assert stats.name == "loop"
        assert stats.n == 40
        assert stats.n_unique == 8
        assert stats.work_product == 320
        assert stats.address_bits == trace.address_bits

    def test_name_falls_back_to_trace_name(self):
        stats = compute_statistics(Trace([1], name="inner"))
        assert stats.name == "inner"

    def test_budget_percentages(self):
        trace = loop_nest_trace(8, 5)
        stats = compute_statistics(trace)
        assert stats.budget(100) == stats.max_misses
        assert stats.budget(50) == stats.max_misses // 2
        assert stats.budget(0) == 0

    def test_budget_truncates_toward_zero(self):
        trace = Trace([5, 6, 5, 6, 5])  # max_misses = 3
        stats = compute_statistics(trace)
        assert stats.max_misses == 3
        assert stats.budget(50) == 1

    def test_negative_percent_rejected(self):
        stats = compute_statistics(Trace([1]))
        with pytest.raises(ValueError, match="non-negative"):
            stats.budget(-5)

    def test_loop_trace_max_misses(self):
        # footprint F repeated I times: depth-1 DM misses every access
        # except none repeat consecutively (F >= 2), so N - N' non-cold.
        trace = loop_nest_trace(4, 10)
        stats = compute_statistics(trace)
        assert stats.max_misses == 40 - 4


class TestNumpyAndLoopPaths:
    """The NumPy counts and the no-NumPy loop give the same row."""

    @pytest.mark.parametrize(
        "trace",
        [
            Trace([]),
            Trace([9]),
            Trace([3, 3, 3]),
            Trace([5, 5, 6, 5, 6]),
            Trace([70000, 5, 70000, 1 << 20, 5]),
            Trace([(1 << 62) + 1, 0, (1 << 62) + 1, 0]),
            loop_nest_trace(16, 7),
            random_trace(900, 61, seed=4),
        ],
        ids=["empty", "one", "repeat", "hand", "mid", "wide", "loop", "random"],
    )
    def test_paths_agree(self, monkeypatch, trace):
        from repro.trace import stats as stats_module

        with_numpy = compute_statistics(trace)
        monkeypatch.setattr(stats_module, "_np", None)
        assert compute_statistics(trace) == with_numpy
        assert max_misses_depth_one(trace) == with_numpy.max_misses
        assert with_numpy.n_unique == trace.unique_count()

    def test_does_not_import_numpy_ma(self):
        """``np.unique`` without flags pulls in ``numpy.ma``; the sort-and-
        diff count must not."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.trace.stats import compute_statistics\n"
            "from repro.trace.synthetic import random_trace\n"
            "compute_statistics(random_trace(200, 30, seed=1))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": src,
                "PATH": "/usr/bin:/bin",
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"
