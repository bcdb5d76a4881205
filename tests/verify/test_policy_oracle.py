"""The policy oracle: FIFO hybrid vs the simulator across the corpus."""

import itertools

import pytest

from repro.verify import VerifyConfig, policy_divergences, run_grid, run_verify
from repro.verify.generators import anchor_entries, corpus_stream


class TestPolicyOracle:
    def test_fifo_is_bit_identical_across_the_anchor_corpus(self):
        # The tentpole acceptance bar: every (trace, depth, assoc) cell.
        for entry in anchor_entries():
            divergences = policy_divergences(
                entry.trace, entry.budgets, policies=("fifo",)
            )
            assert not divergences, (entry.name, divergences)

    def test_fifo_holds_on_a_fuzz_slice(self):
        for entry in itertools.islice(corpus_stream(seed=3), 14, 22):
            divergences = policy_divergences(
                entry.trace, entry.budgets, policies=("fifo",)
            )
            assert not divergences, (entry.name, divergences)

    def test_lru_policy_is_skipped(self):
        entry = anchor_entries()[0]
        assert policy_divergences(entry.trace, entry.budgets, policies=("lru",)) == []

    def test_grid_carries_the_policy_axis(self):
        entry = anchor_entries()[0]
        outcome = run_grid(entry.trace, entry.budgets, policies=("fifo",))
        assert outcome.ok

    def test_runner_config_validates_policies(self):
        with pytest.raises(ValueError, match="unknown policy"):
            VerifyConfig(policies=("mru",))

    def test_runner_smoke_with_policy_axis(self):
        report = run_verify(
            VerifyConfig(
                max_traces=3,
                policies=("fifo",),
                corpus_dir=None,
                include_warm=False,
                engines=("serial",),
                preludes=("python",),
                laws="none",
            )
        )
        assert report.ok
        assert report.traces == 3
