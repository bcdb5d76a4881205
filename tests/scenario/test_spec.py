"""ScenarioSpec: the frozen, validated exploration contract."""

import pytest

from repro.scenario import COST_MODELS, ScenarioSpec


class TestDefaults:
    def test_default_spec_is_the_baseline(self):
        spec = ScenarioSpec()
        assert spec.is_baseline()
        assert spec.policy == "lru"
        assert spec.l2_depth is None
        assert spec.cost_model is None
        assert spec.levels == 1

    def test_any_scenario_dimension_leaves_the_baseline(self):
        assert not ScenarioSpec(policy="fifo").is_baseline()
        assert not ScenarioSpec(l2_depth=16).is_baseline()
        assert not ScenarioSpec(cost_model="energy").is_baseline()

    def test_levels_counts_the_hierarchy(self):
        assert ScenarioSpec(l2_depth=8).levels == 2

    def test_spec_is_frozen_and_hashable(self):
        spec = ScenarioSpec(policy="fifo")
        with pytest.raises(AttributeError):
            spec.policy = "lru"
        assert spec == ScenarioSpec(policy="fifo")
        assert hash(spec) == hash(ScenarioSpec(policy="fifo"))


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ScenarioSpec(policy="mru")

    def test_unknown_cost_model(self):
        with pytest.raises(ValueError, match="cost_model"):
            ScenarioSpec(cost_model="carbon")

    def test_l2_depth_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="l2_depth"):
            ScenarioSpec(l2_depth=12)

    def test_machinery_knobs_still_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ScenarioSpec(engine="warp")
        with pytest.raises(ValueError, match="prelude"):
            ScenarioSpec(prelude="fastest")
        with pytest.raises(ValueError, match="max_depth"):
            ScenarioSpec(max_depth=7)

    def test_replace_revalidates(self):
        spec = ScenarioSpec()
        assert spec.replace(policy="fifo").policy == "fifo"
        with pytest.raises(ValueError, match="policy"):
            spec.replace(policy="mru")


class TestWireForm:
    def test_json_dict_carries_the_scenario_triple_only(self):
        spec = ScenarioSpec(
            engine="serial", policy="fifo", l2_depth=8, cost_model="time"
        )
        assert spec.to_json_dict() == {
            "policy": "fifo",
            "l2_depth": 8,
            "cost_model": "time",
        }

    def test_cost_models_are_the_documented_triple(self):
        assert COST_MODELS == ("energy", "area", "time")
