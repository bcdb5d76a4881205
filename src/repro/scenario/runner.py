"""Executes the scenario extras: second-level exploration and costing.

The request layer runs the (policy-selected) L1 exploration itself;
this module layers the two scenario dimensions that *derive* from it:

* **Two-level hierarchies** — for each budget, the L1 winner (the
  smallest budget-satisfying instance) is materialized as a simulator
  config under the scenario's replacement policy, its recorded miss
  stream (:func:`repro.cache.simulator.miss_stream`) becomes the L2's
  input trace, and the same policy engine re-explores it with depths
  bounded by ``l2_depth``.  The counters are validated against
  :func:`repro.cache.multilevel.simulate_two_level`'s composed
  simulation exactly (tested).
* **Cost models** — each budget's instances are ranked by the
  :mod:`repro.analysis.hwmodel` estimate the scenario selects: total
  run energy, area, or access time.

Everything returns plain JSON-ready dicts, carried on
:attr:`repro.core.request.ExplorationReport.scenario`; baseline
scenarios (LRU, single level, no cost model) produce no section at
all, keeping pre-scenario reports byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.config import ReplacementKind
from repro.cache.simulator import miss_stream
from repro.core import engines as _engines
from repro.core.instance import CacheInstance, ExplorationResult
from repro.scenario.spec import ScenarioSpec
from repro.trace.trace import Trace

#: Ranking key per cost model, over `repro.explore.selection.CostedInstance`.
_COST_KEYS = {
    "energy": lambda c: c.run_energy,
    "area": lambda c: c.estimate.area_bits,
    "time": lambda c: c.estimate.access_time,
}


def explore_second_level(
    trace: Trace,
    l1: CacheInstance,
    budget: int,
    spec: ScenarioSpec,
    recorder=None,
    store=None,
) -> Dict:
    """Re-explore one L1 winner's miss stream at L2 granularity.

    The L1 is simulated under the scenario's replacement policy (the
    same policy the exploration answered for), its miss stream captured
    at L1-line granularity, and the stream explored with the scenario's
    policy engine bounded at ``l2_depth`` — exactly what an L2 behind
    this L1 would see, per :mod:`repro.cache.multilevel`.
    """
    config = l1.to_config(replacement=ReplacementKind(spec.policy))
    stream, l1_result = miss_stream(trace, config)
    explorer = _engines.policy_explorer(
        spec.policy,
        stream,
        max_depth=spec.l2_depth,
        engine=spec.engine,
        prelude=spec.prelude,
        recorder=recorder,
        store=store,
    )
    result = explorer.explore(budget)
    return {
        "budget": budget,
        "l1": {"depth": l1.depth, "associativity": l1.associativity},
        "l1_cold_misses": l1_result.cold_misses,
        "l1_non_cold_misses": l1_result.non_cold_misses,
        "miss_trace_name": stream.name,
        "miss_trace_length": len(stream),
        "result": result.to_json_dict(),
    }


def cost_ranking(
    explorer,
    result: ExplorationResult,
    model: str,
    address_bits: int,
) -> Dict:
    """Rank one budget's instances by the selected cost model."""
    from repro.explore.selection import cost_exploration

    key = _COST_KEYS[model]
    costed = sorted(
        cost_exploration(explorer, result, address_bits=address_bits), key=key
    )
    return {
        "budget": result.budget,
        "designs": [
            {
                "depth": c.instance.depth,
                "associativity": c.instance.associativity,
                "size_words": c.size_words,
                "non_cold_misses": c.non_cold_misses,
                "area_bits": c.estimate.area_bits,
                "access_energy": c.estimate.access_energy,
                "access_time": c.estimate.access_time,
                "run_energy": c.run_energy,
                "cost": key(c),
            }
            for c in costed
        ],
    }


def scenario_extras(
    trace: Trace,
    spec: ScenarioSpec,
    budgets: Sequence[int],
    results: Sequence[ExplorationResult],
    explorer,
    recorder=None,
    store=None,
) -> Optional[Dict]:
    """The report's ``scenario`` section, or ``None`` for the baseline.

    ``results`` must align with ``budgets`` (one L1 exploration per
    budget, percent budgets already resolved).
    """
    if spec.is_baseline():
        return None
    extras: Dict[str, object] = {
        "policy": spec.policy,
        "levels": spec.levels,
    }
    if spec.l2_depth is not None:
        entries: List[Dict] = []
        # One miss-stream simulation per distinct winner, not per budget.
        cache: Dict[Tuple[int, int, int], Dict] = {}
        for budget, result in zip(budgets, results):
            winner = result.smallest()
            if winner is None:
                continue
            key = (winner.depth, winner.associativity, budget)
            if key not in cache:
                cache[key] = explore_second_level(
                    trace,
                    winner,
                    budget,
                    spec,
                    recorder=recorder,
                    store=store,
                )
            entries.append(cache[key])
        extras["l2"] = {"l2_depth": spec.l2_depth, "explorations": entries}
    if spec.cost_model is not None:
        extras["cost"] = {
            "model": spec.cost_model,
            "rankings": [
                cost_ranking(
                    explorer,
                    result,
                    spec.cost_model,
                    address_bits=trace.address_bits,
                )
                for result in results
            ],
        }
    return extras
