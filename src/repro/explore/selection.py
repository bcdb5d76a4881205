"""Cost-aware selection among budget-satisfying cache instances.

The analytical explorer answers "which (D, A) meet the miss budget";
a designer then picks one by hardware cost — the area/energy/latency
trade the paper's introduction frames.  This module attaches
:mod:`repro.analysis.hwmodel` estimates to exploration results and
ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.analysis.hwmodel import HardwareEstimate, estimate_hardware
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import CacheInstance, ExplorationResult
from repro.core.linesize import LineSweepResult
from repro.explore.pareto import pareto_filter


@dataclass(frozen=True)
class CostedInstance:
    """A cache instance with its hardware cost attached.

    Attributes:
        instance: the (D, A) pair.
        line_words: line size (1 for the paper's fixed-line space).
        estimate: normalized area/energy/latency estimate.
        non_cold_misses: analytical miss count at this point.
        run_energy: total dynamic energy of replaying the whole trace
            (accesses + refill traffic), normalized units.
    """

    instance: CacheInstance
    line_words: int
    estimate: HardwareEstimate
    non_cold_misses: int
    run_energy: float

    @property
    def size_words(self) -> int:
        """Capacity in words, line size included."""
        return self.instance.size_words * self.line_words


def cost_exploration(
    explorer: AnalyticalCacheExplorer,
    result: ExplorationResult,
    address_bits: int = 32,
) -> List[CostedInstance]:
    """Attach hardware costs to a one-word-line exploration result."""
    if not result.misses:
        raise ValueError("result carries no miss counts")
    accesses = len(explorer.trace)
    cold = explorer.statistics.n_unique
    costed: List[CostedInstance] = []
    for instance, misses in zip(result.instances, result.misses):
        estimate = estimate_hardware(instance.to_config(), address_bits)
        costed.append(
            CostedInstance(
                instance=instance,
                line_words=1,
                estimate=estimate,
                non_cold_misses=misses,
                run_energy=estimate.total_energy(accesses, misses + cold),
            )
        )
    return costed


def cost_line_sweep(
    sweep: LineSweepResult,
    accesses: int,
    address_bits: int = 32,
) -> List[CostedInstance]:
    """Attach hardware costs to every point of a line-size sweep."""
    if accesses < 0:
        raise ValueError("accesses must be non-negative")
    costed: List[CostedInstance] = []
    for point in sweep.instances:
        estimate = estimate_hardware(point.to_config(), address_bits)
        costed.append(
            CostedInstance(
                instance=point.instance,
                line_words=point.line_words,
                estimate=estimate,
                non_cold_misses=point.non_cold_misses,
                run_energy=estimate.total_energy(accesses, point.total_misses),
            )
        )
    return costed


def cheapest(
    costed: List[CostedInstance],
    key: Callable[[CostedInstance], float] = lambda c: c.run_energy,
) -> CostedInstance:
    """The minimum-cost instance under ``key`` (default: run energy)."""
    if not costed:
        raise ValueError("no instances to choose from")
    return min(costed, key=key)


def cost_pareto(costed: List[CostedInstance]) -> List[CostedInstance]:
    """Non-dominated set over (area, run energy, access time, misses)."""
    return pareto_filter(
        costed,
        lambda c: (
            c.estimate.area_bits,
            c.run_energy,
            c.estimate.access_time,
            float(c.non_cold_misses),
        ),
    )
