"""Budget sensitivity: how the optimal associativity responds to K.

The per-level histograms contain the *entire* K→A relationship, not
just its value at one budget: the minimum associativity at depth ``D``
drops from ``A`` to ``A - 1`` exactly when the budget reaches
``misses(D, A - 1)``.  This module extracts those breakpoints, giving
the designer the full trade-off curve ("how many extra misses buy a
cheaper cache?") for free after a single analytical run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.core.explorer import AnalyticalCacheExplorer
from repro.trace.trace import Trace


@dataclass(frozen=True)
class SensitivityStep:
    """One step of the K→A staircase at a fixed depth.

    Attributes:
        associativity: the minimal A on this budget interval.
        min_budget: smallest K for which this A suffices.
        max_budget: largest K before an even smaller A suffices
            (None for the final A = 1 step, which holds forever).
    """

    associativity: int
    min_budget: int
    max_budget: int = -1  # -1 encodes "unbounded" (dataclass default quirk)

    @property
    def unbounded(self) -> bool:
        """True for the terminal A=1 step."""
        return self.max_budget < 0


def _as_explorer(
    explorer: Union[AnalyticalCacheExplorer, Trace],
    engine: str = "auto",
    recorder=None,
    store=None,
) -> AnalyticalCacheExplorer:
    """Accept either an explorer or a raw trace (building one explorer)."""
    if isinstance(explorer, AnalyticalCacheExplorer):
        return explorer
    return AnalyticalCacheExplorer(
        explorer,
        engine=engine,
        recorder=recorder,
        store=store,
    )


def budget_sensitivity(
    explorer: Union[AnalyticalCacheExplorer, Trace],
    depth: int,
    engine: str = "auto",
    recorder=None,
    store=None,
) -> List[SensitivityStep]:
    """The K→A staircase for one depth, largest A first.

    The first step starts at K = 0 with ``A_zero``; each following step
    begins exactly at the miss count of the next-smaller associativity.
    Accepts a prepared :class:`AnalyticalCacheExplorer` or a raw
    :class:`~repro.trace.trace.Trace`; in the latter case an explorer is
    built with the given ``engine``/``recorder``/``store`` (so a
    sensitivity sweep can warm-start from the artifact cache).
    """
    if depth < 1 or (depth & (depth - 1)) != 0:
        raise ValueError(f"depth must be a power of two, got {depth}")
    explorer = _as_explorer(
        explorer,
        engine=engine,
        recorder=recorder,
        store=store,
    )
    # misses(A) for A = A_zero down to 1 gives the breakpoints directly.
    level = depth.bit_length() - 1
    histogram = explorer.histograms.get(level)
    if histogram is None or not histogram.counts:
        return [SensitivityStep(associativity=1, min_budget=0)]
    a_zero = histogram.zero_miss_associativity
    steps: List[SensitivityStep] = []
    lower = 0
    for assoc in range(a_zero, 0, -1):
        if assoc == 1:
            steps.append(SensitivityStep(associativity=1, min_budget=lower))
            break
        # A = assoc suffices from `lower` until the budget reaches the
        # miss count of assoc - 1, where the cheaper cache takes over.
        upper = histogram.misses(assoc - 1)
        if upper > lower:
            steps.append(
                SensitivityStep(
                    associativity=assoc, min_budget=lower, max_budget=upper - 1
                )
            )
            lower = upper
    return steps


def marginal_budget_for_cheaper_cache(
    explorer: Union[AnalyticalCacheExplorer, Trace],
    depth: int,
    budget: int,
    engine: str = "auto",
    recorder=None,
    store=None,
) -> int:
    """Extra misses needed before a smaller associativity suffices.

    Returns 0 when the current budget already admits A = 1.  Accepts an
    explorer or a raw trace, like :func:`budget_sensitivity`.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    steps = budget_sensitivity(
        explorer,
        depth,
        engine=engine,
        recorder=recorder,
        store=store,
    )
    for step in steps:
        if step.unbounded or budget <= step.max_budget:
            if step.min_budget <= budget:
                if step.associativity == 1:
                    return 0
                return step.max_budget + 1 - budget
    return 0
