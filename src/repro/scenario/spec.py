"""The scenario contract: one frozen value for *how* to explore.

:class:`ScenarioSpec` holds the machinery knobs
(``engine``/``prelude``/``max_depth``/``include_depth_one``) together
with the policy-aware dimensions the scenario tier adds (replacement
``policy``, a second cache level via ``l2_depth``, a ``cost_model`` for
ranking) in one validated, hashable dataclass.  Every
:class:`repro.core.request.ExplorationRequest` carries exactly one; the
request's machinery attributes read through to it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import engines as _engines

#: Cost models a scenario can rank designs by: total dynamic energy of
#: replaying the trace, silicon area in bit-equivalents, or access time.
COST_MODELS = ("energy", "area", "time")


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, validated description of one exploration scenario.

    Attributes:
        engine: histogram engine name (see :mod:`repro.core.engines`).
        prelude: prelude builder mode: ``auto`` or its synonym
            ``fast`` (NumPy kernels, pure-Python fallbacks without
            NumPy), or ``python`` (the paper-faithful builders).  It is
            part of the request key, so ``fast`` stays distinct there.
        max_depth: deepest cache depth to report (power of two).
        include_depth_one: also report the fully associative depth-1
            column.
        policy: replacement policy to explore under — any name in
            :func:`repro.core.engines.policy_names` (``lru`` is the
            paper's fully analytical pipeline; ``fifo`` the DEW-style
            hybrid).
        l2_depth: when set, also explore a second cache level: the L1
            winner's recorded miss stream is re-explored with depths
            bounded by this power of two.  ``None`` means single-level.
        cost_model: when set, rank each budget's instances by hardware
            cost — one of :data:`COST_MODELS`.  ``None`` disables
            costing.
    """

    engine: str = _engines.AUTO_ENGINE
    prelude: str = "auto"
    max_depth: Optional[int] = None
    include_depth_one: bool = False
    policy: str = "lru"
    l2_depth: Optional[int] = None
    cost_model: Optional[str] = None

    def __post_init__(self) -> None:
        _engines.canonical_name(self.engine)  # fail fast on unknown names
        if self.prelude not in _engines.PRELUDE_MODES:
            raise ValueError(
                f"prelude must be one of {_engines.PRELUDE_MODES}, "
                f"got {self.prelude!r}"
            )
        if self.max_depth is not None and not _is_power_of_two(self.max_depth):
            raise ValueError(
                f"max_depth must be a power of two, got {self.max_depth}"
            )
        if self.policy not in _engines.policy_names():
            raise ValueError(
                f"policy must be one of {_engines.policy_names()}, "
                f"got {self.policy!r}"
            )
        if self.l2_depth is not None and not _is_power_of_two(self.l2_depth):
            raise ValueError(
                f"l2_depth must be a power of two, got {self.l2_depth}"
            )
        if self.cost_model is not None and self.cost_model not in COST_MODELS:
            raise ValueError(
                f"cost_model must be one of {COST_MODELS}, "
                f"got {self.cost_model!r}"
            )

    @property
    def levels(self) -> int:
        """Hierarchy depth: 2 when an L2 sweep is requested, else 1."""
        return 2 if self.l2_depth is not None else 1

    def is_baseline(self) -> bool:
        """True when the scenario adds nothing beyond the paper's space.

        A baseline scenario (LRU, single level, no cost model) produces
        byte-identical reports to pre-scenario releases — the report's
        ``scenario`` section is only emitted otherwise.
        """
        return (
            self.policy == "lru"
            and self.l2_depth is None
            and self.cost_model is None
        )

    def replace(self, **changes: object) -> "ScenarioSpec":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_json_dict(self) -> Dict:
        """The scenario's wire form (the ``/1.2`` request block)."""
        return {
            "policy": self.policy,
            "l2_depth": self.l2_depth,
            "cost_model": self.cost_model,
        }
