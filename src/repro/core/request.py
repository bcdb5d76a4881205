"""One entry point for every exploration shape the repo supports.

:class:`ExplorationRequest` is the single contract for an exploration:
what to explore (one trace, an application set, a line-size sweep), at
which budgets (absolute K's, the paper's percent-of-max-misses, or
both), and with which machinery.  The machinery (engine, prelude, depth
bounds) and the scenario dimensions (replacement policy, second level,
cost model) live in one :class:`~repro.scenario.ScenarioSpec`; the
request's ``engine``/``prelude``/... attributes read through to it.
:func:`explore_request` executes a request and returns an
:class:`ExplorationReport`.  The CLI, the serve daemon and the bench
harnesses all answer through it::

    from repro import ExplorationRequest, explore_request

    report = explore_request(
        ExplorationRequest.single(trace, percents=(5, 10, 15, 20))
    )
    for result in report.results:
        print(result.as_dict())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core import engines as _engines
from repro.core.instance import ExplorationResult
from repro.core.linesize import LineSizeExplorer, LineSweepResult
from repro.core.multi import MultiTraceExplorer, MultiTraceResult
from repro.obs.manifest import RunManifest
from repro.scenario.spec import ScenarioSpec
from repro.trace.trace import Trace

#: The exploration shapes a request can take.
MODES = ("single", "sum", "each", "linesize")

_DEFAULT_SCENARIO = ScenarioSpec()


def _scenario_from(
    scenario: Optional[ScenarioSpec], **keywords: object
) -> ScenarioSpec:
    """The one :class:`ScenarioSpec` a constructor's keywords describe.

    Machinery may be spelled as keywords or as a ``scenario``, not both:
    a scenario next to any non-default keyword is rejected.
    """
    if scenario is None:
        return ScenarioSpec(**keywords)
    spelled = [
        name
        for name, value in keywords.items()
        if value != getattr(_DEFAULT_SCENARIO, name)
    ]
    if spelled:
        names = ", ".join(repr(name) for name in spelled)
        raise ValueError(
            f"conflicting {names}: set them on the scenario or as "
            "keywords, not both"
        )
    return scenario


@dataclass(frozen=True, eq=False)
class ExplorationRequest:
    """A complete, validated description of one exploration.

    Attributes:
        traces: traces to analyze.  ``single`` and ``linesize`` modes
            take exactly one; ``sum``/``each`` take the application set.
        mode: one of :data:`MODES` — ``single`` (one trace, the paper's
            core algorithm), ``sum``/``each`` (application-set rules of
            :class:`repro.core.multi.MultiTraceExplorer`), ``linesize``
            (sweep line sizes via
            :class:`repro.core.linesize.LineSizeExplorer`).
        budgets: absolute miss budgets K to explore.
        percents: budgets given as percent of the trace's maximum
            non-cold misses (the paper's parameterization); resolved
            against the trace statistics and explored after ``budgets``.
            ``single`` mode only.
        line_sizes: line sizes for ``linesize`` mode.
        weights: per-trace weights for ``sum`` mode.
        recorder: optional :class:`repro.obs.Recorder` shared by every
            explorer the request spawns.
        store: optional :class:`repro.store.ArtifactStore` shared by
            every explorer the request spawns (warm-start).
        scenario: the :class:`repro.scenario.ScenarioSpec` describing
            *how* to explore — machinery (engine/prelude/depth bounds)
            plus the scenario dimensions (replacement policy, second
            level, cost model).  Every mode honours the machinery; the
            scenario dimensions are ``single`` mode only.

    Build via the mode-specific constructors (:meth:`single`,
    :meth:`multi`, :meth:`line_sweep`) rather than positionally.
    """

    traces: Tuple[Trace, ...]
    mode: str = "single"
    budgets: Tuple[int, ...] = ()
    percents: Tuple[float, ...] = ()
    line_sizes: Tuple[int, ...] = LineSizeExplorer.DEFAULT_LINE_SIZES
    weights: Optional[Tuple[int, ...]] = None
    recorder: Optional[object] = None
    store: Optional[object] = None
    scenario: ScenarioSpec = _DEFAULT_SCENARIO

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.traces:
            raise ValueError("at least one trace is required")
        if self.mode in ("single", "linesize") and len(self.traces) != 1:
            raise ValueError(
                f"mode {self.mode!r} takes exactly one trace, "
                f"got {len(self.traces)}"
            )
        if self.mode != "single" and self.percents:
            raise ValueError(
                "percent budgets are only defined for mode 'single' "
                "(they scale by one trace's max misses)"
            )
        if self.mode != "single" and self.include_depth_one:
            raise ValueError(
                "include_depth_one is only supported in mode 'single'"
            )
        if self.mode != "sum" and self.weights is not None:
            raise ValueError("weights only apply to mode 'sum'")
        if self.mode != "single" and not self.budgets:
            raise ValueError(f"mode {self.mode!r} needs at least one budget")
        if any(k < 0 for k in self.budgets):
            raise ValueError("budgets must be non-negative")
        if any(p < 0 for p in self.percents):
            raise ValueError("percents must be non-negative")
        if self.mode != "single" and not self.scenario.is_baseline():
            raise ValueError(
                "policy/l2_depth/cost_model scenarios are only supported "
                f"in mode 'single', not {self.mode!r}"
            )

    # -- scenario accessors -----------------------------------------------------

    @property
    def engine(self) -> str:
        """The scenario's histogram engine name."""
        return self.scenario.engine

    @property
    def prelude(self) -> str:
        """The scenario's prelude builder mode."""
        return self.scenario.prelude

    @property
    def max_depth(self) -> Optional[int]:
        """The scenario's deepest reported depth (``None`` = automatic)."""
        return self.scenario.max_depth

    @property
    def include_depth_one(self) -> bool:
        """Whether the scenario reports the depth-1 column."""
        return self.scenario.include_depth_one

    @property
    def policy(self) -> str:
        """The scenario's replacement policy."""
        return self.scenario.policy

    @property
    def l2_depth(self) -> Optional[int]:
        """The scenario's L2 depth bound (``None`` = single level)."""
        return self.scenario.l2_depth

    @property
    def cost_model(self) -> Optional[str]:
        """The scenario's cost model (``None`` = miss counts only)."""
        return self.scenario.cost_model

    # -- constructors -----------------------------------------------------------

    @classmethod
    def single(
        cls,
        trace: Trace,
        budget: Optional[int] = None,
        budgets: Sequence[int] = (),
        percent: Optional[float] = None,
        percents: Sequence[float] = (),
        max_depth: Optional[int] = None,
        include_depth_one: bool = False,
        engine: str = _engines.AUTO_ENGINE,
        prelude: str = "auto",
        recorder=None,
        store=None,
        policy: str = "lru",
        l2_depth: Optional[int] = None,
        cost_model: Optional[str] = None,
        scenario: Optional[ScenarioSpec] = None,
    ) -> "ExplorationRequest":
        """One-trace exploration at absolute and/or percent budgets.

        Pass a :class:`~repro.scenario.ScenarioSpec` via ``scenario``,
        or spell its fields as keywords (``engine``/``prelude``/
        ``policy``/``l2_depth``/``cost_model``/...) — not both.
        """
        all_budgets = tuple(budgets) + ((budget,) if budget is not None else ())
        all_percents = tuple(percents) + (
            (percent,) if percent is not None else ()
        )
        return cls(
            traces=(trace,),
            mode="single",
            budgets=all_budgets,
            percents=all_percents,
            recorder=recorder,
            store=store,
            scenario=_scenario_from(
                scenario,
                engine=engine,
                prelude=prelude,
                max_depth=max_depth,
                include_depth_one=include_depth_one,
                policy=policy,
                l2_depth=l2_depth,
                cost_model=cost_model,
            ),
        )

    @classmethod
    def multi(
        cls,
        traces: Sequence[Trace],
        budget: int,
        mode: str = "sum",
        weights: Optional[Sequence[int]] = None,
        max_depth: Optional[int] = None,
        engine: str = _engines.AUTO_ENGINE,
        recorder=None,
        store=None,
    ) -> "ExplorationRequest":
        """Application-set exploration (``sum`` or ``each`` rule)."""
        return cls(
            traces=tuple(traces),
            mode=mode,
            budgets=(budget,),
            weights=tuple(weights) if weights is not None else None,
            recorder=recorder,
            store=store,
            scenario=ScenarioSpec(engine=engine, max_depth=max_depth),
        )

    @classmethod
    def line_sweep(
        cls,
        trace: Trace,
        budget: int,
        line_sizes: Sequence[int] = LineSizeExplorer.DEFAULT_LINE_SIZES,
        max_depth: Optional[int] = None,
        engine: str = _engines.AUTO_ENGINE,
        recorder=None,
        store=None,
    ) -> "ExplorationRequest":
        """Line-size sweep at one budget."""
        return cls(
            traces=(trace,),
            mode="linesize",
            budgets=(budget,),
            line_sizes=tuple(line_sizes),
            recorder=recorder,
            store=store,
            scenario=ScenarioSpec(engine=engine, max_depth=max_depth),
        )


@dataclass
class ExplorationReport:
    """Everything one :func:`explore_request` call produced.

    Exactly one of the result collections is populated, matching the
    request's mode; :attr:`result` is the mode-agnostic "first answer"
    accessor.

    Attributes:
        mode: the request's mode, echoed.
        engine: the *resolved* concrete engine name (``auto`` decided).
        budgets: the absolute budgets explored, percent budgets resolved
            and appended in request order.
        results: per-budget results (``single`` mode).
        multi_results: per-budget set results (``sum``/``each``).
        line_sweeps: per-budget sweep results (``linesize``).
        store_stats: snapshot of the artifact store's counters after the
            run, when the request carried a store.
        scenario: the scenario extras section (JSON-ready dict from
            :func:`repro.scenario.runner.scenario_extras`) — policy,
            second-level explorations, cost rankings.  ``None`` for
            baseline scenarios, keeping pre-scenario reports (and
            ``/1``/``/1.1`` wire responses) byte-identical.
    """

    mode: str
    engine: str
    budgets: Tuple[int, ...]
    results: Tuple[ExplorationResult, ...] = ()
    multi_results: Tuple[MultiTraceResult, ...] = ()
    line_sweeps: Tuple[LineSweepResult, ...] = ()
    store_stats: Optional[Dict[str, int]] = None
    scenario: Optional[Dict] = None

    @property
    def result(self):
        """The first (often only) result, whatever the mode."""
        for collection in (self.results, self.multi_results, self.line_sweeps):
            if collection:
                return collection[0]
        return None

    def to_json_dict(self) -> Dict:
        """JSON-serializable summary of the whole report.

        Lossless: :meth:`from_json_dict` rebuilds an equal report, so
        the serve layer can ship reports over the wire.  The
        ``instances_list`` / per-sweep ``instances`` fields exist for
        that round-trip (the older map-shaped ``instances`` stays for
        human consumers and older readers).
        """
        payload: Dict[str, object] = {
            "mode": self.mode,
            "engine": self.engine,
            "budgets": list(self.budgets),
        }
        if self.results:
            payload["results"] = [r.to_json_dict() for r in self.results]
        if self.multi_results:
            payload["multi_results"] = [
                {
                    "mode": r.mode,
                    "budget": r.budget,
                    "instances": {
                        str(depth): assoc for depth, assoc in r.as_dict().items()
                    },
                    "instances_list": [
                        {"depth": inst.depth, "associativity": inst.associativity}
                        for inst in r.instances
                    ],
                    "misses_by_trace": {
                        name: list(misses)
                        for name, misses in r.misses_by_trace.items()
                    },
                }
                for r in self.multi_results
            ]
        if self.line_sweeps:
            payload["line_sweeps"] = [
                {
                    "budget": sweep.budget,
                    "trace_name": sweep.trace_name,
                    "by_line_words": {
                        str(line): result.to_json_dict()
                        for line, result in sweep.by_line_words.items()
                    },
                    "instances": [
                        {
                            "line_words": li.line_words,
                            "depth": li.instance.depth,
                            "associativity": li.instance.associativity,
                            "non_cold_misses": li.non_cold_misses,
                            "cold_misses": li.cold_misses,
                        }
                        for li in sweep.instances
                    ],
                }
                for sweep in self.line_sweeps
            ]
        if self.store_stats is not None:
            payload["store"] = dict(self.store_stats)
        if self.scenario is not None:
            payload["scenario"] = dict(self.scenario)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "ExplorationReport":
        """Rebuild a report from :meth:`to_json_dict` output.

        Raises:
            KeyError/TypeError/ValueError: on malformed payloads.
        """
        from repro.core.instance import CacheInstance
        from repro.core.linesize import LineInstance

        results = tuple(
            ExplorationResult.from_json_dict(entry)
            for entry in payload.get("results", ())
        )
        multi_results = []
        for entry in payload.get("multi_results", ()):
            if "instances_list" in entry:
                pairs = [
                    (int(item["depth"]), int(item["associativity"]))
                    for item in entry["instances_list"]
                ]
            else:  # older writers: the map preserves instance order
                pairs = [
                    (int(depth), int(assoc))
                    for depth, assoc in entry["instances"].items()
                ]
            multi_results.append(
                MultiTraceResult(
                    mode=str(entry["mode"]),
                    budget=int(entry["budget"]),
                    instances=[CacheInstance(d, a) for d, a in pairs],
                    misses_by_trace={
                        str(name): [int(m) for m in misses]
                        for name, misses in entry["misses_by_trace"].items()
                    },
                )
            )
        line_sweeps = []
        for entry in payload.get("line_sweeps", ()):
            by_line_words = {
                int(line): ExplorationResult.from_json_dict(result)
                for line, result in entry["by_line_words"].items()
            }
            instances = [
                LineInstance(
                    line_words=int(item["line_words"]),
                    instance=CacheInstance(
                        int(item["depth"]), int(item["associativity"])
                    ),
                    non_cold_misses=int(item["non_cold_misses"]),
                    cold_misses=int(item["cold_misses"]),
                )
                for item in entry.get("instances", ())
            ]
            line_sweeps.append(
                LineSweepResult(
                    budget=int(entry["budget"]),
                    by_line_words=by_line_words,
                    instances=instances,
                    trace_name=str(entry.get("trace_name", "")),
                )
            )
        store_stats = payload.get("store")
        scenario = payload.get("scenario")
        return cls(
            mode=str(payload["mode"]),
            engine=str(payload["engine"]),
            budgets=tuple(int(k) for k in payload["budgets"]),
            results=results,
            multi_results=tuple(multi_results),
            line_sweeps=tuple(line_sweeps),
            store_stats=dict(store_stats) if store_stats is not None else None,
            scenario=dict(scenario) if scenario is not None else None,
        )


def explore_request(request: ExplorationRequest) -> ExplorationReport:
    """Execute an :class:`ExplorationRequest` — the single entry point.

    Dispatches by mode to the explorer classes; a request answers
    exactly what the equivalent explorer calls answer (parity-tested).
    """
    if request.mode == "single":
        report = _run_single(request)
    elif request.mode in ("sum", "each"):
        report = _run_multi(request)
    else:
        report = _run_linesize(request)
    if request.store is not None:
        report.store_stats = request.store.stats.as_dict()
    return report


def request_manifest(
    request: ExplorationRequest, report: ExplorationReport
) -> RunManifest:
    """The run manifest of an executed request, from its recorder."""
    trace = request.traces[0]
    return RunManifest.from_recorder(
        request.recorder,
        engine=report.engine,
        requested_engine=request.scenario.engine,
        options={"mode": request.mode, "prelude": request.scenario.prelude},
        trace={
            "name": trace.name,
            "n": len(trace),
            "n_unique": trace.unique_count(),
            "address_bits": trace.address_bits,
        },
    )


def _run_single(request: ExplorationRequest) -> ExplorationReport:
    spec = request.scenario
    explorer = _engines.policy_explorer(
        spec.policy,
        request.traces[0],
        max_depth=spec.max_depth,
        engine=spec.engine,
        prelude=spec.prelude,
        recorder=request.recorder,
        store=request.store,
    )
    budgets = list(request.budgets)
    budgets.extend(
        explorer.statistics.budget(percent) for percent in request.percents
    )
    results = tuple(
        explorer.explore(k, include_depth_one=spec.include_depth_one)
        for k in budgets
    )
    report = ExplorationReport(
        mode=request.mode,
        engine=explorer.resolved_engine,
        budgets=tuple(budgets),
        results=results,
    )
    if not spec.is_baseline():
        from repro.scenario.runner import scenario_extras

        report.scenario = scenario_extras(
            request.traces[0],
            spec,
            tuple(budgets),
            results,
            explorer,
            recorder=request.recorder,
            store=request.store,
        )
    return report


def _run_multi(request: ExplorationRequest) -> ExplorationReport:
    spec = request.scenario
    multi = MultiTraceExplorer(
        list(request.traces),
        weights=list(request.weights) if request.weights is not None else None,
        max_depth=spec.max_depth,
        engine=spec.engine,
        prelude=spec.prelude,
        recorder=request.recorder,
        store=request.store,
    )
    explore = multi.explore_sum if request.mode == "sum" else multi.explore_each
    results = tuple(explore(k) for k in request.budgets)
    return ExplorationReport(
        mode=request.mode,
        engine=multi.explorers[0].resolved_engine,
        budgets=tuple(request.budgets),
        multi_results=results,
    )


def _run_linesize(request: ExplorationRequest) -> ExplorationReport:
    spec = request.scenario
    sweeper = LineSizeExplorer(
        request.traces[0],
        line_sizes=request.line_sizes,
        max_depth=spec.max_depth,
        engine=spec.engine,
        prelude=spec.prelude,
        recorder=request.recorder,
        store=request.store,
    )
    sweeps = tuple(sweeper.explore(k) for k in request.budgets)
    return ExplorationReport(
        mode=request.mode,
        engine=sweeper.explorer_for(sweeper.line_sizes[0]).resolved_engine,
        budgets=tuple(request.budgets),
        line_sweeps=sweeps,
    )
