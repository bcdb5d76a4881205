"""The verification runner: replay, fuzz, shrink, persist, report.

One :func:`run_verify` call executes the standing verification protocol:

1. **Replay** — the built-in regression entries and every crash artifact
   in the failure corpus go through the full oracle grid first, so known
   bugs are re-proven fixed before any new fuzzing happens.
2. **Fuzz** — corpus entries (paper example first, then boundary
   anchors, then the seeded random tail) run through the grid and the
   structural invariants, plus metamorphic laws (round-robin by default
   so every law is exercised across a run without doubling every
   trace's cost).
3. **Shrink** — any new failure is delta-debugged down to a minimal
   reproducer against a targeted re-check (just the diverging cell, or
   just the violated law — not the whole grid per shrink step).
4. **Persist** — shrunk reproducers are saved to the failure corpus so
   step 1 of every future run replays them.

Budgets are hard caps: a wall-clock deadline and/or a trace count; the
runner always finishes the entry in flight and then stops.  Counters
(traces, cells, divergences, shrink checks) land in the recorder, and
therefore in run manifests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.explorer import AnalyticalCacheExplorer
from repro.obs.recorder import NULL_RECORDER
from repro.trace.trace import Trace
from repro.verify.corpus import (
    CrashArtifact,
    load_corpus,
    regression_entries,
    save_crash,
)
from repro.verify.generators import CorpusEntry, corpus_stream
from repro.verify.invariants import (
    METAMORPHIC_LAWS,
    Violation,
    check_laws,
    structural_violations,
)
from repro.verify.oracle import (
    REFERENCE_CELL,
    Divergence,
    GridCell,
    Tamper,
    grid_cells,
    policy_divergences,
    run_grid,
    stream_divergences,
)
from repro.verify.shrink import shrink_trace

#: Verification report schema identifier.
REPORT_SCHEMA = "repro-verify-report/1"

#: Law scheduling modes.
LAW_MODES = ("rotate", "all", "none")


@dataclass(frozen=True)
class VerifyConfig:
    """Everything one verification run is parameterized by.

    Attributes:
        seed: corpus seed (fuzz tail is deterministic given it).
        max_traces: stop after this many traces (replay included).
        time_budget_s: wall-clock cap in seconds.
        engines: engine subset (default: all registered).
        preludes: prelude-mode subset (default: all).
        include_warm: run the warm-store half of the grid.
        laws: ``"rotate"`` (one metamorphic law per trace, round-robin),
            ``"all"`` (every law on every trace) or ``"none"``.
        policies: non-LRU replacement policies to run through the
            policy oracle on every trace (empty skips the axis).
        corpus_dir: failure-corpus directory; ``None`` disables both
            replay-from-disk and persistence.
        shrink: minimize new failures before persisting.
        max_shrink_checks: predicate-evaluation cap per shrink.
        fail_fast: stop at the first failure.
    """

    seed: int = 0
    max_traces: Optional[int] = None
    time_budget_s: Optional[float] = None
    engines: Optional[Tuple[str, ...]] = None
    preludes: Optional[Tuple[str, ...]] = None
    include_warm: bool = True
    laws: str = "rotate"
    policies: Tuple[str, ...] = ()
    corpus_dir: Optional[str] = None
    shrink: bool = True
    max_shrink_checks: int = 300
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.laws not in LAW_MODES:
            raise ValueError(
                f"laws must be one of {LAW_MODES}, got {self.laws!r}"
            )
        from repro.core import engines as _engines

        for policy in self.policies:
            if policy not in _engines.policy_names():
                raise ValueError(
                    f"unknown policy {policy!r}; expected one of "
                    f"{_engines.policy_names()}"
                )
        if self.max_traces is not None and self.max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time_budget_s must be positive")


@dataclass
class VerifyFailure:
    """One failure, as it appears in the report."""

    entry: str
    kind: str
    detail: str
    budgets: Tuple[int, ...]
    cell: Optional[str] = None
    law: Optional[str] = None
    trace_len: int = 0
    shrunk_len: Optional[int] = None
    artifact: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "entry": self.entry,
            "kind": self.kind,
            "detail": self.detail,
            "budgets": list(self.budgets),
            "cell": self.cell,
            "law": self.law,
            "trace_len": self.trace_len,
            "shrunk_len": self.shrunk_len,
            "artifact": self.artifact,
        }


@dataclass
class VerifyReport:
    """Outcome of one :func:`run_verify` call."""

    seed: int
    elapsed_s: float
    traces: int
    cells: int
    corpus_replayed: int
    shrink_checks: int
    failures: List[VerifyFailure] = field(default_factory=list)
    grid: Tuple[str, ...] = ()
    stopped_by: str = "corpus-exhausted"

    @property
    def ok(self) -> bool:
        return not self.failures

    def counters(self) -> dict:
        """Counter totals, for run manifests (`verify` section)."""
        return {
            "verify_traces": self.traces,
            "verify_cells": self.cells,
            "verify_corpus_replayed": self.corpus_replayed,
            "verify_failures": len(self.failures),
            "verify_shrink_checks": self.shrink_checks,
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "ok": self.ok,
            "seed": self.seed,
            "elapsed_s": self.elapsed_s,
            "stopped_by": self.stopped_by,
            "grid": list(self.grid),
            "counters": self.counters(),
            "failures": [failure.as_dict() for failure in self.failures],
        }


def _parse_cell(label: str) -> GridCell:
    engine, prelude, warmth = label.split("/")
    return GridCell(engine, prelude, warmth)


def _make_recheck(
    kind: str,
    budgets: Sequence[int],
    cell: Optional[str],
    law: Optional[str],
    tamper: Optional[Tamper],
) -> Callable[[Trace], bool]:
    """A targeted failure re-check for the shrinker.

    Re-runs only what's needed to reproduce this failure kind: the
    diverging cell against the reference for grid failures, the
    reference cell plus simulator for simulator/minimality failures,
    the chunked-session comparison alone for stream failures, or the
    violated law alone for invariant failures.
    """
    if kind == "grid" and cell is not None:
        cells = (REFERENCE_CELL, _parse_cell(cell))

        def recheck(trace: Trace) -> bool:
            outcome = run_grid(
                trace,
                budgets,
                cells=cells,
                tamper=tamper,
                simulate=False,
                stream_splits=-1,
            )
            return any(d.kind == "grid" for d in outcome.divergences)

        return recheck
    if kind in ("simulator", "minimality"):

        def recheck(trace: Trace) -> bool:
            outcome = run_grid(
                trace,
                budgets,
                cells=(REFERENCE_CELL,),
                tamper=tamper,
                simulate=True,
                stream_splits=-1,
            )
            return any(d.kind == kind for d in outcome.divergences)

        return recheck
    if kind == "stream":

        def recheck(trace: Trace) -> bool:
            return bool(stream_divergences(trace, budgets))

        return recheck
    if kind == "policy" and cell is not None:
        policy = cell.split("/", 1)[1]

        def recheck(trace: Trace) -> bool:
            return any(
                d.kind == "policy"
                for d in policy_divergences(trace, budgets, policies=(policy,))
            )

        return recheck
    if kind == "invariant" and law is not None:
        if law in ("within-budget", "depth-monotone", "budget-monotone"):

            def recheck(trace: Trace) -> bool:
                explorer = AnalyticalCacheExplorer(
                    trace, engine="serial", prelude="python"
                )
                results = [explorer.explore(k) for k in budgets]
                return any(
                    v.law == law for v in structural_violations(results)
                )

            return recheck

        def recheck(trace: Trace) -> bool:
            return any(
                v.law == law for v in check_laws(trace, budgets, laws=(law,))
            )

        return recheck

    def recheck(trace: Trace) -> bool:  # unknown kind: keep as-is
        return False

    return recheck


def _law_names() -> Tuple[str, ...]:
    return tuple(name for name, _ in METAMORPHIC_LAWS)


def run_verify(
    config: VerifyConfig = VerifyConfig(),
    recorder=NULL_RECORDER,
    tamper: Optional[Tamper] = None,
) -> VerifyReport:
    """Execute one verification run; never raises on failures found."""
    start = time.monotonic()
    deadline = (
        start + config.time_budget_s
        if config.time_budget_s is not None
        else None
    )
    cells = grid_cells(
        engines=config.engines,
        preludes=config.preludes,
        include_warm=config.include_warm,
    )
    report = VerifyReport(
        seed=config.seed,
        elapsed_s=0.0,
        traces=0,
        cells=0,
        corpus_replayed=0,
        shrink_checks=0,
        grid=tuple(cell.label() for cell in cells),
    )
    law_names = _law_names()

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def out_of_traces() -> bool:
        return (
            config.max_traces is not None
            and report.traces >= config.max_traces
        )

    def handle_failures(
        entry: CorpusEntry,
        divergences: Sequence[Divergence],
        violations: Sequence[Violation],
    ) -> None:
        for divergence in divergences:
            _record_failure(
                entry,
                kind=divergence.kind,
                detail=divergence.detail,
                cell=divergence.cell,
                law=None,
                budgets=(
                    (divergence.budget,)
                    if divergence.budget is not None
                    else entry.budgets
                ),
            )
        for violation in violations:
            _record_failure(
                entry,
                kind="invariant",
                detail=violation.detail,
                cell=None,
                law=violation.law,
                budgets=(
                    (violation.budget,)
                    if violation.budget is not None
                    else entry.budgets
                ),
            )

    def _record_failure(
        entry: CorpusEntry,
        kind: str,
        detail: str,
        cell: Optional[str],
        law: Optional[str],
        budgets: Tuple[int, ...],
    ) -> None:
        failure = VerifyFailure(
            entry=entry.name,
            kind=kind,
            detail=detail,
            budgets=budgets,
            cell=cell,
            law=law,
            trace_len=len(entry.trace),
        )
        shrunk_trace = entry.trace
        if config.shrink and entry.origin != "corpus":
            recheck = _make_recheck(failure.kind, budgets, cell, law, tamper)
            with recorder.phase("verify:shrink"):
                shrunk = shrink_trace(
                    entry.trace,
                    recheck,
                    max_checks=config.max_shrink_checks,
                    deadline=deadline,
                    name=f"{entry.name}.shrunk",
                )
            report.shrink_checks += shrunk.checks
            recorder.count("verify_shrink_checks", shrunk.checks)
            if shrunk.checks and len(shrunk.trace) <= len(entry.trace):
                shrunk_trace = shrunk.trace
                failure.shrunk_len = len(shrunk.trace)
        if config.corpus_dir is not None and entry.origin != "corpus":
            artifact = CrashArtifact(
                kind=failure.kind,
                name=entry.name,
                trace=shrunk_trace,
                budgets=budgets,
                cell=cell,
                law=law,
                detail=detail,
                shrunk_from=(
                    len(entry.trace) if failure.shrunk_len is not None else None
                ),
                seed=config.seed,
            )
            failure.artifact = save_crash(config.corpus_dir, artifact)
            recorder.count("verify_crashes_saved")
        report.failures.append(failure)

    def process_entry(entry: CorpusEntry, entry_index: int) -> bool:
        """Run one entry; returns False when the run should stop."""
        outcome = run_grid(
            entry.trace,
            entry.budgets,
            cells=cells,
            tamper=tamper,
            simulate=True,
            recorder=recorder,
            policies=config.policies,
        )
        report.traces += 1
        report.cells += outcome.cells_run
        recorder.count("verify_traces")
        violations = list(structural_violations(outcome.reference))
        if config.laws == "all":
            chosen: Tuple[str, ...] = law_names
        elif config.laws == "rotate":
            chosen = (law_names[entry_index % len(law_names)],)
        else:
            chosen = ()
        if chosen:
            recorder.count("verify_law_checks", len(chosen))
            violations.extend(
                check_laws(entry.trace, entry.budgets, laws=chosen)
            )
        if outcome.divergences or violations:
            handle_failures(entry, outcome.divergences, violations)
            if config.fail_fast:
                report.stopped_by = "fail-fast"
                return False
        if out_of_time():
            report.stopped_by = "time-budget"
            return False
        if out_of_traces():
            report.stopped_by = "max-traces"
            return False
        return True

    # Phase 1: replay — the on-disk failure corpus first (known bugs are
    # re-proven fixed before anything else), then built-in regressions.
    replay: List[CorpusEntry] = []
    if config.corpus_dir is not None:
        replay.extend(a.as_entry() for a in load_corpus(config.corpus_dir))
    replay.extend(
        CorpusEntry(e.name, e.trace, e.budgets, origin="regression")
        for e in regression_entries()
    )
    running = True
    with recorder.phase("verify:replay"):
        for index, entry in enumerate(replay):
            report.corpus_replayed += 1
            recorder.count("verify_corpus_replayed")
            if not process_entry(entry, index):
                running = False
                break

    # Phase 2: fuzz — the generator corpus, paper example first.
    if running:
        with recorder.phase("verify:fuzz"):
            for index, entry in enumerate(corpus_stream(config.seed)):
                if (
                    config.max_traces is None
                    and deadline is None
                    and entry.origin == "fuzz"
                ):
                    # No budget at all: stop after the anchors to stay
                    # finite (the fuzz tail is unbounded by design).
                    report.stopped_by = "anchors-done"
                    break
                if not process_entry(entry, index):
                    break

    report.elapsed_s = time.monotonic() - start
    return report
