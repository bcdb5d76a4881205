"""The differential oracle grid: every engine x prelude x store warmth.

One corpus trace is run through every cell of the grid — each registered
histogram engine, under each prelude builder mode, both cold (no
artifact store) and warm (against a pre-populated store, so the codec
round-trip and the histogram short-circuit are on the tested path).  All
cells must produce *bit-identical* exploration results; the reference
cell (``serial`` engine, ``python`` prelude, cold) is additionally
checked against the cache simulator: every emitted ``(D, A)`` instance
must achieve exactly its predicted non-cold miss count, stay within the
budget, and be minimal (one associativity step below must exceed the
budget) — the paper's exactness claim, miss for miss.

A ``tamper`` hook lets the test suite corrupt a chosen cell's output to
prove the oracle catches (and the shrinker minimizes) an injected fault.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core import engines as _engines
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import ExplorationResult
from repro.core.validation import check_minimality, validate_instances
from repro.trace.trace import Trace

#: Every other cell is compared bit-for-bit against this one.
REFERENCE_CELL: "GridCell"

#: Tamper hook signature: receives the cell and the result it produced,
#: returns the (possibly corrupted) result to feed the comparison.
Tamper = Callable[["GridCell", ExplorationResult], ExplorationResult]


@dataclass(frozen=True)
class GridCell:
    """One oracle configuration: engine x prelude mode x store warmth."""

    engine: str
    prelude: str
    warmth: str  # "cold" | "warm"

    def label(self) -> str:
        return f"{self.engine}/{self.prelude}/{self.warmth}"


REFERENCE_CELL = GridCell("serial", "python", "cold")


def grid_cells(
    engines: Optional[Sequence[str]] = None,
    preludes: Optional[Sequence[str]] = None,
    include_warm: bool = True,
) -> Tuple[GridCell, ...]:
    """Enumerate the oracle grid, reference cell first.

    Defaults to every registered engine and every prelude mode; the
    reference cell is always present even when a subset is requested,
    because every comparison is against it.
    """
    # dict.fromkeys: aliases of one engine make one cell, not several.
    engine_list = tuple(
        dict.fromkeys(
            _engines.canonical_name(e)
            for e in (engines or _engines.engine_names(include_auto=False))
        )
    )
    prelude_list = tuple(preludes or _engines.PRELUDE_MODES)
    for prelude in prelude_list:
        if prelude not in _engines.PRELUDE_MODES:
            raise ValueError(
                f"unknown prelude mode {prelude!r}; "
                f"expected one of {_engines.PRELUDE_MODES}"
            )
    warmths = ("cold", "warm") if include_warm else ("cold",)
    cells: List[GridCell] = [REFERENCE_CELL]
    for warmth in warmths:
        for engine in engine_list:
            for prelude in prelude_list:
                cell = GridCell(engine, prelude, warmth)
                if cell != REFERENCE_CELL:
                    cells.append(cell)
    return tuple(cells)


@dataclass(frozen=True)
class Divergence:
    """One oracle failure.

    Attributes:
        kind: ``"grid"`` (cells disagree), ``"simulator"`` (analytical
            prediction != simulated misses or budget exceeded),
            ``"minimality"`` (one associativity step below still meets
            the budget — the emitted A was not minimal), ``"stream"``
            (an incremental session fed the trace in chunks diverged
            from the batch engine on the concatenated trace) or
            ``"policy"`` (a policy engine's per-cell prediction diverged
            from the simulator under that replacement policy).
        cell: label of the diverging cell (grid failures only).
        budget: the miss budget the failing exploration ran at.
        detail: human-readable description of the mismatch.
    """

    kind: str
    detail: str
    cell: Optional[str] = None
    budget: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "cell": self.cell,
            "budget": self.budget,
        }


@dataclass
class GridOutcome:
    """Everything one trace's pass through the oracle grid produced."""

    trace_name: str
    budgets: Tuple[int, ...]
    cells_run: int
    divergences: List[Divergence] = field(default_factory=list)
    reference: Tuple[ExplorationResult, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.divergences


def result_signature(
    results: Sequence[ExplorationResult],
) -> Tuple[Tuple[int, Tuple[Tuple[int, int, int], ...]], ...]:
    """Canonical, comparable form of a per-budget result sequence."""
    return tuple(
        (
            result.budget,
            tuple(
                (inst.depth, inst.associativity, misses)
                for inst, misses in zip(result.instances, result.misses)
            ),
        )
        for result in results
    )


def _run_cell(
    trace: Trace,
    budgets: Sequence[int],
    cell: GridCell,
    store,
    tamper: Optional[Tamper],
) -> List[ExplorationResult]:
    explorer = AnalyticalCacheExplorer(
        trace,
        engine=cell.engine,
        prelude=cell.prelude,
        store=store,
    )
    results = []
    for budget in budgets:
        result = explorer.explore(budget)
        if tamper is not None:
            result = tamper(cell, result)
        results.append(result)
    return results


def _simulator_divergences(
    trace: Trace, results: Sequence[ExplorationResult]
) -> List[Divergence]:
    """Check the reference results against the cache simulator."""
    divergences: List[Divergence] = []
    for result in results:
        for record in validate_instances(trace, result):
            if not record.exact:
                divergences.append(
                    Divergence(
                        kind="simulator",
                        budget=result.budget,
                        detail=(
                            f"{record.instance}: predicted "
                            f"{record.predicted_misses} non-cold misses, "
                            f"simulated {record.simulated.non_cold_misses}"
                        ),
                    )
                )
            elif not record.within_budget:
                divergences.append(
                    Divergence(
                        kind="simulator",
                        budget=result.budget,
                        detail=(
                            f"{record.instance}: simulated "
                            f"{record.simulated.non_cold_misses} non-cold "
                            f"misses exceeds budget {result.budget}"
                        ),
                    )
                )
        for record in check_minimality(trace, result):
            if not record.minimal:
                divergences.append(
                    Divergence(
                        kind="minimality",
                        budget=result.budget,
                        detail=(
                            f"{record.instance}: A-1="
                            f"{record.instance.associativity - 1} still "
                            f"meets the budget (simulated "
                            f"{record.misses_below} <= {record.budget})"
                        ),
                    )
                )
    return divergences


def random_chunk_splits(
    n: int, splits: int, seed: int
) -> List[List[Tuple[int, int]]]:
    """Seeded random chunkings of ``range(n)``: lists of (start, stop).

    Always includes the two boundary chunkings — one chunk per reference
    (maximal append count) and a lone whole-trace chunk — then ``splits``
    seeded random cuts.  Deterministic in ``(n, splits, seed)``.
    """
    if n == 0:
        return [[]]
    chunkings: List[List[Tuple[int, int]]] = [
        [(i, i + 1) for i in range(n)],
        [(0, n)],
    ]
    rng = random.Random((seed << 16) ^ n)
    for _ in range(max(0, splits)):
        cut_count = rng.randrange(1, min(n, 8) + 1)
        cuts = sorted(rng.sample(range(1, n + 1), cut_count) + [0, n])
        chunking = [
            (start, stop)
            for start, stop in zip(cuts, cuts[1:])
            if stop > start
        ]
        chunkings.append(chunking)
    return chunkings


def stream_divergences(
    trace: Trace,
    budgets: Sequence[int] = (0,),
    seed: int = 0,
    splits: int = 2,
) -> List[Divergence]:
    """The append-equivalence oracle: chunked sessions == batch engines.

    Feeds the trace to a :class:`repro.stream.TraceSession` under a
    seeded set of random chunk splits (plus the one-reference-per-append
    and single-append boundary chunkings) and requires, for every split:
    histograms after the final append bit-identical to the batch
    ``vectorized`` engine on the concatenated trace (``serial`` when
    NumPy is absent — the two are themselves differentially tested), and
    identical ``(D, A)`` answers at every budget.
    """
    from repro.core.postlude import optimal_pairs
    from repro.core.vectorized import numpy_available
    from repro.stream import TraceSession

    engine = "vectorized" if numpy_available() else "serial"
    inputs = _engines.EngineInputs(trace)
    batch = _engines.compute_histograms(engine, inputs)
    batch_counts = {level: dict(h.counts) for level, h in batch.items()}
    batch_answers = {
        budget: optimal_pairs(batch, budget) for budget in budgets
    }

    divergences: List[Divergence] = []
    addresses = list(trace.addresses)
    for chunking in random_chunk_splits(len(trace), splits, seed):
        session = TraceSession(trace.address_bits)
        for start, stop in chunking:
            session.append(addresses[start:stop])
        streamed = session.histograms()
        streamed_counts = {
            level: dict(h.counts) for level, h in streamed.items()
        }
        label = f"{len(chunking)} chunks"
        if streamed_counts != batch_counts:
            diff_levels = sorted(
                level
                for level in set(batch_counts) | set(streamed_counts)
                if batch_counts.get(level) != streamed_counts.get(level)
            )
            divergences.append(
                Divergence(
                    kind="stream",
                    cell=f"stream/{label}",
                    detail=(
                        f"session histograms diverge from batch {engine} "
                        f"at levels {diff_levels} after {label}"
                    ),
                )
            )
            continue
        for budget in budgets:
            answers = session.explore(budget)
            if answers != batch_answers[budget]:
                divergences.append(
                    Divergence(
                        kind="stream",
                        cell=f"stream/{label}",
                        budget=budget,
                        detail=(
                            f"session (D, A) answers diverge from batch "
                            f"{engine} at budget {budget} after {label}"
                        ),
                    )
                )
    return divergences


def policy_divergences(
    trace: Trace,
    budgets: Sequence[int] = (0,),
    policies: Sequence[str] = ("fifo",),
) -> List[Divergence]:
    """The policy oracle: policy engines == the simulator, cell by cell.

    For each requested non-LRU policy, *every* ``(D, A)`` cell the
    engine can answer — all report depths, associativities from 1 to one
    past the zero-miss bound — must match the cache simulator's non-cold
    miss count under that replacement policy bit for bit (the hybrid
    engine's exactness claim: analytical where exact, simulated
    elsewhere, never approximated).  Every instance the engine emits at
    each budget must also stay within budget and be minimal under the
    policy simulator.
    """
    from repro.cache.config import CacheConfig, ReplacementKind
    from repro.cache.simulator import simulate_trace

    divergences: List[Divergence] = []
    for policy in policies:
        if policy == "lru":
            continue  # LRU is the reference pipeline, covered above
        explorer = _engines.policy_explorer(policy, trace)
        replacement = ReplacementKind(policy)

        def measure(depth: int, assoc: int) -> int:
            config = CacheConfig(
                depth=depth,
                associativity=assoc,
                line_words=1,
                replacement=replacement,
            )
            return simulate_trace(trace, config).non_cold_misses

        label = f"policy/{policy}"
        for level in range(explorer.report_level + 1):
            depth = 1 << level
            zero = explorer.zero_miss_associativity(depth)
            for assoc in range(1, zero + 2):
                predicted = explorer.misses(depth, assoc)
                simulated = measure(depth, assoc)
                if predicted != simulated:
                    divergences.append(
                        Divergence(
                            kind="policy",
                            cell=label,
                            detail=(
                                f"(D={depth}, A={assoc}): {policy} engine "
                                f"predicts {predicted} non-cold misses, "
                                f"simulator measured {simulated}"
                            ),
                        )
                    )
        for budget in budgets:
            result = explorer.explore(budget)
            for inst, misses in zip(result.instances, result.misses):
                if misses > budget:
                    divergences.append(
                        Divergence(
                            kind="policy",
                            cell=label,
                            budget=budget,
                            detail=(
                                f"{inst}: {misses} non-cold misses "
                                f"exceeds budget {budget}"
                            ),
                        )
                    )
                if inst.associativity > 1:
                    below = measure(inst.depth, inst.associativity - 1)
                    if below <= budget:
                        divergences.append(
                            Divergence(
                                kind="policy",
                                cell=label,
                                budget=budget,
                                detail=(
                                    f"{inst}: A-1="
                                    f"{inst.associativity - 1} still meets "
                                    f"the budget under {policy} (simulated "
                                    f"{below} <= {budget})"
                                ),
                            )
                        )
    return divergences


def run_grid(
    trace: Trace,
    budgets: Sequence[int],
    cells: Optional[Sequence[GridCell]] = None,
    tamper: Optional[Tamper] = None,
    simulate: bool = True,
    recorder=None,
    stream_splits: int = 2,
    stream_seed: int = 0,
    policies: Sequence[str] = (),
) -> GridOutcome:
    """Run one trace through the oracle grid.

    Args:
        trace: the trace under test.
        budgets: absolute miss budgets to explore in every cell.
        cells: grid cells (default: the full grid); the reference cell
            is run first and must be present (``grid_cells`` guarantees
            it).
        tamper: optional fault-injection hook (tests only).
        simulate: also cross-check the reference results against the
            cache simulator (exactness + budget + minimality).
        recorder: optional :class:`repro.obs.Recorder`; cell counts land
            in its counters.
        stream_splits: random chunk splits for the append-equivalence
            oracle (:func:`stream_divergences`); ``-1`` skips the
            stream check entirely (0 still runs the boundary
            chunkings).
        stream_seed: seed for the random chunk splits.
        policies: non-LRU replacement policies to run through the
            policy oracle (:func:`policy_divergences`); empty skips it.
    """
    cell_list = tuple(cells) if cells is not None else grid_cells()
    if not cell_list or cell_list[0] != REFERENCE_CELL:
        cell_list = (REFERENCE_CELL,) + tuple(
            c for c in cell_list if c != REFERENCE_CELL
        )
    outcome = GridOutcome(
        trace_name=trace.name, budgets=tuple(budgets), cells_run=0
    )
    reference_signature = None
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        store = None
        if any(cell.warmth == "warm" for cell in cell_list):
            from repro.store import ArtifactStore

            store = ArtifactStore(tmp)
            # Pre-populate so every warm cell genuinely warm-starts: the
            # priming run is reference-configured and not a grid cell.
            _run_cell(trace, budgets, REFERENCE_CELL, store, tamper=None)
        for cell in cell_list:
            cell_store = store if cell.warmth == "warm" else None
            results = _run_cell(trace, budgets, cell, cell_store, tamper)
            outcome.cells_run += 1
            signature = result_signature(results)
            if cell == REFERENCE_CELL:
                reference_signature = signature
                outcome.reference = tuple(results)
                continue
            if signature != reference_signature:
                outcome.divergences.append(
                    Divergence(
                        kind="grid",
                        cell=cell.label(),
                        detail=(
                            f"cell {cell.label()} disagrees with "
                            f"{REFERENCE_CELL.label()}: {signature!r} != "
                            f"{reference_signature!r}"
                        ),
                    )
                )
    if simulate and outcome.reference:
        outcome.divergences.extend(
            _simulator_divergences(trace, outcome.reference)
        )
    if stream_splits >= 0:
        outcome.divergences.extend(
            stream_divergences(
                trace, budgets, seed=stream_seed, splits=stream_splits
            )
        )
    if policies:
        outcome.divergences.extend(
            policy_divergences(trace, budgets, policies=policies)
        )
    if recorder is not None:
        recorder.count("verify_cells", outcome.cells_run)
        recorder.count("verify_budgets", len(outcome.budgets))
        if outcome.divergences:
            recorder.count("verify_divergences", len(outcome.divergences))
    return outcome
