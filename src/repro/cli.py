"""Command-line interface.

Subcommands::

    repro workloads [--scale S] [--extras]     run & verify the kernels
    repro emit NAME --kind inst|data|unified -o F   write a workload trace
    repro stats TRACE [TRACE ...]          Table 5/6-style statistics
    repro explore TRACE --budget K [--json]    analytical (D, A) exploration
    repro explore TRACE --percent P        ... with K = P% of max misses
    repro explore TRACE --budget K --engine E  ... with a specific engine
    repro explore TRACE --budget K --profile M.json  ... plus a run manifest
    repro profile TRACE [--engine E]       per-phase timing/memory telemetry
    repro engines                          list the histogram engines
    repro verify [--budget 60s]            differential fuzzing oracle
    repro cache stats|clear|prune          manage the artifact store
    repro simulate TRACE --depth D --assoc A   one cache simulation
    repro compare TRACE --budget K         analytical vs traditional DSE
    repro linesize TRACE --budget K        sweep line sizes (future work)
    repro compact TRACE -o OUT --filter-depth D   Puzak trace stripping
    repro robustness TRACE --budget K      LRU instances under FIFO/PLRU/random
    repro cost TRACE --budget K            CACTI-style cost ranking
    repro phases TRACE --budget K          per-phase optima vs static
    repro hierarchy TRACE --percent P      explore L2 behind a fixed L1
    repro conflicts TRACE --depth D        diagnose conflicting cache rows
    repro curves TRACE [-o csv]            miss curves as CSV
    repro disasm NAME                      disassemble a workload kernel
    repro report TRACE [-o report.md]      full markdown design report
    repro paper-example                    the paper's running example
    repro serve [--port P] [--workers W]   exploration daemon (HTTP/JSON)
    repro submit TRACE --budget K          send a request to the daemon
    repro stream TRACE --budget K          chunked/out-of-core exploration
    repro sweep SPEC [--plan]              benchmark farm over a sweep spec

Each subcommand is one row of the command table (:func:`_commands`):
its name, its help, the flag groups it takes and its handler.  A
handler reads nothing but the parsed ``args``.  :func:`main` runs it and
turns an ``OSError`` or ``ValueError`` into ``<command> failed:
<message>`` on stderr with exit code 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cache.config import CacheConfig, ReplacementKind
from repro.cache.simulator import simulate_trace
from repro.core.bcat import build_bcat
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.mrct import build_mrct, mrct_as_display_table
from repro.core.zerosets import build_zero_one_sets
from repro.trace.io import DEFAULT_CHUNK_REFS, read_trace, write_trace
from repro.trace.stats import compute_statistics
from repro.trace.strip import strip_trace
from repro.trace.trace import Trace

# -- shared helpers -------------------------------------------------------------


def _print_table(headers, rows, title: str = "") -> None:
    """Print one aligned text table (:func:`repro.analysis.tables.format_table`)."""
    from repro.analysis.tables import format_table

    print(format_table(headers, rows, title=title))


def _write(
    path: str, text: str, what: Optional[str] = None, stdout: bool = False
) -> None:
    """Write ``text`` to ``path``; say ``wrote {what} to {path}`` if ``what`` is set.

    The note goes to stderr, or to stdout with ``stdout=True`` (the
    commands whose only output is that file).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if what is not None:
        print(f"wrote {what} to {path}", file=sys.stdout if stdout else sys.stderr)


def _service_manifest(
    recorder, section: str, counters: dict, name: str, n: int, **fields
) -> str:
    """The run-manifest JSON of a verify, serve or sweep run.

    Such a run has no one trace, so the manifest's trace block carries
    no unique count or address width; ``counters`` land in the
    manifest's ``section`` (``verify``/``serve``/``sweep``).
    """
    from repro.obs import RunManifest

    manifest = RunManifest.from_recorder(
        recorder,
        trace={"name": name, "n": n, "n_unique": None, "address_bits": 0},
        **fields,
    )
    setattr(manifest, section, counters)
    return manifest.to_json() + "\n"


def _budget(args: argparse.Namespace, trace: Trace) -> int:
    """K from ``--budget K``, or ``--percent P`` of ``trace``'s max misses."""
    if args.budget is not None:
        return args.budget
    return compute_statistics(trace).budget(args.percent)


def _resolve_store(args: argparse.Namespace):
    """The artifact store a subcommand should use, or ``None``.

    Caching is opt-in: ``--cache-dir DIR`` on the command line, or the
    ``REPRO_CACHE_DIR`` environment variable; ``--no-cache`` wins over
    both.
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        import os

        cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(cache_dir)


def _scenario_from_args(args: argparse.Namespace):
    """Build the :class:`ScenarioSpec` a subcommand's flags describe."""
    from repro.scenario import ScenarioSpec

    return ScenarioSpec(
        engine=getattr(args, "engine", "auto"),
        prelude=getattr(args, "prelude", "auto"),
        max_depth=getattr(args, "max_depth", None) or None,
        include_depth_one=getattr(args, "include_depth_one", False),
        policy=args.policy,
        l2_depth=args.l2_depth,
        cost_model=args.cost_model,
    )


def _print_scenario_extras(extras: dict) -> None:
    """Render the L2/cost sections of a scenario report as tables."""
    l2 = extras.get("l2")
    if l2:
        for entry in l2["explorations"]:
            rows = [
                [i["depth"], i["associativity"], i["size_words"], i["misses"]]
                for i in entry["result"]["instances"]
            ]
            _print_table(
                ["Depth D", "Assoc A", "Size (words)", "Misses"],
                rows,
                title=(
                    f"L2 instances behind L1 "
                    f"(D={entry['l1']['depth']}, "
                    f"A={entry['l1']['associativity']}) "
                    f"at K={entry['budget']}"
                ),
            )
    cost = extras.get("cost")
    if cost:
        for ranking in cost["rankings"]:
            rows = [
                [
                    d["depth"],
                    d["associativity"],
                    d["size_words"],
                    d["non_cold_misses"],
                    f"{d['cost']:.6g}",
                ]
                for d in ranking["designs"]
            ]
            _print_table(
                ["Depth D", "Assoc A", "Size (words)", "Misses", "Cost"],
                rows,
                title=f"cost ranking ({cost['model']}) at K={ranking['budget']}",
            )


def _print_report(report, title: Optional[str] = None) -> None:
    """Render a report's results, set results, sweeps and scenario extras.

    Single-mode results are titled ``title``, or by their budget when
    ``title`` is ``None``.
    """
    for result in report.results:
        rows = [
            [inst.depth, inst.associativity, inst.size_words, misses]
            for inst, misses in zip(result.instances, result.misses)
        ]
        _print_table(
            ["Depth D", "Assoc A", "Size (words)", "Misses"],
            rows,
            title=title or f"optimal instances at K={result.budget}",
        )
    for multi in report.multi_results:
        rows = [
            [inst.depth, inst.associativity, inst.size_words]
            for inst in multi.instances
        ]
        _print_table(
            ["Depth D", "Assoc A", "Size (words)"],
            rows,
            title=f"set instances at K={multi.budget}",
        )
    for sweep in report.line_sweeps:
        rows = [
            [
                point.line_words,
                point.instance.depth,
                point.instance.associativity,
                point.non_cold_misses,
            ]
            for point in sweep.instances
        ]
        _print_table(
            ["Line", "Depth", "Assoc", "Misses"],
            rows,
            title=f"line-size sweep at K={sweep.budget}",
        )
    if report.scenario is not None:
        _print_scenario_extras(report.scenario)


def _parse_time_budget(text: Optional[str]) -> Optional[float]:
    """Parse a wall-clock budget: ``"90"``, ``"60s"``, ``"2m"``, ``"500ms"``."""
    if text is None:
        return None
    raw = text.strip().lower()
    scale = 1.0
    for suffix, factor in (("ms", 0.001), ("s", 1.0), ("m", 60.0), ("h", 3600.0)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            scale = factor
            break
    try:
        value = float(raw) * scale
    except ValueError:
        raise SystemExit(
            f"invalid time budget {text!r}; examples: 90, 60s, 2m"
        )
    if value <= 0:
        raise SystemExit(f"time budget must be positive, got {text!r}")
    return value


# -- handlers -------------------------------------------------------------------


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import list_workloads, run_workload_by_name

    rows = []
    for name in list_workloads(include_extras=args.extras):
        run = run_workload_by_name(name, scale=args.scale)
        rows.append(
            [
                name,
                run.machine.instructions_executed,
                len(run.instruction_trace),
                len(run.data_trace),
                f"{run.checksum:#010x}",
                "ok" if run.verified else "MISMATCH",
            ]
        )
    _print_table(
        ["Benchmark", "Instructions", "I-trace N", "D-trace N", "Checksum", "Verify"],
        rows,
        title=f"PowerStone-style workloads (scale={args.scale})",
    )
    return 0


def _cmd_emit(args: argparse.Namespace) -> int:
    from repro.workloads import run_workload_by_name

    run = run_workload_by_name(args.name, scale=args.scale)
    if args.kind == "inst":
        trace = run.instruction_trace
    elif args.kind == "data":
        trace = run.data_trace
    else:
        trace = run.machine.combined_trace(f"{args.name}.unified")
    write_trace(trace, args.output)
    print(f"wrote {len(trace)} references to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.tables import trace_stats_table

    stats = [compute_statistics(read_trace(path)) for path in args.traces]
    print(trace_stats_table(stats))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.core.request import ExplorationRequest, explore_request, request_manifest
    from repro.obs import NULL_RECORDER, Recorder

    spec = _scenario_from_args(args)
    recorder = Recorder(memory=True) if args.profile else NULL_RECORDER
    with recorder.phase("load-trace"):
        trace = read_trace(args.trace)
    request = ExplorationRequest.single(
        trace,
        budget=args.budget,
        percent=args.percent,
        recorder=recorder,
        store=_resolve_store(args),
        scenario=spec,
    )
    report = explore_request(request)
    if args.profile:
        manifest = request_manifest(request, report)
        _write(args.profile, manifest.to_json() + "\n", "run manifest")
    if args.json:
        import json

        document = report.results[0].to_json_dict()
        if report.scenario is not None:
            document["scenario"] = report.scenario
        print(json.dumps(document, indent=2))
        return 0
    policy_note = "" if spec.policy == "lru" else f", policy: {spec.policy}"
    print(
        f"trace {trace.name}: N={len(trace)} N'={trace.unique_count()} "
        f"(engine: {report.engine}{policy_note})"
    )
    print(f"miss budget K={report.budgets[0]} (beyond cold misses)")
    _print_report(report, title="optimal cache instances")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.request import ExplorationRequest, explore_request, request_manifest
    from repro.obs import Recorder

    recorder = Recorder(memory=not args.no_memory)
    with recorder.phase("load-trace"):
        trace = read_trace(args.trace)
    request = ExplorationRequest.single(
        trace,
        budget=args.budget,
        percent=args.percent if args.budget is None else None,
        engine=args.engine,
        prelude=args.prelude,
        recorder=recorder,
        store=_resolve_store(args),
    )
    report = explore_request(request)
    result = report.results[0]
    manifest = request_manifest(request, report)  # before printing: wall closes
    if args.json:
        print(manifest.to_json())
    else:
        print(
            f"trace {trace.name}: N={len(trace)} N'={trace.unique_count()} "
            f"K={result.budget} -> {len(result.instances)} instances "
            f"(engine: {manifest.engine})"
        )
        print(recorder.render())
        if recorder.memory_stats:
            pairs = ", ".join(
                f"{name}={value}"
                for name, value in sorted(recorder.memory_stats.items())
            )
            print(f"memory: {pairs}")
    if args.output:
        _write(args.output, manifest.to_json() + "\n", "run manifest")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from repro.core import engines

    rows = [
        [
            spec.name,
            "yes" if spec.available() else "no (NumPy missing)",
            spec.summary,
            spec.best_for,
        ]
        for spec in (engines.get_engine(n) for n in engines.engine_names(False))
    ]
    _print_table(
        ["Engine", "Available", "Summary", "Best for"],
        rows,
        title="histogram engines (all bit-identical)",
    )
    print("auto: 'vectorized' when NumPy is importable, else 'serial'")
    aliases = ", ".join(
        f"{alias} -> {target}" for alias, target in engines.ALIASES.items()
    )
    print(f"legacy names: {aliases}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.obs import NULL_RECORDER, Recorder
    from repro.verify import VerifyConfig, default_corpus_dir, run_verify

    max_traces = args.max_traces
    if args.smoke and max_traces is None and args.budget is None:
        # PR-lane preset: the full grid over a few traces.
        max_traces = 8
    corpus_dir = None
    if not args.no_corpus:
        corpus_dir = args.corpus_dir
        if corpus_dir is None:
            corpus_dir = default_corpus_dir()
    config = VerifyConfig(
        seed=args.seed,
        max_traces=max_traces,
        time_budget_s=_parse_time_budget(args.budget),
        engines=tuple(args.engines) if args.engines else None,
        preludes=tuple(args.preludes) if args.preludes else None,
        include_warm=not args.no_warm,
        laws=args.laws,
        policies=tuple(args.policies) if args.policies else (),
        corpus_dir=corpus_dir,
        shrink=not args.no_shrink,
        fail_fast=args.fail_fast,
    )
    recorder = Recorder() if args.profile else NULL_RECORDER
    report = run_verify(config, recorder=recorder)
    document = json.dumps(report.to_json_dict(), indent=2)
    if args.json:
        print(document)
    else:
        corpus_note = "" if corpus_dir is not None else " (no on-disk corpus)"
        print(
            f"verify: {report.traces} traces x {len(report.grid)} grid "
            f"cells ({report.cells} cell runs), "
            f"{report.corpus_replayed} replay entries{corpus_note}, "
            f"{report.elapsed_s:.1f}s ({report.stopped_by})"
        )
        if report.ok:
            print("all cells bit-identical; simulator and invariants agree")
        for failure in report.failures:
            where = failure.cell or failure.law or "-"
            shrunk = (
                f" (shrunk {failure.trace_len} -> {failure.shrunk_len} refs)"
                if failure.shrunk_len is not None
                else ""
            )
            saved = f" -> {failure.artifact}" if failure.artifact else ""
            print(
                f"FAIL [{failure.kind}] {failure.entry} @ {where}: "
                f"{failure.detail}{shrunk}{saved}"
            )
    if args.output:
        _write(args.output, document + "\n", "verify report")
    if args.profile:
        manifest = _service_manifest(
            recorder,
            "verify",
            report.counters(),
            name="verify-corpus",
            n=report.traces,
            engine="verify-grid",
            requested_engine="verify-grid",
            options={"seed": args.seed, "laws": args.laws},
        )
        _write(args.profile, manifest, "run manifest")
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store import DEFAULT_MAX_BYTES, ArtifactStore, default_cache_dir

    root = args.cache_dir or default_cache_dir()
    store = ArtifactStore(root, max_bytes=None)  # maintenance: no auto-evict
    if args.action == "stats":
        import json

        summary = store.describe()
        if args.json:
            print(json.dumps(summary, indent=2))
            return 0
        print(f"artifact store: {summary['root']}")
        print(f"entries: {summary['entries']}  bytes: {summary['bytes']}")
        for stage, info in summary["by_stage"].items():
            print(f"  {stage:<12s} {info['entries']:>6d} entries  {info['bytes']:>10d} bytes")
        if summary["quarantined"]:
            print(f"quarantined: {summary['quarantined']} corrupt entries")
        if summary["temp_files"]:
            print(
                f"temp files: {summary['temp_files']} ({summary['temp_bytes']} bytes)"
                " left by unfinished puts"
            )
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {root}")
        return 0
    # prune
    cap = DEFAULT_MAX_BYTES if args.max_bytes is None else args.max_bytes
    evicted = store.prune(cap)
    print(
        f"evicted {evicted} least-recently-used entries from {root} "
        f"(cap: {cap} bytes)"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    config = CacheConfig(
        depth=args.depth,
        associativity=args.assoc,
        line_words=args.line,
        replacement=ReplacementKind(args.replacement),
    )
    result = simulate_trace(trace, config)
    print(f"config: {config.describe()}")
    print(f"accesses:        {result.accesses}")
    print(f"hits:            {result.hits}")
    print(f"cold misses:     {result.cold_misses}")
    print(f"non-cold misses: {result.non_cold_misses}")
    print(f"miss rate:       {result.miss_rate:.4f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.explore.compare import compare_methods
    from repro.explore.space import DesignSpace

    trace = read_trace(args.trace)
    space = DesignSpace(
        min_depth=2,
        max_depth=args.max_depth or (1 << max(1, trace.address_bits - 1)),
        max_associativity=args.max_assoc,
    )
    budget = _budget(args, trace)
    comparison = compare_methods(trace, budget, space)
    print(f"budget K={budget}; agreement: {comparison.agreement()}")
    for problem in comparison.disagreements():
        print(f"  DISAGREEMENT: {problem}")
    rows = [
        ["analytical", "-", f"{comparison.analytical_seconds:.4f}"],
        [
            "exhaustive",
            comparison.exhaustive.simulations,
            f"{comparison.exhaustive.elapsed_seconds:.4f}",
        ],
        [
            "heuristic",
            comparison.heuristic.simulations,
            f"{comparison.heuristic.elapsed_seconds:.4f}",
        ],
    ]
    _print_table(["Method", "Simulations", "Seconds"], rows)
    print(
        f"speedup vs exhaustive: {comparison.speedup_vs_exhaustive:.1f}x, "
        f"vs heuristic: {comparison.speedup_vs_heuristic:.1f}x"
    )
    return 0


def _cmd_linesize(args: argparse.Namespace) -> int:
    from repro.core.request import ExplorationRequest, explore_request

    trace = read_trace(args.trace)
    request = ExplorationRequest.line_sweep(
        trace, _budget(args, trace), line_sizes=args.lines
    )
    sweep = explore_request(request).line_sweeps[0]
    rows = [
        [
            point.line_words,
            point.instance.depth,
            point.instance.associativity,
            point.size_words,
            point.non_cold_misses,
            point.traffic_words,
        ]
        for point in sweep.instances
    ]
    _print_table(
        ["Line", "Depth", "Assoc", "Words", "Misses", "Traffic"],
        rows,
        title=f"line-size sweep at K={sweep.budget}",
    )
    print(f"smallest: {sweep.smallest()}  least traffic: {sweep.least_traffic()}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.trace.compaction import compact_trace

    trace = read_trace(args.trace)
    result = compact_trace(trace, args.filter_depth)
    write_trace(result.trace, args.output)
    stats = result.stats
    print(
        f"stripped {stats.original_length} -> {stats.compacted_length} "
        f"references ({stats.reduction:.1%} removed); miss counts exact "
        f"for depths >= {stats.filter_depth}"
    )
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.core.request import ExplorationRequest, explore_request
    from repro.explore.policies import policy_robustness

    trace = read_trace(args.trace)
    request = ExplorationRequest.single(
        trace, budget=args.budget, percent=args.percent
    )
    result = explore_request(request).results[0]
    records = policy_robustness(trace, result)
    rows = []
    for record in records:
        cells = [str(record.instance), record.lru_misses]
        for policy in sorted(record.outcomes, key=lambda p: p.value):
            outcome = record.outcomes[policy]
            if not outcome.applicable:
                cells.append("n/a")
            else:
                marker = "" if outcome.non_cold_misses <= result.budget else " !"
                cells.append(f"{outcome.non_cold_misses}{marker}")
        rows.append(cells)
    policies = sorted(
        records[0].outcomes, key=lambda p: p.value
    ) if records else []
    _print_table(
        ["Instance", "LRU"] + [p.value for p in policies],
        rows,
        title=f"non-cold misses per policy at K={result.budget} (! = over budget)",
    )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.explore.selection import cheapest, cost_exploration, cost_pareto

    trace = read_trace(args.trace)
    explorer = AnalyticalCacheExplorer(trace)
    budget = _budget(args, trace)
    result = explorer.explore(budget)
    costed = cost_exploration(explorer, result, address_bits=trace.address_bits)
    front = cost_pareto(costed)
    rows = [
        [
            str(c.instance),
            f"{c.estimate.area_bits:.0f}",
            f"{c.run_energy:.0f}",
            f"{c.estimate.access_time:.2f}",
            c.non_cold_misses,
            "*" if c in front else "",
        ]
        for c in costed
    ]
    _print_table(
        ["Instance", "Area (bits)", "Run energy", "Latency", "Misses", "Pareto"],
        rows,
        title=f"hardware cost of K={budget} solutions (normalized units)",
    )
    print(f"min energy: {cheapest(costed).instance}")
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.explore.phases import explore_phases

    trace = read_trace(args.trace)
    budget = _budget(args, trace)
    outcome = explore_phases(trace, budget, phase_count=args.phases)
    static = outcome.static_result.as_dict()
    rows = []
    for depth in sorted(static):
        per_phase = outcome.phase_instances(depth)
        if any(a is None for a in per_phase):
            continue
        rows.append(
            [
                depth,
                static[depth],
                "/".join(str(a) for a in per_phase),
                outcome.reconfiguration_benefit(depth),
            ]
        )
    _print_table(
        ["Depth", "Static A", "Per-phase A", "Words saved"],
        rows,
        title=f"phase exploration: {args.phases} phases, K={budget} each",
    )
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.explore.hierarchy import HierarchyExplorer

    trace = read_trace(args.trace)
    l1 = CacheConfig(depth=args.l1_depth, associativity=args.l1_assoc)
    explorer = HierarchyExplorer(trace, l1)
    budget = _budget(args, explorer.miss_trace)
    outcome = explorer.explore(budget)
    print(
        f"L1 ({l1.describe()}): {outcome.l1_result.misses} misses "
        f"({outcome.l1_result.miss_rate:.1%}) -> L2 sees "
        f"{len(outcome.miss_trace)} accesses"
    )
    rows = [
        [inst.depth, inst.associativity, misses]
        for inst, misses in zip(
            outcome.l2_result.instances, outcome.l2_result.misses
        )
    ]
    _print_table(
        ["L2 depth", "L2 assoc", "L2 misses"],
        rows,
        title=f"optimal L2 instances at K={budget}",
    )
    return 0


def _cmd_conflicts(args: argparse.Namespace) -> int:
    from repro.analysis.conflicts import conflict_report

    trace = read_trace(args.trace)
    explorer = AnalyticalCacheExplorer(trace)
    rows = conflict_report(
        explorer, args.depth, associativity=args.assoc, top=args.top
    )
    if not rows:
        print(
            f"no conflicting rows at D={args.depth} A={args.assoc} - "
            "the cache is conflict-free for this trace"
        )
        return 0
    _print_table(
        ["Row", "Misses", "Refs", "Addresses"],
        [
            [
                r.row_index,
                r.misses,
                r.occupancy,
                ", ".join(f"{a:#x}" for a in r.addresses[:6])
                + ("..." if r.occupancy > 6 else ""),
            ]
            for r in rows
        ],
        title=f"top conflicting rows at D={args.depth} A={args.assoc}",
    )
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    from repro.analysis.curves import associativity_curve, capacity_curve
    from repro.analysis.export import curve_to_csv

    trace = read_trace(args.trace)
    explorer = AnalyticalCacheExplorer(trace)
    if args.depth:
        points = associativity_curve(explorer, args.depth)
        csv_text = curve_to_csv(points, x_name="associativity")
    else:
        max_capacity = args.max_capacity
        if not max_capacity:
            max_capacity = 2
            while max_capacity < 2 * explorer.stripped.n_unique:
                max_capacity *= 2
        points = capacity_curve(explorer, max_capacity=max_capacity)
        csv_text = curve_to_csv(points, x_name="capacity_words")
    if args.output:
        _write(args.output, csv_text, f"{len(points)} points", stdout=True)
    else:
        print(csv_text, end="")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.assembler import assemble
    from repro.workloads import get_workload

    workload = get_workload(args.name, scale=args.scale)
    program = assemble(workload.source, name=workload.name)
    print(f"; {workload.name}: {workload.description}")
    print(
        f"; {program.code_words} instructions, "
        f"{program.data_words} data words, "
        f"expected checksum {workload.expected:#010x}"
    )
    print(program.disassemble())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    trace = read_trace(args.trace)
    report = generate_report(trace, focus_percent=args.percent)
    if args.output:
        _write(args.output, report, "report", stdout=True)
    else:
        print(report)
    return 0


def _cmd_paper_example(args: argparse.Namespace) -> int:
    trace = Trace.from_bit_strings(
        [
            "1011", "1100", "0110", "0011", "1011",
            "0100", "1100", "0011", "1011", "0110",
        ],
        name="paper-table-1",
    )
    stripped = strip_trace(trace)
    print("Table 1 (original trace):", [f"{a:04b}" for a in trace])
    print(
        "Table 2 (stripped):",
        {i + 1: f"{a:04b}" for i, a in enumerate(stripped.unique_addresses)},
    )
    zerosets = build_zero_one_sets(stripped)
    print("Table 3 (zero/one sets):")
    for bit in range(zerosets.address_bits):
        zero = sorted(i + 1 for i in zerosets.zero_members(bit))
        one = sorted(i + 1 for i in zerosets.one_members(bit))
        print(f"  B{bit}: Z={zero} O={one}")
    mrct = build_mrct(stripped)
    print("Table 4 (MRCT):", mrct_as_display_table(mrct))
    print("Figure 3 (BCAT):")
    print(build_bcat(zerosets).render())
    explorer = AnalyticalCacheExplorer(trace)
    result = explorer.explore(0)
    print("Optimal pairs for K=0:", [str(i) for i in result])
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import ExploreServer, WorkerPool

    store = _resolve_store(args)
    store_root = str(store.root) if store is not None else None
    pool = WorkerPool(
        workers=args.workers, kind=args.pool, store_root=store_root
    )
    server = ExploreServer(pool, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"({args.pool} pool, {args.workers} workers, "
            f"store: {store_root or 'off'})",
            file=sys.stderr,
            flush=True,
        )
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("repro serve: draining...", file=sys.stderr, flush=True)
        await server.shutdown(drain=True, timeout=args.drain_timeout)
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)

    asyncio.run(run())
    if args.manifest_out:
        manifest = _service_manifest(
            server.recorder,
            "serve",
            server.counters(),
            name="serve",
            n=0,
            engine="serve",
            requested_engine="serve",
            options={
                "pool": args.pool,
                "workers": args.workers,
                "host": args.host,
                "port": args.port,
            },
        )
        _write(args.manifest_out, manifest, "serve manifest")
    print("repro serve: stopped", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.core.request import ExplorationRequest
    from repro.serve import ServeClient, ServeError

    request = ExplorationRequest(
        traces=tuple(read_trace(path) for path in args.traces),
        mode=args.mode,
        budgets=tuple(args.budget) if args.budget else (),
        percents=tuple(args.percent) if args.percent else (),
        scenario=_scenario_from_args(args),
    )
    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        report = client.explore(request)
    except ServeError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(report.to_json_dict(), indent=2))
        return 0
    print(
        f"mode {report.mode} via {args.host}:{args.port} "
        f"(engine: {report.engine})"
    )
    _print_report(report)
    return 0


def _cmd_stream_scenario(args: argparse.Namespace, spec) -> int:
    """Non-baseline scenarios need the whole trace resident.

    The streaming tier maintains online LRU conflict histograms only;
    FIFO simulation, miss-stream capture, and costing all replay the
    full reference sequence.  Fall back to a materialized exploration
    with a warning rather than silently answering the wrong question.
    """
    from repro.core.postlude import validate_max_level
    from repro.core.request import ExplorationRequest, explore_request

    print(
        f"stream: scenario (policy={spec.policy}, l2_depth={spec.l2_depth}, "
        f"cost_model={spec.cost_model}) requires the whole trace; "
        f"materializing {args.trace}",
        file=sys.stderr,
    )
    trace = read_trace(args.trace, address_bits=args.address_bits)
    if validate_max_level(args.max_level) is not None:
        # The streaming session's bound: no deeper than the address.
        level = min(args.max_level, trace.address_bits)
        spec = spec.replace(max_depth=1 << level)
    report = explore_request(
        ExplorationRequest.single(
            trace,
            budgets=args.budget or [0],
            store=_resolve_store(args),
            scenario=spec,
        )
    )

    if args.json:
        import json

        document = {
            "trace": args.trace,
            "address_bits": trace.address_bits,
            "total_refs": len(trace),
            "unique_refs": trace.unique_count(),
            "materialized": True,
            "results": {
                str(result.budget): result.to_json_dict()
                for result in report.results
            },
        }
        if report.scenario is not None:
            document["scenario"] = report.scenario
        print(json.dumps(document, indent=2))
        return 0

    print(
        f"stream {args.trace}: {len(trace)} refs "
        f"({trace.unique_count()} unique, {trace.address_bits} bits, "
        f"materialized, policy {spec.policy})"
    )
    _print_report(report)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.streaming import StreamDigest
    from repro.stream import TraceSession
    from repro.trace.io import iter_trace_chunks, probe_address_bits

    spec = _scenario_from_args(args)
    if not spec.is_baseline():
        return _cmd_stream_scenario(args, spec)

    bits = probe_address_bits(args.trace)
    if args.address_bits is not None:
        bits = args.address_bits
    if bits is None:
        raise ValueError(
            f"cannot probe the address width of {args.trace}; "
            "pass --address-bits"
        )
    if bits < 1:
        raise ValueError(f"address_bits must be >= 1, got {bits}")

    store = _resolve_store(args)
    budgets = args.budget if args.budget else [0]

    session = None
    resumed = False
    if store is not None:
        # Cheap digest-only pre-pass: decide whether a checkpoint
        # for the full sequence already exists before ingesting.
        digest = StreamDigest(bits)
        for chunk in iter_trace_chunks(args.trace, args.chunk_refs):
            digest.append(chunk)
        session = TraceSession.resume(
            store,
            digest.content_digest,
            max_level=args.max_level,
            name=args.trace,
        )
        resumed = session is not None
    if session is None:
        session = TraceSession(
            bits,
            max_level=args.max_level,
            store=store,
            name=args.trace,
        )
        for chunk in iter_trace_chunks(args.trace, args.chunk_refs):
            session.append(chunk)
        if store is not None:
            session.checkpoint()
    results = session.explore_many(
        budgets, include_depth_one=args.include_depth_one
    )

    if args.json:
        import json

        document = {
            "trace": args.trace,
            "address_bits": session.address_bits,
            "max_level": session.max_level,
            "total_refs": session.total_refs,
            "unique_refs": session.unique_refs,
            "digest": session.content_digest,
            "resumed": resumed,
            "results": {
                str(budget): [
                    {
                        "depth": inst.depth,
                        "associativity": inst.associativity,
                        "size_words": inst.size_words,
                    }
                    for inst in instances
                ]
                for budget, instances in results.items()
            },
        }
        print(json.dumps(document, indent=2))
        return 0

    warmth = "resumed from checkpoint" if resumed else "ingested"
    print(
        f"stream {args.trace}: {session.total_refs} refs "
        f"({session.unique_refs} unique, {session.address_bits} bits, "
        f"{warmth})"
    )
    for budget in budgets:
        rows = [
            [inst.depth, inst.associativity, inst.size_words]
            for inst in results[budget]
        ]
        _print_table(
            ["Depth D", "Assoc A", "Size (words)"],
            rows,
            title=f"optimal instances at K={budget}",
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import os
    import tempfile

    from repro.obs import Recorder
    from repro.sweep import (
        SweepScheduler,
        build_report,
        load_spec,
        plan_sweep,
        render_markdown,
    )

    spec = load_spec(args.spec)
    if args.tolerance is not None:
        spec = spec.replace(tolerance=args.tolerance)
    plan = plan_sweep(spec)

    if args.plan:
        print(plan.to_json())
        return 0

    store_root = None
    if not args.no_cache:
        store_root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    scratch = None
    try:
        if store_root is None and any(c.warmth == "warm" for c in plan.cells):
            # Warm cells without a shared store would silently measure
            # nothing; give the run a private store for its lifetime.
            scratch = tempfile.TemporaryDirectory(prefix="repro-sweep-")
            store_root = scratch.name
        scheduler = SweepScheduler(
            plan,
            kind=args.pool,
            workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            store_root=store_root,
        )
        recorder = Recorder()
        with recorder.phase("sweep:run"):
            run = scheduler.run()
    finally:
        if scratch is not None:
            scratch.cleanup()
    report = build_report(plan, run, baseline_dir=args.baseline_dir)

    if args.output:
        _write(args.output, json.dumps(report, indent=2) + "\n")
    if args.markdown:
        _write(args.markdown, render_markdown(report))
    if args.manifest_out:
        manifest = _service_manifest(
            recorder,
            "sweep",
            dict(run.counters),
            name=spec.name,
            n=len(plan.cells),
            engine="sweep",
            requested_engine=args.pool,
            options={
                "workers": scheduler.workers,
                "timeout_s": scheduler.timeout_s,
                "retries": scheduler.retries,
            },
        )
        _write(args.manifest_out, manifest)

    summary = report["summary"]
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"sweep {spec.name}: {summary['total']} cells in "
            f"{report['wall_s']:.2f}s — {summary['ok']} ok, "
            f"{summary['quarantined']} quarantined, "
            f"{summary['skipped']} skipped "
            f"({summary['attempts']} attempts, {summary['retries']} retries, "
            f"{summary['timeouts']} timeouts)"
        )
        for cell in report["cells"]:
            if cell["status"] != "ok":
                detail = cell.get("error") or "dependency failed"
                print(f"  {cell['status']:11s} {cell['id']}: {detail}")
        for entry in report["regressions"]:
            print(
                f"  regression  {entry['cell']}: {entry['cell_wall_s']:.3f}s "
                f"vs {entry['baseline_wall_s']:.3f}s in {entry['baseline']} "
                f"({entry['ratio']:.2f}x)"
            )

    if summary["quarantined"] or summary["skipped"]:
        return 1
    if args.fail_on_regression and report["regressions"]:
        return 1
    return 0


# -- flag groups ----------------------------------------------------------------
#
# A flag group is a callable that adds its flags to one subparser.  The
# groups several subcommands share are defined once, here; a flag only
# one subcommand takes is an ``_arg(...)`` in that command's row.


def _arg(*names, **kwargs):
    """One ``add_argument(*names, **kwargs)``, deferred to parser build."""
    return lambda p: p.add_argument(*names, **kwargs)


def _budget_flags(
    required: bool = True,
    percent_default: Optional[float] = None,
    budget_help: str = "absolute miss budget K",
    percent_help: str = "K as percent of max misses",
):
    """``--budget K`` or ``--percent P``, never both."""

    def add(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--budget", type=int, help=budget_help)
        group.add_argument(
            "--percent", type=float, default=percent_default, help=percent_help
        )

    return add


def _json(help: str):
    return _arg("--json", action="store_true", help=help)


def _output(help: str, required: bool = False):
    return _arg("-o", "--output", required=required, help=help)


_TRACE = _arg("trace", help="trace file")
_BUDGET = _budget_flags()
_MAX_DEPTH = _arg("--max-depth", type=int, default=0, help="largest depth to report")
_WORKLOAD = _arg("name", help="workload name (e.g. crc)")
_SCALE = _arg("--scale", default="default", help="tiny/small/default/large")


def _engine_flags(p: argparse.ArgumentParser) -> None:
    """``--engine`` and ``--prelude``: which machinery answers."""
    from repro.core import engines

    p.add_argument(
        "--engine",
        default=engines.AUTO_ENGINE,
        choices=sorted(set(engines.engine_names()) | set(engines.ALIASES)),
        help="histogram engine (default: auto)",
    )
    p.add_argument(
        "--prelude",
        default="auto",
        choices=list(engines.PRELUDE_MODES),
        help="prelude builder: auto (fast is a synonym) runs the NumPy "
        "kernels, or pure-Python fallbacks without NumPy; python runs "
        "the paper-faithful builders (default: auto)",
    )


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    """The uniform scenario flags, grouped in one help section."""
    from repro.core import engines
    from repro.scenario import COST_MODELS

    group = p.add_argument_group(
        "scenario options",
        "policy-aware exploration beyond the paper's fixed point "
        "(LRU replacement, single level, no cost model)",
    )
    group.add_argument(
        "--policy",
        default="lru",
        choices=list(engines.policy_names()),
        help="replacement policy to explore under (default: lru)",
    )
    group.add_argument(
        "--l2-depth",
        type=int,
        default=None,
        metavar="D",
        help="also explore a second cache level: the L1 winner's miss "
        "stream is re-explored with depths bounded by this power of two",
    )
    group.add_argument(
        "--cost-model",
        default=None,
        choices=list(COST_MODELS),
        help="rank each budget's instances by hardware cost",
    )


def _cache_flags(p: argparse.ArgumentParser) -> None:
    """``--cache-dir`` / ``--no-cache``: the opt-in artifact store."""
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact store directory (warm-starts repeated runs; "
        "REPRO_CACHE_DIR also enables it)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any artifact store, even if REPRO_CACHE_DIR is set",
    )


def _daemon_flags(host_help: str, port_help: str):
    """``--host`` / ``--port`` of the daemon; ``{port}`` in help is the default."""

    def add(p: argparse.ArgumentParser) -> None:
        from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT

        p.add_argument("--host", default=DEFAULT_HOST, help=host_help)
        p.add_argument(
            "--port",
            type=int,
            default=DEFAULT_PORT,
            help=port_help.format(port=DEFAULT_PORT),
        )

    return add


# -- the command table ----------------------------------------------------------


def _commands():
    """One ``(name, help, flag groups, handler)`` row per subcommand."""
    from repro.core import engines
    from repro.serve.pool import POOL_KINDS

    return (
        ("workloads", "run & verify the benchmark kernels", (
            _SCALE,
            _arg("--extras", action="store_true",
                 help="include the PowerStone kernels beyond the paper's 12"),
        ), _cmd_workloads),
        ("emit", "write a workload trace to a file", (
            _WORKLOAD,
            _arg("--kind", choices=["inst", "data", "unified"], default="data"),
            _SCALE,
            _output("output trace file", required=True),
        ), _cmd_emit),
        ("stats", "trace statistics (paper Tables 5/6)", (
            _arg("traces", nargs="+", help="trace files"),
        ), _cmd_stats),
        ("explore", "analytical exploration of a trace", (
            _TRACE,
            _BUDGET,
            _MAX_DEPTH,
            _json("emit machine-readable JSON"),
            _engine_flags,
            _arg("--profile", metavar="MANIFEST",
                 help="record per-phase telemetry and write a run manifest JSON here"),
            _scenario_flags,
            _cache_flags,
        ), _cmd_explore),
        ("profile", "per-phase timing/memory telemetry for one run", (
            _TRACE,
            _budget_flags(
                required=False,
                percent_default=10.0,
                percent_help="K as percent of max misses (default: 10)",
            ),
            _engine_flags,
            _arg("--no-memory", action="store_true",
                 help="skip tracemalloc sampling (pure timing run)"),
            _json("print the manifest JSON instead of the phase tree"),
            _output("also write the manifest JSON here"),
            _cache_flags,
        ), _cmd_profile),
        ("engines", "list the histogram engines", (), _cmd_engines),
        ("verify", "differential fuzzing oracle: engine x prelude x store grid "
         "vs simulator + metamorphic invariants", (
            _arg("--budget", metavar="TIME",
                 help="wall-clock cap, e.g. 60s or 2m (default: anchors only)"),
            _arg("--max-traces", type=int, help="stop after this many corpus traces"),
            _arg("--seed", type=int, default=0, help="corpus seed"),
            _arg("--engines", nargs="+", metavar="E",
                 choices=sorted(
                     set(engines.engine_names(False)) | set(engines.ALIASES)
                 ),
                 help="restrict the grid to these engines (default: all registered)"),
            _arg("--preludes", nargs="+", metavar="P",
                 choices=list(engines.PRELUDE_MODES),
                 help="restrict the grid to these prelude modes (default: all)"),
            _arg("--no-warm", action="store_true",
                 help="skip the warm-store half of the grid"),
            _arg("--laws", default="rotate", choices=["rotate", "all", "none"],
                 help="metamorphic laws per trace: one (round-robin), all, or none"),
            _arg("--policies", nargs="+", metavar="POLICY",
                 choices=list(engines.policy_names()),
                 help="also run the policy oracle for these replacement policies "
                 "(policy engine vs simulator, every (D, A) cell)"),
            _arg("--corpus-dir", metavar="DIR",
                 help="failure corpus (replayed first, crashes persisted here; "
                 "default: $REPRO_VERIFY_CORPUS or .repro-verify-corpus)"),
            _arg("--no-corpus", action="store_true",
                 help="neither replay nor persist an on-disk failure corpus"),
            _arg("--no-shrink", action="store_true",
                 help="persist failing traces unshrunk"),
            _arg("--fail-fast", action="store_true", help="stop at the first failure"),
            _arg("--smoke", action="store_true",
                 help="PR-lane preset: the full 12-cell grid over 8 traces"),
            _json("emit the JSON report to stdout"),
            _output("also write the JSON report here"),
            _arg("--profile", metavar="MANIFEST",
                 help="write a run manifest with verify counters here"),
        ), _cmd_verify),
        ("cache", "manage the persistent artifact store", (
            _arg("action", choices=["stats", "clear", "prune"],
                 help="stats: summarize entries; clear: remove everything; "
                 "prune: evict LRU entries down to --max-bytes"),
            _arg("--cache-dir", metavar="DIR",
                 help="store directory (default: REPRO_CACHE_DIR or the user "
                 "cache dir)"),
            _arg("--max-bytes", type=int, default=None,
                 help="prune target size in bytes (prune only; default: the "
                 "store's default cap)"),
            _json("emit stats as JSON (stats only)"),
        ), _cmd_cache),
        ("simulate", "simulate one cache configuration", (
            _TRACE,
            _arg("--depth", type=int, required=True),
            _arg("--assoc", type=int, required=True),
            _arg("--line", type=int, default=1, help="line size in words"),
            _arg("--replacement", default="lru",
                 choices=[kind.value for kind in ReplacementKind]),
        ), _cmd_simulate),
        ("compare", "analytical vs traditional DSE", (
            _TRACE,
            _BUDGET,
            _MAX_DEPTH,
            _arg("--max-assoc", type=int, default=8),
        ), _cmd_compare),
        ("linesize", "line-size sweep (paper future work)", (
            _TRACE,
            _BUDGET,
            _arg("--lines", type=int, nargs="+", default=[1, 2, 4, 8],
                 help="line sizes in words (powers of two)"),
        ), _cmd_linesize),
        ("compact", "Puzak trace stripping [14][15]", (
            _arg("trace", help="input trace file"),
            _output("output trace file", required=True),
            _arg("--filter-depth", type=int, default=2,
                 help="direct-mapped filter depth (validity floor)"),
        ), _cmd_compact),
        ("robustness", "LRU instances under FIFO/PLRU/random", (
            _TRACE,
            _BUDGET,
        ), _cmd_robustness),
        ("cost", "CACTI-style cost ranking of solutions", (
            _TRACE,
            _BUDGET,
        ), _cmd_cost),
        ("phases", "per-phase optima vs static", (
            _TRACE,
            _BUDGET,
            _arg("--phases", type=int, default=4, help="number of phases"),
        ), _cmd_phases),
        ("hierarchy", "explore L2 behind a fixed L1", (
            _TRACE,
            _budget_flags(
                budget_help="L2 miss budget K",
                percent_help="K as percent of L2's own max misses",
            ),
            _arg("--l1-depth", type=int, default=64),
            _arg("--l1-assoc", type=int, default=1),
        ), _cmd_hierarchy),
        ("conflicts", "diagnose conflicting cache rows", (
            _TRACE,
            _arg("--depth", type=int, required=True),
            _arg("--assoc", type=int, default=1),
            _arg("--top", type=int, default=10),
        ), _cmd_conflicts),
        ("curves", "miss curves as CSV", (
            _TRACE,
            _arg("--depth", type=int, default=0,
                 help="fixed depth: emit the associativity curve (default: "
                 "capacity curve)"),
            _arg("--max-capacity", type=int, default=0, help="capacity-curve ceiling"),
            _output("write CSV to a file"),
        ), _cmd_curves),
        ("disasm", "disassemble a workload kernel", (
            _WORKLOAD,
            _SCALE,
        ), _cmd_disasm),
        ("report", "full markdown design report", (
            _TRACE,
            _output("write to a file instead of stdout"),
            _arg("--percent", type=float, default=10.0,
                 help="focus budget for sensitivity/cost sections"),
        ), _cmd_report),
        ("paper-example", "the paper's running example", (), _cmd_paper_example),
        ("serve", "exploration daemon: HTTP/JSON with in-flight dedup, a "
         "worker pool, and /metrics", (
            _daemon_flags(
                "bind address", "bind port (default: {port}; 0 picks a free port)"
            ),
            _arg("--workers", type=int, default=2, help="concurrent pool executions"),
            _arg("--pool", default="process", choices=list(POOL_KINDS),
                 help="worker pool backend (default: process)"),
            _arg("--drain-timeout", type=float, default=None, metavar="S",
                 help="cap on draining in-flight requests at shutdown (default: wait)"),
            _arg("--manifest-out", metavar="MANIFEST",
                 help="write a run manifest with serve counters on shutdown"),
            _cache_flags,
        ), _cmd_serve),
        ("submit", "send an exploration request to a running daemon", (
            _arg("traces", nargs="+", help="trace files"),
            _arg("--mode", default="single",
                 choices=["single", "sum", "each", "linesize"],
                 help="exploration mode (default: single)"),
            _arg("--budget", type=int, action="append",
                 help="absolute miss budget K (repeatable)"),
            _arg("--percent", type=float, action="append",
                 help="K as percent of max misses (repeatable; single mode only)"),
            _engine_flags,
            _scenario_flags,
            _daemon_flags("daemon address", "daemon port"),
            _arg("--timeout", type=float, default=600.0, help="socket timeout seconds"),
            _json("emit the report as JSON"),
        ), _cmd_submit),
        ("stream", "chunked/out-of-core exploration of one trace file, with "
         "checkpoint warm-start when a cache directory is set", (
            _arg("trace", help="trace file (read in chunks, never whole)"),
            _arg("--budget", type=int, action="append",
                 help="absolute miss budget K (repeatable; default: 0)"),
            _arg("--max-level", type=int, default=None, metavar="L",
                 help="deepest conflict level to maintain (default: address width)"),
            _arg("--chunk-refs", type=int, default=DEFAULT_CHUNK_REFS, metavar="N",
                 help=f"references per ingested chunk (default: {DEFAULT_CHUNK_REFS})"),
            _arg("--address-bits", type=int, default=None, metavar="B",
                 help="significant address width (required when the file format "
                 "does not carry one, e.g. .din/.csv)"),
            _arg("--include-depth-one", action="store_true",
                 help="admit degenerate depth-1 instances into the answer set"),
            _json("emit the results as JSON"),
            _scenario_flags,
            _cache_flags,
        ), _cmd_stream),
        ("sweep", "benchmark farm: run a declarative sweep spec through the "
         "cell DAG scheduler and diff against committed baselines", (
            _arg("spec", help="sweep spec YAML (repro-sweep-spec/1)"),
            _arg("--plan", action="store_true",
                 help="print the expanded plan JSON (byte-stable) and exit"),
            _arg("--pool", default="process", choices=list(POOL_KINDS),
                 help="cell executor backend (default: process; only process "
                 "enforces per-cell timeouts by killing the worker)"),
            _arg("--workers", type=int, default=None,
                 help="concurrent cells (default: the spec's execution.workers)"),
            _arg("--timeout", type=float, default=None, metavar="S",
                 help="per-cell attempt deadline (default: the spec's)"),
            _arg("--retries", type=int, default=None,
                 help="re-executions before quarantine (default: the spec's)"),
            _arg("--baseline-dir", default=".", metavar="DIR",
                 help="directory holding the spec's BENCH_*.json baselines "
                 "(default: current directory)"),
            _arg("--tolerance", type=float, default=None,
                 help="override the spec's regression tolerance"),
            _arg("--fail-on-regression", action="store_true",
                 help="exit non-zero when any cell regresses past tolerance"),
            _output("write the report JSON here"),
            _arg("--markdown", metavar="FILE",
                 help="write the markdown trend table here"),
            _arg("--manifest-out", metavar="MANIFEST",
                 help="write an aggregate run manifest with sweep counters"),
            _json("print the report JSON to stdout"),
            _cache_flags,
        ), _cmd_sweep),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser: one subparser per table row.

    The epilog lists histogram engines straight from the registry
    (:func:`repro.core.engines.engine_names`), so ``repro --help`` can
    never drift from what the registry actually serves.
    """
    from repro.core import engines

    engine_list = ", ".join(engines.engine_names())
    alias_list = ", ".join(
        f"{alias} -> {target}" for alias, target in sorted(engines.ALIASES.items())
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analytical cache design space exploration (Ghosh & Givargis, DATE 2003)",
        epilog=(
            f"histogram engines: {engine_list} "
            f"(aliases: {alias_list}; see 'repro engines')"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, flags, handler in _commands():
        p = sub.add_parser(name, help=summary)
        for add in flags:
            add(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the named command's handler.

    An ``OSError`` or ``ValueError`` (a missing file, a negative budget,
    a depth that is not a power of two) ends the run with
    ``<command> failed: <message>`` on stderr and exit code 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
