"""Aggregate a sweep run into one validated trend report.

One sweep produces one ``repro-sweep-report/1`` JSON document: the spec
and plan fingerprint (so a report is traceable to the exact matrix that
produced it), every cell's terminal record — including its embedded
``repro-run-manifest/1`` manifest — run counters, and a *baseline
diff* section comparing cell timings against the committed
``BENCH_*.json`` artifacts.  Cells slower than ``(1 + tolerance) x``
their baseline row are flagged in ``regressions``; the CLI turns that
list into a non-zero exit under ``--fail-on-regression``.

:func:`render_markdown` renders the same document as a human-readable
trend table for PR comments and CI artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.obs.manifest import environment_info, validate_manifest
from repro.sweep.planner import Plan
from repro.sweep.scheduler import CELL_STATUSES, CellRecord, SweepRun

#: Report document schema identifier.
SWEEP_REPORT_SCHEMA = "repro-sweep-report/1"

#: Required summary counter keys (mirrors the scheduler's counters).
SUMMARY_KEYS = (
    "total",
    "ok",
    "quarantined",
    "skipped",
    "attempts",
    "retries",
    "timeouts",
)


def _baseline_wall(schema: str, row: Dict, record_dict: Dict) -> Optional[float]:
    """The baseline row's comparable wall time for one cell, if any.

    Row-shaped bench schemas are matched on the cell's resolved trace
    name plus the schema's own notion of configuration: engine for the
    postlude bench, prelude pipeline for the prelude bench,
    and store warmth for the store bench.  Returns ``None`` when the
    row does not describe this cell.
    """
    coords = record_dict["coords"]
    trace_name = record_dict.get("trace_name")
    if trace_name is None or row.get("trace") != trace_name:
        return None
    if schema == "repro-bench-postlude/1":
        if row.get("engine") != record_dict.get("engine"):
            return None
        if coords.get("warmth") != "cold":
            return None
        return float(row["wall_s"])
    if schema == "repro-bench-prelude/1":
        if row.get("pipeline") != coords.get("prelude"):
            return None
        if coords.get("warmth") != "cold":
            return None
        return float(row["total_s"])
    if schema == "repro-bench-store/1":
        if row.get("engine") != record_dict.get("engine"):
            return None
        key = "cold_wall_s" if coords.get("warmth") == "cold" else "warm_wall_s"
        return float(row[key])
    return None


def diff_against_baselines(
    cells: Sequence[Dict],
    baselines: Dict[str, Dict],
    tolerance: float,
) -> Dict[str, object]:
    """Compare ok cells against committed bench documents.

    Args:
        cells: cell record dicts (:meth:`CellRecord.to_json_dict`).
        baselines: ``filename -> validated bench document``.
        tolerance: allowed relative slowdown before a match is flagged
            (0.5 = a cell may run 50% slower than its baseline row).

    Returns:
        ``{"files": {filename: {...}}, "regressions": [...]}`` — every
        matched (cell, baseline row) pair with its timing ratio, and
        the subset past tolerance.
    """
    files: Dict[str, Dict] = {}
    regressions: List[Dict] = []
    for filename, document in baselines.items():
        schema = document.get("schema", "")
        rows = document.get("results")
        matches: List[Dict] = []
        if isinstance(rows, list):
            for cell in cells:
                if cell.get("status") != "ok":
                    continue
                for row in rows:
                    wall = _baseline_wall(schema, row, cell)
                    if wall is None:
                        continue
                    cell_wall = float(cell["wall_s"])
                    ratio = cell_wall / wall if wall > 0 else float("inf")
                    entry = {
                        "cell": cell["id"],
                        "baseline": filename,
                        "trace": cell.get("trace_name"),
                        "baseline_wall_s": wall,
                        "cell_wall_s": cell_wall,
                        "ratio": ratio,
                        "regression": ratio > 1.0 + tolerance,
                    }
                    matches.append(entry)
                    if entry["regression"]:
                        regressions.append(entry)
        files[filename] = {
            "schema": schema,
            "matched": len(matches),
            "comparisons": matches,
        }
    return {"files": files, "regressions": regressions}


def build_report(
    plan: Plan,
    run: SweepRun,
    baseline_dir: Optional[str] = None,
    tolerance: Optional[float] = None,
) -> Dict:
    """Assemble (and validate) the ``repro-sweep-report/1`` document.

    Baseline files named by the spec are loaded from ``baseline_dir``
    (default: the current directory) and validated through
    :func:`repro.sweep.schema.validate_bench` before diffing; a missing
    or invalid baseline is recorded as that file's ``error`` instead of
    failing the sweep — the report is the regression signal, not a
    hard gate.
    """
    from repro.sweep.schema import validate_bench

    spec = plan.spec
    tolerance = spec.tolerance if tolerance is None else tolerance
    root = baseline_dir or "."
    baselines: Dict[str, Dict] = {}
    baseline_errors: Dict[str, str] = {}
    for filename in spec.baselines:
        path = os.path.join(root, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            validate_bench(document)
        except (OSError, ValueError) as exc:
            baseline_errors[filename] = f"{type(exc).__name__}: {exc}"
            continue
        baselines[filename] = document

    cells = [record.to_json_dict() for record in run.records]
    diff = diff_against_baselines(cells, baselines, tolerance)
    for filename, message in baseline_errors.items():
        diff["files"][filename] = {"error": message}

    counters = run.counters
    document = {
        "schema": SWEEP_REPORT_SCHEMA,
        "name": spec.name,
        "plan_fingerprint": plan.fingerprint(),
        "spec": spec.to_dict(),
        "environment": environment_info(),
        "wall_s": run.wall_s,
        "cells": cells,
        "summary": {
            "total": counters.get("sweep_cells_total", len(cells)),
            "ok": counters.get("sweep_cells_ok", 0),
            "quarantined": counters.get("sweep_cells_quarantined", 0),
            "skipped": counters.get("sweep_cells_skipped", 0),
            "attempts": counters.get("sweep_attempts", 0),
            "retries": counters.get("sweep_retries", 0),
            "timeouts": counters.get("sweep_timeouts", 0),
        },
        "baselines": {
            "tolerance": tolerance,
            "files": diff["files"],
        },
        "regressions": diff["regressions"],
    }
    validate_sweep_report(document)
    return document


def validate_sweep_report(document: object) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid sweep report.

    Beyond structure this enforces the aggregation invariants: the
    summary counters must account for every cell exactly once, and
    every embedded manifest must itself be a valid
    ``repro-run-manifest/1`` document.
    """
    if not isinstance(document, dict):
        raise ValueError("sweep report must be a JSON object")
    if document.get("schema") != SWEEP_REPORT_SCHEMA:
        raise ValueError(f"schema must be {SWEEP_REPORT_SCHEMA!r}")
    for key, kind in (("name", str), ("plan_fingerprint", str)):
        if not isinstance(document.get(key), kind) or not document[key]:
            raise ValueError(f"missing or mistyped field {key!r}")
    for key in ("spec", "environment", "summary", "baselines"):
        if not isinstance(document.get(key), dict):
            raise ValueError(f"field {key!r} must be an object")
    wall = document.get("wall_s")
    if isinstance(wall, bool) or not isinstance(wall, (int, float)) or wall < 0:
        raise ValueError("wall_s must be a non-negative number")
    cells = document.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("'cells' must be a non-empty list")
    status_counts = {status: 0 for status in CELL_STATUSES}
    for i, cell in enumerate(cells):
        what = f"cells[{i}]"
        if not isinstance(cell, dict):
            raise ValueError(f"{what} must be an object")
        for key, kind in (("id", str), ("status", str)):
            if not isinstance(cell.get(key), kind) or not cell[key]:
                raise ValueError(f"{what}: missing or mistyped field {key!r}")
        if cell["status"] not in CELL_STATUSES:
            raise ValueError(
                f"{what}: status must be one of {CELL_STATUSES}, "
                f"got {cell['status']!r}"
            )
        status_counts[cell["status"]] += 1
        for key in ("attempts", "timeouts"):
            value = cell.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{what}.{key} must be a non-negative int")
        if not isinstance(cell.get("coords"), dict):
            raise ValueError(f"{what}.coords must be an object")
        if cell["status"] == "ok":
            if not isinstance(cell.get("report"), dict):
                raise ValueError(f"{what}: ok cells must embed a report")
            if "manifest" not in cell:
                raise ValueError(f"{what}: ok cells must embed a manifest")
        elif cell["status"] == "quarantined" and not cell.get("error"):
            raise ValueError(f"{what}: quarantined cells must carry an error")
        if "manifest" in cell:
            try:
                validate_manifest(cell["manifest"])
            except ValueError as exc:
                raise ValueError(f"{what}.manifest: {exc}") from exc
    summary = document["summary"]
    for key in SUMMARY_KEYS:
        value = summary.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"summary.{key} must be a non-negative int")
    if summary["total"] != len(cells):
        raise ValueError(
            f"summary.total is {summary['total']} but the report carries "
            f"{len(cells)} cells"
        )
    for status in CELL_STATUSES:
        key = {"ok": "ok", "quarantined": "quarantined", "skipped": "skipped"}[
            status
        ]
        if summary[key] != status_counts[status]:
            raise ValueError(
                f"summary.{key} is {summary[key]} but {status_counts[status]} "
                f"cells have status {status!r}"
            )
    baselines = document["baselines"]
    if not isinstance(baselines.get("files"), dict):
        raise ValueError("baselines.files must be an object")
    tolerance = baselines.get("tolerance")
    if (
        isinstance(tolerance, bool)
        or not isinstance(tolerance, (int, float))
        or tolerance < 0
    ):
        raise ValueError("baselines.tolerance must be a non-negative number")
    regressions = document.get("regressions")
    if not isinstance(regressions, list):
        raise ValueError("'regressions' must be a list")
    for i, entry in enumerate(regressions):
        if not isinstance(entry, dict) or not entry.get("regression"):
            raise ValueError(f"regressions[{i}] must be a flagged comparison")


def render_markdown(document: Dict) -> str:
    """The report as a markdown trend table (CI artifact / PR comment)."""
    summary = document["summary"]
    lines = [
        f"# Sweep report: {document['name']}",
        "",
        f"Plan fingerprint: `{document['plan_fingerprint'][:16]}…` — "
        f"{summary['total']} cells in {document['wall_s']:.2f}s "
        f"({summary['ok']} ok, {summary['quarantined']} quarantined, "
        f"{summary['skipped']} skipped; {summary['attempts']} attempts, "
        f"{summary['retries']} retries, {summary['timeouts']} timeouts).",
        "",
        "| cell | status | attempts | wall (s) | engine |",
        "|---|---|---:|---:|---|",
    ]
    for cell in document["cells"]:
        wall = f"{cell.get('wall_s', 0.0):.3f}"
        engine = cell.get("engine", "—")
        status = cell["status"]
        if status != "ok":
            status = f"**{status}**"
        lines.append(
            f"| `{cell['id']}` | {status} | {cell.get('attempts', 0)} "
            f"| {wall} | {engine} |"
        )
    lines.append("")
    tolerance = document["baselines"]["tolerance"]
    regressions = document["regressions"]
    if regressions:
        lines += [
            f"## Regressions (>{100 * (1 + tolerance):.0f}% of baseline)",
            "",
            "| cell | baseline | baseline (s) | now (s) | ratio |",
            "|---|---|---:|---:|---:|",
        ]
        for entry in regressions:
            lines.append(
                f"| `{entry['cell']}` | {entry['baseline']} "
                f"| {entry['baseline_wall_s']:.3f} | {entry['cell_wall_s']:.3f} "
                f"| {entry['ratio']:.2f}x |"
            )
    else:
        lines.append(
            f"No regressions against committed baselines "
            f"(tolerance {tolerance:.2f})."
        )
    lines.append("")
    files = document["baselines"]["files"]
    if files:
        lines.append("## Baselines")
        lines.append("")
        for filename, info in sorted(files.items()):
            if "error" in info:
                lines.append(f"- `{filename}`: **unavailable** ({info['error']})")
            else:
                lines.append(
                    f"- `{filename}` ({info['schema']}): "
                    f"{info['matched']} cell comparisons"
                )
        lines.append("")
    return "\n".join(lines)
