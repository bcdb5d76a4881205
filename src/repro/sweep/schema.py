"""One validator for every committed ``BENCH_*.json`` artifact.

Each benchmark harness used to carry its own ``validate_results`` copy;
five near-identical validators drifted independently and CI imported
each one by path.  This module is the single source of truth:
:func:`validate_bench` dispatches on the document's ``schema`` field and
enforces the same invariants the per-bench validators did — field
tables, non-negative measurements, ``match`` flags, summary keys and
the cross-field consistency checks (serve request accounting, stream
tail bar, checkpoint round-trips).

The ``benchmarks/bench_*.py`` modules keep their public
``validate_results`` names (CI and tests import them) but delegate
here, so a schema change lands in exactly one place.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

#: bench_stream: appended tail may be at most this fraction of the trace.
STREAM_TAIL_BAR = 0.01

#: bench_serve latency-block fields.
SERVE_PHASE_FIELDS = ("count", "p50_s", "p95_s", "p99_s", "max_s")

#: bench_serve server-counter fields.
SERVE_SERVER_FIELDS = (
    "requests_total",
    "computations_total",
    "dedup_hits_total",
    "store_hits_total",
    "store_misses_total",
)

#: bench_stream checkpoint fields.
STREAM_CHECKPOINT_FIELDS = ("bytes", "encode_s", "decode_s", "roundtrip_ok")

_POSTLUDE_ROW = {
    "engine": str,
    "trace": str,
    "N": int,
    "N_prime": int,
    "levels": int,
    "wall_s": float,
    "peak_mem": int,
    "match": bool,
}

_PRELUDE_ROW = {
    "pipeline": str,
    "trace": str,
    "N": int,
    "N_prime": int,
    "strip_s": float,
    "zerosets_s": float,
    "mrct_s": float,
    "postlude_s": float,
    "total_s": float,
    "match": bool,
}

_PRELUDE_STAGES = ("strip_s", "zerosets_s", "mrct_s", "postlude_s")

_STORE_ROW = {
    "trace": str,
    "N": int,
    "N_prime": int,
    "engine": str,
    "cold_wall_s": float,
    "warm_wall_s": float,
    "speedup": float,
    "store_bytes": int,
    "warm_hits": int,
    "match": bool,
}

def _check_header(document: Mapping, repeats: bool = True) -> None:
    """The common ``python``/``repeats``/``platform``/``numpy`` header."""
    fields: Tuple[Tuple[str, type], ...] = (("python", str), ("platform", str))
    if repeats:
        fields = (("python", str), ("repeats", int), ("platform", str))
    for key, kind in fields:
        if not isinstance(document.get(key), kind):
            raise ValueError(f"missing or mistyped field {key!r}")
    if not isinstance(document.get("numpy"), (str, type(None))):
        raise ValueError("field 'numpy' must be a string or null")


def _check_rows(document: Mapping, row_fields: Dict[str, type]) -> list:
    """Row-shaped ``results``: exact field set, types, non-negative walls."""
    results = document.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("'results' must be a non-empty list")
    for row in results:
        if not isinstance(row, dict) or set(row) != set(row_fields):
            raise ValueError(
                f"result fields {sorted(row) if isinstance(row, dict) else row} "
                f"!= schema"
            )
        for field, kind in row_fields.items():
            value = row[field]
            if kind is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif kind is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                raise ValueError(f"result field {field!r} must be {kind.__name__}")
        if not row["match"]:
            raise ValueError(
                f"row for {row['trace']!r} diverged from its reference "
                f"(match is false)"
            )
    return results


def _check_summary_keys(summary: object, keys: Tuple[str, ...]) -> None:
    if not isinstance(summary, dict):
        raise ValueError("'summary' is required")
    for key in keys:
        if key not in summary:
            raise ValueError(f"summary missing {key!r}")


def _validate_postlude(document: Mapping) -> None:
    _check_header(document)
    for row in _check_rows(document, _POSTLUDE_ROW):
        if row["wall_s"] < 0 or row["N"] < 0 or row["peak_mem"] < 0:
            raise ValueError("negative measurement")
    summary = document.get("summary")
    if summary is not None:
        _check_summary_keys(
            summary,
            (
                "largest_synthetic_trace",
                "serial_wall_s",
                "vectorized_wall_s",
                "vectorized_speedup",
            ),
        )


def _validate_prelude(document: Mapping) -> None:
    _check_header(document)
    for row in _check_rows(document, _PRELUDE_ROW):
        if row["pipeline"] not in ("python", "fast"):
            raise ValueError(f"unknown pipeline {row['pipeline']!r}")
        if any(row[stage] < 0 for stage in _PRELUDE_STAGES) or row["N"] < 0:
            raise ValueError("negative measurement")
    summary = document.get("summary")
    if summary is not None:
        _check_summary_keys(summary, ("target_trace", "speedups"))
        if not isinstance(summary["speedups"], dict):
            raise ValueError("summary 'speedups' must be a mapping")


def _validate_store(document: Mapping) -> None:
    _check_header(document)
    for row in _check_rows(document, _STORE_ROW):
        if row["cold_wall_s"] < 0 or row["warm_wall_s"] < 0:
            raise ValueError("negative measurement")
        if row["warm_hits"] < 1:
            raise ValueError(
                f"warm pass on {row['trace']!r} never hit the store"
            )
    _check_summary_keys(
        document.get("summary"),
        ("min_speedup", "max_speedup", "geomean_speedup", "threshold", "pass"),
    )


def _validate_serve(document: Mapping) -> None:
    _check_header(document, repeats=False)
    config = document.get("config")
    if not isinstance(config, dict):
        raise ValueError("'config' is required")
    for key in ("total_requests", "unique_requests", "client_threads", "workers"):
        value = config.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"config field {key!r} must be a positive int")
    if not isinstance(config.get("pool"), str):
        raise ValueError("config field 'pool' must be a string")
    results = document.get("results")
    if not isinstance(results, dict):
        raise ValueError("'results' is required")
    for phase in ("cold", "warm"):
        block = results.get(phase)
        if not isinstance(block, dict) or set(block) != set(SERVE_PHASE_FIELDS):
            raise ValueError(f"results.{phase} fields != {SERVE_PHASE_FIELDS}")
        for key in SERVE_PHASE_FIELDS:
            value = block[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"results.{phase}.{key} must be numeric")
            if value < 0:
                raise ValueError(f"results.{phase}.{key} is negative")
    server = results.get("server")
    if not isinstance(server, dict) or set(server) != set(SERVE_SERVER_FIELDS):
        raise ValueError(f"results.server fields != {SERVE_SERVER_FIELDS}")
    for key in SERVE_SERVER_FIELDS:
        value = server[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"results.server.{key} must be a non-negative int")
    total = config["total_requests"]
    if server["requests_total"] != total:
        raise ValueError(
            f"server answered {server['requests_total']} requests, "
            f"expected {total}"
        )
    if server["store_hits_total"] < 1:
        raise ValueError("the warm burst never hit the artifact store")
    covered = results["warm"]["count"] + results["cold"]["count"]
    if covered + results.get("errors", 0) < total:
        raise ValueError("latency samples + errors do not cover every request")
    summary = document.get("summary")
    _check_summary_keys(summary, ("warm_p99_s", "threshold_s", "errors", "pass"))
    if summary["errors"] != 0:
        raise ValueError(f"{summary['errors']} requests failed or diverged")


def _validate_stream(document: Mapping) -> None:
    _check_header(document, repeats=False)
    config = document.get("config")
    if not isinstance(config, dict):
        raise ValueError("'config' is required")
    for key in ("total_refs", "unique_refs", "tail_refs", "repeats", "address_bits"):
        value = config.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"config field {key!r} must be a positive int")
    if not isinstance(config.get("cold_engine"), str):
        raise ValueError("config field 'cold_engine' must be a string")
    if not isinstance(config.get("budgets"), list) or not config["budgets"]:
        raise ValueError("config field 'budgets' must be a non-empty list")
    tail_bar = config["total_refs"] * STREAM_TAIL_BAR
    if config["tail_refs"] > max(1, tail_bar):
        raise ValueError(
            f"appended tail of {config['tail_refs']} refs exceeds "
            f"{100 * STREAM_TAIL_BAR:.0f}% of the "
            f"{config['total_refs']}-ref trace"
        )
    results = document.get("results")
    if not isinstance(results, dict):
        raise ValueError("'results' is required")
    for key in ("cold_s", "warm_s", "speedup"):
        value = results.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"results.{key} must be numeric")
        if value < 0:
            raise ValueError(f"results.{key} is negative")
    for key in ("cold_samples_s", "warm_samples_s"):
        samples = results.get(key)
        if not isinstance(samples, list) or len(samples) != config["repeats"]:
            raise ValueError(f"results.{key} must list one sample per repeat")
    checkpoint = results.get("checkpoint")
    if (
        not isinstance(checkpoint, dict)
        or set(checkpoint) != set(STREAM_CHECKPOINT_FIELDS)
    ):
        raise ValueError(
            f"results.checkpoint fields != {STREAM_CHECKPOINT_FIELDS}"
        )
    if checkpoint["roundtrip_ok"] is not True:
        raise ValueError("checkpoint round-trip diverged")
    summary = document.get("summary")
    _check_summary_keys(summary, ("speedup", "floor", "errors", "pass"))
    if summary["errors"] != 0:
        raise ValueError(f"{summary['errors']} warm results diverged from cold")


#: schema identifier -> validator.  The registry CI round-trips against.
BENCH_SCHEMAS: Dict[str, object] = {
    "repro-bench-postlude/1": _validate_postlude,
    "repro-bench-prelude/1": _validate_prelude,
    "repro-bench-store/1": _validate_store,
    "repro-bench-serve/1": _validate_serve,
    "repro-bench-stream/1": _validate_stream,
}


def validate_bench(document: object, expect: Optional[str] = None) -> str:
    """Validate any committed bench document; returns its schema id.

    Args:
        document: a parsed ``BENCH_*.json`` payload.
        expect: when given, the document's ``schema`` must equal it
            (harness delegates pass their own schema so a renamed file
            cannot silently validate under the wrong table).

    Raises:
        ValueError: unknown schema, schema mismatch, or any invariant
            the per-bench validators enforced.
    """
    if not isinstance(document, dict):
        raise ValueError("bench document must be a JSON object")
    schema = document.get("schema")
    if expect is not None and schema != expect:
        raise ValueError(f"schema must be {expect!r}")
    if schema not in BENCH_SCHEMAS:
        raise ValueError(
            f"unknown bench schema {schema!r}; expected one of "
            f"{sorted(BENCH_SCHEMAS)}"
        )
    BENCH_SCHEMAS[schema](document)
    return schema
