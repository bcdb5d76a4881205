"""The serve wire protocol: strict JSON codecs for requests and reports.

The daemon speaks plain JSON documents over HTTP.  Everything on the
wire is validated *strictly*: unknown fields are rejected (so a typo'd
option fails loudly instead of silently running with defaults, and the
wire schema cannot drift from the dataclasses without a test noticing),
and every field is type-checked before an :class:`ExplorationRequest`
is constructed — the request's own ``__post_init__`` then enforces the
semantic rules (mode arity, budget signs, known engine names).

Wire documents:

* request (schema :data:`REQUEST_SCHEMA`) — an
  :class:`repro.core.request.ExplorationRequest` minus its server-side
  attachments (recorder, store), with traces inlined as
  ``{"name", "address_bits", "addresses", "kinds"}`` objects;
* response (schema :data:`RESPONSE_SCHEMA`) — the
  :class:`repro.core.request.ExplorationReport` as its lossless
  ``to_json_dict`` form, plus the worker's run manifest.

:func:`request_key` derives the in-flight dedup identity: the SHA-256
of the canonical request JSON with each trace replaced by its content
digest — two requests that would compute the same thing share one key
even when their traces arrived under different names.  It keys an
already-decoded request, so the daemon parses each document once.

Address and kind lists — the only parts of a document that grow with
the trace — are checked in bulk (element types as one set, then
``array('q')``), falling back to an item-by-item walk only to name the
first bad element, so the error text is the item-by-item one.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.core.linesize import LineSizeExplorer
from repro.core.postlude import validate_max_level
from repro.core.request import ExplorationRequest, ExplorationReport, MODES
from repro.scenario.spec import ScenarioSpec
from repro.store.keys import trace_digest
from repro.trace.reference import AccessKind
from repro.trace.trace import Trace

#: Request document schema identifier (current minor revision).
REQUEST_SCHEMA = "repro-serve-request/1.2"

#: Request schemas the daemon accepts.  ``/1`` documents predate the
#: ``max_level`` field, ``/1.1`` documents the ``scenario`` block; both
#: remain valid — every later addition is optional with defaults
#: matching the old behavior, so old clients keep working unchanged and
#: are answered byte-identically.
ACCEPTED_REQUEST_SCHEMAS = (
    REQUEST_SCHEMA,
    "repro-serve-request/1.1",
    "repro-serve-request/1",
)

#: Response document schema identifier.
RESPONSE_SCHEMA = "repro-serve-response/1"

#: Wire fields of a request document, in canonical order.
REQUEST_FIELDS = (
    "schema",
    "mode",
    "traces",
    "budgets",
    "percents",
    "max_depth",
    "max_level",
    "include_depth_one",
    "line_sizes",
    "weights",
    "engine",
    "processes",
    "prelude",
    "scenario",
)

#: Wire fields of a ``/1.2`` scenario block.
SCENARIO_FIELDS = ("policy", "l2_depth", "cost_model")

#: Batch request/response document schema identifiers.
BATCH_REQUEST_SCHEMA = "repro-serve-batch/1"
BATCH_RESPONSE_SCHEMA = "repro-serve-batch-response/1"

#: Wire fields of a trace object.
TRACE_FIELDS = ("name", "address_bits", "addresses", "kinds")

#: The wire labels of the access kinds, the kind of each label, and the
#: label of a kind.
_KIND_LABELS = bytes(kind.value for kind in AccessKind)
_KIND_BY_LABEL = {kind.value: kind for kind in AccessKind}
_KIND_VALUE = attrgetter("_value_")


class ProtocolError(ValueError):
    """A wire document failed validation (the server answers 400)."""


def _require_dict(value: object, what: str) -> Dict:
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be a JSON object")
    return value


def _check_fields(document: Dict, allowed: Sequence[str], what: str) -> None:
    unknown = set(document) - set(allowed)
    if unknown:
        raise ProtocolError(f"{what}: unknown fields {sorted(unknown)}")


def _int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{what} must be an integer")
    return value


def _number(value: object, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"{what} must be a number")
    return float(value)


def _str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{what} must be a string")
    return value


def _bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"{what} must be a boolean")
    return value


def _int_list(value: object, what: str) -> List[int]:
    if not isinstance(value, list):
        raise ProtocolError(f"{what} must be a list")
    return [_int(item, f"{what}[{i}]") for i, item in enumerate(value)]


def _address_list(value: object, what: str) -> List[int]:
    """:func:`_int_list` for long address lists, checked in bulk.

    One pass collects the element types; only a list holding something
    other than plain ints is walked item by item, so the first bad item
    is reported exactly as :func:`_int_list` reports it.
    """
    if not isinstance(value, list):
        raise ProtocolError(f"{what} must be a list")
    if not set(map(type, value)) <= {int}:
        return _int_list(value, what)
    return value


# -- traces ---------------------------------------------------------------------


def trace_to_wire(trace: Trace) -> Dict:
    """A trace as a wire object."""
    kinds: Optional[List[int]] = None
    if trace.has_kinds:
        kinds = list(map(_KIND_VALUE, trace.kinds))
    return {
        "name": trace.name,
        "address_bits": trace.address_bits,
        "addresses": trace.addresses.tolist(),
        "kinds": kinds,
    }


def _kinds_from_wire(kinds_wire: object) -> List[AccessKind]:
    """Wire kind labels as :class:`AccessKind` values (strict)."""
    if isinstance(kinds_wire, list) and set(map(type, kinds_wire)) <= {int}:
        try:
            labels = bytes(kinds_wire)
        except ValueError:  # a label outside 0..255
            labels = None
        # Deleting every known label must leave nothing behind.
        if labels is not None and not labels.translate(None, _KIND_LABELS):
            return list(map(_KIND_BY_LABEL.__getitem__, labels))
    # Something is off: the item-by-item walk names the first bad kind.
    try:
        return [AccessKind(_int(k, "trace.kinds[]")) for k in kinds_wire]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"trace.kinds: {exc}") from exc


def _packed_addresses(addresses: List[int]) -> array:
    """Checked wire addresses as ``array('q')``; beyond 64-bit signed is a
    ``ValueError`` in the words of :class:`Trace`'s own checks."""
    try:
        return array("q", addresses)
    except OverflowError:
        if min(addresses) < 0:
            raise ValueError("trace addresses must be non-negative") from None
        raise ValueError(
            f"address {max(addresses):#x} does not fit in 63 bits"
        ) from None


def trace_from_wire(document: object) -> Trace:
    """Rebuild a trace from its wire object (strict)."""
    document = _require_dict(document, "trace")
    _check_fields(document, TRACE_FIELDS, "trace")
    for field in TRACE_FIELDS:
        if field not in document:
            raise ProtocolError(f"trace: missing field {field!r}")
    addresses = _address_list(document["addresses"], "trace.addresses")
    kinds_wire = document["kinds"]
    kinds = None if kinds_wire is None else _kinds_from_wire(kinds_wire)
    try:
        address_bits = _int(document["address_bits"], "trace.address_bits")
        name = _str(document["name"], "trace.name")
        return Trace(
            _packed_addresses(addresses),
            address_bits=address_bits,
            kinds=kinds,
            name=name,
        )
    except ValueError as exc:
        raise ProtocolError(f"trace: {exc}") from exc


# -- requests -------------------------------------------------------------------


def request_to_wire(request: ExplorationRequest) -> Dict:
    """An :class:`ExplorationRequest` as a wire document.

    The server-side attachments (``recorder``, ``store``) are not wire
    concerns and are dropped; the daemon supplies its own.
    """
    return {
        "schema": REQUEST_SCHEMA,
        "mode": request.mode,
        "traces": [trace_to_wire(trace) for trace in request.traces],
        "budgets": list(request.budgets),
        "percents": list(request.percents),
        "max_depth": request.max_depth,
        "include_depth_one": request.include_depth_one,
        "line_sizes": list(request.line_sizes),
        "weights": list(request.weights) if request.weights is not None else None,
        "engine": request.engine,
        "processes": request.processes,
        "prelude": request.prelude,
        "scenario": request.scenario.to_json_dict(),
    }


def _scenario_from_wire(document: object) -> Dict:
    """Validate a ``/1.2`` scenario block; returns its plain fields."""
    document = _require_dict(document, "request.scenario")
    _check_fields(document, SCENARIO_FIELDS, "request.scenario")
    policy = _str(document.get("policy", "lru"), "request.scenario.policy")
    l2_depth = document.get("l2_depth")
    if l2_depth is not None:
        l2_depth = _int(l2_depth, "request.scenario.l2_depth")
    cost_model = document.get("cost_model")
    if cost_model is not None:
        cost_model = _str(cost_model, "request.scenario.cost_model")
    return {"policy": policy, "l2_depth": l2_depth, "cost_model": cost_model}


def request_from_wire(document: object) -> ExplorationRequest:
    """Rebuild (and fully validate) a request from its wire document."""
    document = _require_dict(document, "request")
    _check_fields(document, REQUEST_FIELDS, "request")
    for field in ("schema", "mode", "traces"):
        if field not in document:
            raise ProtocolError(f"request: missing field {field!r}")
    if document["schema"] not in ACCEPTED_REQUEST_SCHEMAS:
        raise ProtocolError(
            f"request.schema must be one of {ACCEPTED_REQUEST_SCHEMAS}, "
            f"got {document['schema']!r}"
        )
    mode = _str(document["mode"], "request.mode")
    if mode not in MODES:
        raise ProtocolError(f"request.mode must be one of {MODES}, got {mode!r}")
    traces_wire = document["traces"]
    if not isinstance(traces_wire, list) or not traces_wire:
        raise ProtocolError("request.traces must be a non-empty list")
    traces = tuple(trace_from_wire(t) for t in traces_wire)
    percents_wire = document.get("percents", [])
    if not isinstance(percents_wire, list):
        raise ProtocolError("request.percents must be a list")
    percents = tuple(
        _number(p, f"request.percents[{i}]")
        for i, p in enumerate(percents_wire)
    )
    max_depth = document.get("max_depth")
    if max_depth is not None:
        max_depth = _int(max_depth, "request.max_depth")
    max_level = document.get("max_level")
    if max_level is not None:
        if max_depth is not None:
            raise ProtocolError(
                "request: max_depth and max_level are two spellings of one "
                "bound; supply at most one"
            )
        max_level = _int(max_level, "request.max_level")
        try:
            validate_max_level(max_level)
        except ValueError as exc:
            raise ProtocolError(f"request: {exc}") from exc
        # The dataclass speaks depths; a level bound is exactly the
        # power-of-two depth it indexes.
        max_depth = 1 << max_level
    weights = document.get("weights")
    if weights is not None:
        weights = tuple(_int_list(weights, "request.weights"))
    line_sizes = document.get(
        "line_sizes", list(LineSizeExplorer.DEFAULT_LINE_SIZES)
    )
    scenario_wire = document.get("scenario")
    if scenario_wire is not None and document["schema"] != REQUEST_SCHEMA:
        raise ProtocolError(
            f"request.scenario requires schema {REQUEST_SCHEMA!r}, "
            f"got {document['schema']!r}"
        )
    scenario_fields = (
        _scenario_from_wire(scenario_wire)
        if scenario_wire is not None
        else {"policy": "lru", "l2_depth": None, "cost_model": None}
    )
    try:
        scenario = ScenarioSpec(
            engine=_str(document.get("engine", "auto"), "request.engine"),
            processes=_int(document.get("processes", 2), "request.processes"),
            prelude=_str(document.get("prelude", "auto"), "request.prelude"),
            max_depth=max_depth,
            include_depth_one=_bool(
                document.get("include_depth_one", False),
                "request.include_depth_one",
            ),
            **scenario_fields,
        )
        return ExplorationRequest(
            traces=traces,
            mode=mode,
            budgets=tuple(_int_list(document.get("budgets", []), "request.budgets")),
            percents=percents,
            line_sizes=tuple(_int_list(line_sizes, "request.line_sizes")),
            weights=weights,
            scenario=scenario,
        )
    except ValueError as exc:  # semantic validation (mode arity, budgets...)
        raise ProtocolError(f"request: {exc}") from exc


def request_key(document: object) -> str:
    """The in-flight dedup identity of a request.

    Takes a decoded :class:`ExplorationRequest` (what the daemon holds
    after its one :func:`request_from_wire` call) or a wire document,
    which is decoded and validated first (so a malformed request can
    never poison the dedup table).  Hashes the canonical JSON with each
    trace replaced by its content digest: requests differing only in
    trace *names* or field order share a key; requests differing in any
    parameter that could change the answer (or the machinery asked to
    produce it) do not.
    """
    request = (
        document
        if isinstance(document, ExplorationRequest)
        else request_from_wire(document)
    )
    # The scenario triple is keyed from the *parsed* request, so a /1 or
    # /1.1 document (no scenario block) and a /1.2 document carrying the
    # default scenario hash identically — dedup is unified across
    # protocol revisions.
    canonical = {
        "mode": request.mode,
        "traces": [trace_digest(trace) for trace in request.traces],
        "budgets": list(request.budgets),
        "percents": list(request.percents),
        "max_depth": request.max_depth,
        "include_depth_one": request.include_depth_one,
        "line_sizes": list(request.line_sizes),
        "weights": list(request.weights) if request.weights is not None else None,
        "engine": request.engine,
        "processes": request.processes,
        "prelude": request.prelude,
        "policy": request.scenario.policy,
        "l2_depth": request.scenario.l2_depth,
        "cost_model": request.scenario.cost_model,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def batch_from_wire(document: object) -> List[Dict]:
    """Validate a batch envelope; returns the raw per-request documents.

    Each member document is *not* validated here — the server validates
    (and keys) members individually so one bad member fails the whole
    batch with a pointed error message.
    """
    document = _require_dict(document, "batch")
    _check_fields(document, ("schema", "requests"), "batch")
    if document.get("schema", BATCH_REQUEST_SCHEMA) != BATCH_REQUEST_SCHEMA:
        raise ProtocolError(
            f"batch.schema must be {BATCH_REQUEST_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    requests = document.get("requests")
    if not isinstance(requests, list) or not requests:
        raise ProtocolError("batch.requests must be a non-empty list")
    return [_require_dict(item, f"batch.requests[{i}]") for i, item in enumerate(requests)]


# -- responses ------------------------------------------------------------------


def response_to_wire(
    report: ExplorationReport, manifest: Optional[Dict] = None
) -> Dict:
    """Wrap a report (and its run manifest) as a response document."""
    document: Dict[str, object] = {
        "schema": RESPONSE_SCHEMA,
        "report": report.to_json_dict(),
    }
    if manifest is not None:
        document["manifest"] = manifest
    return document


def response_from_wire(document: object) -> ExplorationReport:
    """Extract the report from a response document (strict)."""
    document = _require_dict(document, "response")
    _check_fields(document, ("schema", "report", "manifest"), "response")
    if document.get("schema") != RESPONSE_SCHEMA:
        raise ProtocolError(
            f"response.schema must be {RESPONSE_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    report_wire = _require_dict(document.get("report"), "response.report")
    try:
        return ExplorationReport.from_json_dict(report_wire)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"response.report: {exc}") from exc
