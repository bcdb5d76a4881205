"""Property tests: the serve wire protocol is a lossless bijection.

Two round-trip identities, over randomized inputs:

* request → wire → request preserves every wire-visible field (the
  request dataclass has identity equality, so fields are compared via
  the canonical wire form), and the wire JSON itself survives an actual
  ``json.dumps``/``loads`` cycle;
* report → wire → report is exact for every mode, including multi-trace
  instance ordering and the line-sweep per-line miss counts that the
  pre-serve ``to_json_dict`` used to drop.

Plus the strictness property the protocol promises: injecting *any*
unknown field at any level is rejected.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import ExplorationRequest, explore_request
from repro.scenario import ScenarioSpec
from repro.serve.protocol import (
    ProtocolError,
    request_from_wire,
    request_key,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.trace.reference import AccessKind
from repro.trace.trace import Trace


@st.composite
def traces(draw, min_size: int = 1, max_size: int = 40):
    addresses = draw(
        st.lists(
            st.integers(min_value=0, max_value=63),
            min_size=min_size,
            max_size=max_size,
        )
    )
    kinds = None
    if draw(st.booleans()):
        kinds = draw(
            st.lists(
                st.sampled_from(list(AccessKind)),
                min_size=len(addresses),
                max_size=len(addresses),
            )
        )
    name = draw(st.text("abcxyz-", min_size=1, max_size=8))
    return Trace(addresses, address_bits=6, kinds=kinds, name=name)


@st.composite
def requests(draw):
    mode = draw(st.sampled_from(["single", "sum", "each", "linesize"]))
    n_traces = draw(st.integers(1, 3)) if mode in ("sum", "each") else 1
    budgets = tuple(
        draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))
    )
    percents = ()
    if mode == "single" and draw(st.booleans()):
        percents = tuple(
            draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=2))
        )
    drawn = tuple(draw(traces()) for _ in range(n_traces))
    # multi-trace exploration requires unique names within one request
    for index, trace in enumerate(drawn):
        trace.name = f"{trace.name}-{index}"
    return ExplorationRequest(
        traces=drawn,
        mode=mode,
        budgets=budgets,
        percents=percents,
        line_sizes=(1, 2, 4) if mode == "linesize" else ExplorationRequest.__dataclass_fields__["line_sizes"].default,
        scenario=ScenarioSpec(
            max_depth=draw(st.sampled_from([None, 4, 16])),
            include_depth_one=draw(st.booleans()) if mode == "single" else False,
            engine=draw(st.sampled_from(["auto", "serial"])),
            prelude=draw(st.sampled_from(["auto", "python"])),
        ),
    )


@given(request=requests())
@settings(max_examples=60, deadline=None)
def test_request_wire_round_trip_identity(request):
    """request → wire → request is the identity on wire-visible fields."""
    wire = request_to_wire(request)
    # the document must be real JSON, not merely JSON-shaped
    wire = json.loads(json.dumps(wire))
    rebuilt = request_from_wire(wire)
    assert request_to_wire(rebuilt) == request_to_wire(request)
    assert rebuilt.traces == request.traces
    for theirs, ours in zip(rebuilt.traces, request.traces):
        assert theirs.name == ours.name
        assert theirs.has_kinds == ours.has_kinds
    # and the dedup key is stable across the cycle
    assert request_key(wire) == request_key(request_to_wire(rebuilt))


@given(request=requests(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_unknown_fields_rejected_everywhere(request, data):
    """Injecting an unknown field at any level fails loudly."""
    wire = json.loads(json.dumps(request_to_wire(request)))
    target = data.draw(
        st.sampled_from(["request", "trace"]), label="injection level"
    )
    name = data.draw(
        st.text("qz_", min_size=1, max_size=6).filter(
            lambda s: s not in wire and s not in wire["traces"][0]
        ),
        label="field name",
    )
    if target == "request":
        wire[name] = 1
    else:
        wire["traces"][0][name] = 1
    with pytest.raises(ProtocolError, match="unknown fields"):
        request_from_wire(wire)


@given(request=requests())
@settings(max_examples=25, deadline=None)
def test_report_wire_round_trip_identity(request):
    """report → wire → report is exact, through real JSON, every mode."""
    report = explore_request(request)
    wire = json.loads(json.dumps(response_to_wire(report)))
    rebuilt = response_from_wire(wire)
    assert rebuilt.to_json_dict() == report.to_json_dict()
    assert rebuilt.mode == report.mode
    assert rebuilt.engine == report.engine
    assert rebuilt.budgets == report.budgets
    if report.mode in ("sum", "each"):
        assert tuple(
            tuple((i.depth, i.associativity) for i in r.instances)
            for r in rebuilt.multi_results
        ) == tuple(
            tuple((i.depth, i.associativity) for i in r.instances)
            for r in report.multi_results
        )
    if report.mode == "linesize":
        for theirs, ours in zip(rebuilt.line_sweeps, report.line_sweeps):
            assert [
                (li.line_words, li.non_cold_misses, li.cold_misses)
                for li in theirs.instances
            ] == [
                (li.line_words, li.non_cold_misses, li.cold_misses)
                for li in ours.instances
            ]
