"""The client's body writer is ``json.dumps(request_to_wire(r))``, byte for byte.

:func:`repro.serve.protocol.request_body` writes the request body from
the packed addresses and kind labels instead of through the wire dict;
:func:`~repro.serve.protocol.batch_body` wraps members in the batch
envelope.  Every byte must match what the dict path writes.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.request import ExplorationRequest
from repro.scenario import ScenarioSpec
from repro.serve.protocol import (
    BATCH_REQUEST_SCHEMA,
    batch_body,
    request_body,
    request_from_wire,
    request_to_wire,
)
from repro.trace.trace import Trace


def _dumps(document) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


names = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(min_codepoint=0x80, max_codepoint=0x10FFFF),
    ),
    max_size=12,
)


@st.composite
def traces(draw, index: int):
    bits = draw(st.sampled_from([1, 6, 40, 63]))
    addresses = draw(
        st.lists(st.integers(0, 2**bits - 1), min_size=1, max_size=30)
    )
    kinds = draw(
        st.one_of(
            st.none(),
            st.binary(min_size=len(addresses), max_size=len(addresses)).map(
                lambda raw: bytes(b % 3 for b in raw)
            ),
        )
    )
    name = draw(names) + f"#{index}"
    return Trace(addresses, address_bits=bits, kinds=kinds, name=name)


@st.composite
def requests(draw):
    mode = draw(st.sampled_from(["single", "sum", "each", "linesize"]))
    count = draw(st.integers(1, 3)) if mode in ("sum", "each") else 1
    single = mode == "single"
    scenario = ScenarioSpec(
        max_depth=draw(st.sampled_from([None, 4])),
        include_depth_one=draw(st.booleans()) if single else False,
        engine=draw(st.sampled_from(["auto", "serial"])),
        prelude=draw(st.sampled_from(["auto", "python"])),
        **(
            draw(
                st.sampled_from(
                    [
                        {},
                        {"policy": "fifo"},
                        {"l2_depth": 16, "cost_model": "energy"},
                    ]
                )
            )
            if single
            else {}
        ),
    )
    return ExplorationRequest(
        traces=tuple(draw(traces(index)) for index in range(count)),
        mode=mode,
        budgets=tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=3))),
        percents=tuple(
            draw(st.lists(st.floats(0.0, 100.0), max_size=2)) if single else ()
        ),
        weights=(
            tuple(draw(st.lists(st.integers(1, 9), min_size=count, max_size=count)))
            if mode == "sum" and draw(st.booleans())
            else None
        ),
        line_sizes=(1, 2, 4) if mode == "linesize" else (1, 2, 4, 8, 16),
        scenario=scenario,
    )


@given(request=requests())
@settings(max_examples=200, deadline=None)
def test_request_body_is_the_dict_path(request) -> None:
    body = request_body(request)
    assert body == _dumps(request_to_wire(request))
    assert request_to_wire(request_from_wire(json.loads(body))) == request_to_wire(
        request
    )


@given(members=st.lists(requests(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_batch_body_is_the_dict_path(members) -> None:
    envelope = {
        "schema": BATCH_REQUEST_SCHEMA,
        "requests": [request_to_wire(request) for request in members],
    }
    assert batch_body(members) == _dumps(envelope)


def test_empty_and_absent_kinds() -> None:
    empty = Trace([], address_bits=3, kinds=b"", name="e")
    bare = Trace([5], address_bits=3, name='q"\\é')
    for trace, kinds in ((empty, b'"kinds":[]'), (bare, b'"kinds":null')):
        request = ExplorationRequest(traces=(trace,), mode="single", budgets=(0,))
        body = request_body(request)
        assert kinds in body
        assert body == _dumps(request_to_wire(request))
