"""Bulk wire decoding: pinned error texts, pinned dedup keys, one decode.

The address and kind lists of a request are checked in bulk rather
than item by item.  These tests pin what that must not change: the
error text for every kind of bad element, and the dedup keys of the
``/1``, ``/1.1`` and ``/1.2`` documents.  They also pin what it adds:
an address beyond 64-bit signed range is a clean 400 on both explore
routes, and the daemon decodes each request exactly once.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.request import ExplorationRequest
from repro.serve import ServeError, WorkerPool
from repro.serve import protocol
from repro.serve.protocol import (
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    ProtocolError,
    request_from_wire,
    request_key,
    request_to_wire,
    trace_from_wire,
    trace_to_wire,
)
from repro.serve.sessions import parse_append
from repro.trace.reference import AccessKind
from repro.trace.trace import Trace

SCHEMAS = ("repro-serve-request/1", "repro-serve-request/1.1", REQUEST_SCHEMA)


@pytest.fixture
def typed_trace() -> Trace:
    return Trace(
        [0x10, 0x2F, 0x10, 0x7],
        address_bits=12,
        kinds=[AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH, AccessKind.READ],
        name="typed",
    )


def wire_document(trace: Trace, schema: str = REQUEST_SCHEMA) -> dict:
    return {
        "schema": schema,
        "mode": "single",
        "traces": [trace_to_wire(trace)],
        "budgets": [0],
    }


def decode_error(document: dict) -> str:
    with pytest.raises(ProtocolError) as excinfo:
        request_from_wire(document)
    return str(excinfo.value)


class TestPinnedErrorText:
    """Error text of the item-by-item decoder, recorded before the bulk one."""

    @pytest.mark.parametrize(
        "addresses, message",
        [
            ([1, True, 3], "trace.addresses[1] must be an integer"),
            ([1, 2.0], "trace.addresses[1] must be an integer"),
            ([1, "0x10"], "trace.addresses[1] must be an integer"),
            ([None], "trace.addresses[0] must be an integer"),
            ([1, -4, 2], "trace: trace addresses must be non-negative"),
            ([1, 16], "trace: address 0x10 does not fit in 4 bits"),
            ({"a": 1}, "trace.addresses must be a list"),
        ],
    )
    def test_address_errors(self, tiny_trace, addresses, message) -> None:
        document = wire_document(tiny_trace)
        document["traces"][0]["addresses"] = addresses
        assert decode_error(document) == message

    @pytest.mark.parametrize(
        "addresses, message",
        [
            ([1, 2**63], "trace: address 0x8000000000000000 does not fit in 63 bits"),
            (
                [3, 2**64 + 5, 2**63],
                "trace: address 0x10000000000000005 does not fit in 63 bits",
            ),
            ([-(2**64)], "trace: trace addresses must be non-negative"),
        ],
    )
    def test_addresses_beyond_64_bits_are_protocol_errors(
        self, tiny_trace, addresses, message
    ) -> None:
        document = wire_document(tiny_trace)
        document["traces"][0]["addresses"] = addresses
        assert decode_error(document) == message

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ([0, 3], "trace.kinds: 3 is not a valid AccessKind"),
            ([-1, 0], "trace.kinds: -1 is not a valid AccessKind"),
            (
                [2**70, 0],
                "trace.kinds: 1180591620717411303424 is not a valid AccessKind",
            ),
            ([True, 0], "trace.kinds: trace.kinds[] must be an integer"),
            ([0, 1.0], "trace.kinds: trace.kinds[] must be an integer"),
            (["1", 0], "trace.kinds: trace.kinds[] must be an integer"),
            ("01", "trace.kinds: trace.kinds[] must be an integer"),
            # the first bad kind is named, whatever is wrong with it
            ([5, "a"], "trace.kinds: 5 is not a valid AccessKind"),
            ([0], "trace: kinds length 1 != addresses length 2"),
        ],
    )
    def test_kind_errors(self, tiny_trace, kinds, message) -> None:
        document = wire_document(tiny_trace)
        document["traces"][0].update(addresses=[1, 2], kinds=kinds)
        assert decode_error(document) == message

    def test_field_errors_keep_their_order(self, tiny_trace) -> None:
        document = wire_document(tiny_trace)
        document["traces"][0].update(addresses=[1, -2], address_bits="4")
        assert decode_error(document) == "trace: trace.address_bits must be an integer"
        document = wire_document(tiny_trace)
        document["traces"][0].update(addresses=[1, 2**63], name=5)
        assert decode_error(document) == "trace: trace.name must be a string"

    @pytest.mark.parametrize(
        "addresses, message",
        [
            ([1, True, 3], "append.addresses[1] must be an integer"),
            ([1, 2.0], "append.addresses[1] must be an integer"),
            ([1, "0x10"], "append.addresses[1] must be an integer"),
            ({"a": 1}, "append.addresses must be a list"),
        ],
    )
    def test_append_errors(self, addresses, message) -> None:
        with pytest.raises(ProtocolError) as excinfo:
            parse_append({"addresses": addresses})
        assert str(excinfo.value) == message

    def test_append_passes_plain_ints_through(self) -> None:
        params = parse_append({"addresses": [3, 0, 2**70, -1]})
        assert params == {"addresses": [3, 0, 2**70, -1], "checkpoint": False}


class TestPinnedKeys:
    """Dedup keys recorded before the bulk decoder and the one-decode daemon."""

    TINY = "a65a7ab0ddbd2a2f2b41cc8bca945e6239635c7b53f880b9aa6821f35be90128"
    TYPED = "688770fc8da6982d35fc32b0b001c137b5f6f0d3ac01cbe963e23656c664968d"

    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_revision_fixtures(self, tiny_trace, typed_trace, schema) -> None:
        assert request_key(wire_document(tiny_trace, schema)) == self.TINY
        assert request_key(wire_document(typed_trace, schema)) == self.TYPED

    def test_scenario_fixture(self, typed_trace) -> None:
        document = wire_document(typed_trace)
        document.update(
            percents=[5.0],
            budgets=[0, 2],
            scenario={"policy": "fifo", "l2_depth": 8, "cost_model": "energy"},
        )
        assert request_key(document) == (
            "9d1624bc49dc44b2faab6c8ba5a89b2bb81c4a790b76c62e9e1850dee142435d"
        )

    def test_max_level_fixture(self, tiny_trace) -> None:
        document = wire_document(tiny_trace, "repro-serve-request/1.1")
        document.update(max_level=3, engine="serial")
        assert request_key(document) == (
            "31589be2d93bff3f24d96aab2afc25fd13671a2324de3384269b179ae83a6567"
        )

    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_decoded_request_keys_like_its_document(self, typed_trace, schema) -> None:
        document = wire_document(typed_trace, schema)
        assert request_key(request_from_wire(document)) == request_key(document)


class TestTraceCodecBulk:
    def test_to_wire_matches_per_reference_encoding(self, typed_trace) -> None:
        wire = trace_to_wire(typed_trace)
        indices = range(len(typed_trace))
        assert wire["addresses"] == [typed_trace[i] for i in indices]
        assert wire["kinds"] == [typed_trace.kind(i).value for i in indices]
        assert all(type(item) is int for item in wire["addresses"] + wire["kinds"])

    def test_round_trip_keeps_kinds_width_and_name(self, typed_trace) -> None:
        rebuilt = trace_from_wire(trace_to_wire(typed_trace))
        assert rebuilt == typed_trace
        assert rebuilt.kinds == typed_trace.kinds
        assert (rebuilt.name, rebuilt.address_bits) == ("typed", 12)

    def test_int_subclasses_still_accepted(self, tiny_trace) -> None:
        wire = trace_to_wire(tiny_trace)
        wire["addresses"] = [AccessKind.WRITE.value, _Int(3)]
        wire["kinds"] = [_Int(2), 0]
        rebuilt = trace_from_wire(wire)
        assert list(rebuilt) == [1, 3]
        assert rebuilt.kinds == [AccessKind.FETCH, AccessKind.READ]


class _Int(int):
    """An int subclass: accepted by the item-by-item checks, so still valid."""


class TestOneDecodePerRequest:
    def test_pool_receives_the_decoded_request(self, live_server, tiny_request) -> None:
        received = []
        lock = threading.Lock()

        def execute(request, store_root=None):
            with lock:
                received.append(request)
            return {
                "schema": RESPONSE_SCHEMA,
                "report": {"budgets": list(request.budgets)},
            }

        server = live_server(pool=WorkerPool(workers=2, kind="thread", execute=execute))
        client = server.client()
        client.explore_wire(request_to_wire(tiny_request))
        client.explore_batch_wire([request_to_wire(tiny_request)] * 2)
        assert len(received) == 2  # the two batch twins dedupe into one
        assert all(isinstance(r, ExplorationRequest) for r in received)
        assert all(r.traces == tiny_request.traces for r in received)

    def test_daemon_decodes_each_request_once(
        self, live_server, tiny_request, monkeypatch
    ) -> None:
        calls = []
        decode = protocol.request_from_wire

        def counting(document):
            calls.append(document)
            return decode(document)

        monkeypatch.setattr(protocol, "request_from_wire", counting)
        monkeypatch.setattr("repro.serve.server.request_from_wire", counting)
        server = live_server(pool=WorkerPool(workers=1, kind="inline"))
        client = server.client()
        client.explore_wire(request_to_wire(tiny_request))
        assert len(calls) == 1
        client.explore_batch_wire([request_to_wire(tiny_request)] * 3)
        assert len(calls) == 4


class TestHostileAddresses:
    """Addresses beyond 64-bit signed range answer 400 on both routes."""

    def _huge(self, tiny_request) -> dict:
        wire = request_to_wire(tiny_request)
        wire["traces"][0]["addresses"][3] = 2**64
        return wire

    def test_explore_route(self, live_server, tiny_request) -> None:
        server = live_server(pool=WorkerPool(workers=1, kind="inline"))
        client = server.client()
        with pytest.raises(ServeError) as excinfo:
            client.explore_wire(self._huge(tiny_request))
        assert excinfo.value.status == 400
        assert "does not fit in 63 bits" in str(excinfo.value)
        assert client.metrics()["serve_errors_total"] == 1
        # the daemon is still answering
        assert client.explore(tiny_request).budgets == (0, 1)

    def test_batch_route(self, live_server, tiny_request) -> None:
        server = live_server(pool=WorkerPool(workers=1, kind="inline"))
        client = server.client()
        with pytest.raises(ServeError) as excinfo:
            client.explore_batch_wire(
                [request_to_wire(tiny_request), self._huge(tiny_request)]
            )
        assert excinfo.value.status == 400
        assert "does not fit in 63 bits" in str(excinfo.value)
        metrics = client.metrics()
        assert metrics["serve_errors_total"] == 1
        assert metrics["serve_requests_total"] == 0
