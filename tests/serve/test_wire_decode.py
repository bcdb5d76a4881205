"""Bulk wire decoding: pinned error texts, pinned dedup keys, one decode.

The address and kind lists of a request are checked in bulk rather
than item by item.  These tests pin what that must not change: the
error text for every kind of bad element, and the dedup keys of the
``/1``, ``/1.1`` and ``/1.2`` documents.  They also pin what it adds:
an address beyond 64-bit signed range is a clean 400 on both explore
routes, and the daemon decodes each request exactly once.  The retired
``processes`` field is still checked on every revision, then ignored;
an ``address_bits`` wider than a dinero address, or a ``max_level``
deeper than one, is a clean 400.
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
    """Dedup keys of the canonical request dict, which carries no
    ``processes`` (it cannot change an answer)."""

    TINY = "352901990c155640b38a755b09c8de1b849a6bc0bf277eaf7edfcf0c5ceac338"
    TYPED = "bbf86121ee375b5f0d284ba70222de0e56330fd5bd734d3b2a87a5157052dcdc"

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
            "dfa7d491f31f642be04380c0da23ffbad357212056092f8af9d3ad9747670845"
        )

    def test_max_level_fixture(self, tiny_trace) -> None:
        document = wire_document(tiny_trace, "repro-serve-request/1.1")
        document.update(max_level=3, engine="serial")
        assert request_key(document) == (
            "0af71f3cad0a2b87ea736dc97caf5384bc7ee5adcfe64a25478c6534a02ba13d"
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


class TestProcessesField:
    """``processes`` sized the retired parallel engines' worker pools.
    The wire still accepts and checks it on every revision, then drops
    it: it cannot change an answer."""

    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_accepted_and_ignored(self, tiny_trace, schema) -> None:
        plain = wire_document(tiny_trace, schema)
        document = dict(plain, processes=7)
        assert request_key(document) == request_key(plain)
        assert not hasattr(request_from_wire(document), "processes")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"processes": "2"}, "request: request.processes must be an integer"),
            ({"processes": True}, "request: request.processes must be an integer"),
            ({"processes": 2.0}, "request: request.processes must be an integer"),
            ({"processes": 0}, "request: processes must be >= 1"),
            ({"processes": -3}, "request: processes must be >= 1"),
            ({"processes": 0, "max_depth": 7}, "request: processes must be >= 1"),
            (
                {"processes": 0, "prelude": "x"},
                "request: prelude must be one of ('auto', 'fast', 'python'), "
                "got 'x'",
            ),
        ],
    )
    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_errors_keep_their_text(self, tiny_trace, schema, extra, message) -> None:
        document = wire_document(tiny_trace, schema)
        document.update(extra)
        assert decode_error(document) == message

    def test_unknown_engine_still_wins(self, tiny_trace) -> None:
        document = wire_document(tiny_trace)
        document.update(engine="warp", processes=0)
        assert decode_error(document).startswith("request: unknown engine 'warp'")

    def test_documents_differing_in_processes_compute_once(
        self, live_server, tiny_request
    ) -> None:
        server = live_server(pool=WorkerPool(workers=1, kind="inline"))
        client = server.client()
        documents = [
            dict(request_to_wire(tiny_request), processes=processes)
            for processes in (2, 5)
        ]
        first, second = client.explore_batch_wire(documents)
        assert first["report"] == second["report"]
        metrics = client.metrics()
        assert metrics["serve_requests_total"] == 2
        assert metrics["serve_computations_total"] == 1


class TestHostileAddressBits:
    """``address_bits`` above 64 (a dinero address's width) is a clean
    400 on every route that takes one; the daemon keeps answering."""

    HUGE = 2**63

    def test_trace_codec_bound(self, tiny_trace) -> None:
        wire = trace_to_wire(tiny_trace)
        wire["address_bits"] = protocol.MAX_ADDRESS_BITS
        assert trace_from_wire(wire).address_bits == 64
        wire["address_bits"] = 65
        with pytest.raises(ProtocolError) as excinfo:
            trace_from_wire(wire)
        assert str(excinfo.value) == "trace: address_bits must be <= 64, got 65"

    def test_every_route_answers_400(self, live_server, tiny_request) -> None:
        server = live_server(pool=WorkerPool(workers=1, kind="inline"))
        client = server.client()
        hostile = request_to_wire(tiny_request)
        hostile["traces"][0]["address_bits"] = self.HUGE
        calls = [
            lambda: client.explore_wire(hostile),
            lambda: client.explore_batch_wire(
                [request_to_wire(tiny_request), hostile]
            ),
            lambda: client.session_create(self.HUGE),
        ]
        for count, call in enumerate(calls, start=1):
            with pytest.raises(ServeError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert "address_bits must be <= 64" in str(excinfo.value)
            assert client.metrics()["serve_errors_total"] == count
        # the daemon is still answering
        assert client.explore(tiny_request).budgets == (0, 1)
        assert client.session_create(64)["address_bits"] == 64


class TestHostileMaxLevel:
    """A ``max_level`` above 64 (one level per address bit) is a clean
    400 on both explore routes, answered before ``1 << max_level`` is
    evaluated; the daemon keeps answering."""

    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_64_is_accepted(self, tiny_trace, schema) -> None:
        document = dict(wire_document(tiny_trace, schema), max_level=64)
        assert request_from_wire(document).max_depth == 1 << 64

    @pytest.mark.parametrize("level", [65, 2**63])
    @pytest.mark.parametrize("schema", SCHEMAS)
    def test_deeper_is_rejected(self, tiny_trace, schema, level) -> None:
        document = dict(wire_document(tiny_trace, schema), max_level=level)
        assert decode_error(document) == (
            f"request: max_level must be <= 64, got {level}"
        )

    def test_both_routes_answer_400(self, live_server, tiny_request) -> None:
        server = live_server(pool=WorkerPool(workers=1, kind="inline"))
        client = server.client()
        deep = dict(request_to_wire(tiny_request), max_level=65)
        huge = dict(request_to_wire(tiny_request), max_level=2**63)
        calls = [
            lambda: client.explore_wire(deep),
            lambda: client.explore_wire(huge),
            lambda: client.explore_batch_wire([request_to_wire(tiny_request), deep]),
            lambda: client.explore_batch_wire([huge]),
        ]
        for count, call in enumerate(calls, start=1):
            with pytest.raises(ServeError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert "request: max_level must be <= 64, got " in str(excinfo.value)
            assert client.metrics()["serve_errors_total"] == count
        # the daemon is still answering, at the deepest accepted bound too
        assert client.explore(tiny_request).budgets == (0, 1)
        answer = client.explore_wire(dict(request_to_wire(tiny_request), max_level=64))
        assert answer["report"]["budgets"] == [0, 1]
        assert client.metrics()["serve_errors_total"] == len(calls)
