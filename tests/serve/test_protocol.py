"""Wire-protocol tests: strict codecs, dedup keys, batch envelopes."""

from __future__ import annotations

import pytest

from repro.core.request import ExplorationRequest, explore_request
from repro.scenario import ScenarioSpec
from repro.serve.protocol import (
    BATCH_REQUEST_SCHEMA,
    REQUEST_SCHEMA,
    ProtocolError,
    batch_from_wire,
    request_from_wire,
    request_key,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    trace_from_wire,
    trace_to_wire,
)
from repro.trace.reference import AccessKind
from repro.trace.trace import Trace


def request_fields(request: ExplorationRequest) -> dict:
    wire = request_to_wire(request)
    wire.pop("schema")
    return wire


class TestTraceCodec:
    def test_round_trip_plain(self, tiny_trace: Trace) -> None:
        rebuilt = trace_from_wire(trace_to_wire(tiny_trace))
        assert rebuilt == tiny_trace
        assert rebuilt.name == tiny_trace.name
        assert rebuilt.address_bits == tiny_trace.address_bits

    def test_round_trip_with_kinds(self) -> None:
        trace = Trace(
            [3, 5, 3],
            address_bits=4,
            kinds=[AccessKind.READ, AccessKind.WRITE, AccessKind.READ],
            name="rw",
        )
        rebuilt = trace_from_wire(trace_to_wire(trace))
        assert rebuilt == trace
        assert [rebuilt.kind(i) for i in range(3)] == [
            AccessKind.READ,
            AccessKind.WRITE,
            AccessKind.READ,
        ]

    def test_unknown_field_rejected(self, tiny_trace: Trace) -> None:
        wire = trace_to_wire(tiny_trace)
        wire["color"] = "red"
        with pytest.raises(ProtocolError, match="unknown fields.*color"):
            trace_from_wire(wire)

    def test_missing_field_rejected(self, tiny_trace: Trace) -> None:
        wire = trace_to_wire(tiny_trace)
        del wire["addresses"]
        with pytest.raises(ProtocolError, match="missing field"):
            trace_from_wire(wire)

    def test_bad_kind_rejected(self, tiny_trace: Trace) -> None:
        wire = trace_to_wire(tiny_trace)
        wire["kinds"] = [99] * len(wire["addresses"])
        with pytest.raises(ProtocolError, match="kinds"):
            trace_from_wire(wire)


class TestRequestCodec:
    def test_round_trip_all_fields(self, tiny_trace: Trace) -> None:
        request = ExplorationRequest(
            traces=(tiny_trace,),
            mode="single",
            budgets=(0, 2),
            percents=(5.0,),
            scenario=ScenarioSpec(
                engine="serial",
                prelude="python",
                max_depth=8,
                include_depth_one=True,
            ),
        )
        rebuilt = request_from_wire(request_to_wire(request))
        assert request_fields(rebuilt) == request_fields(request)

    def test_defaults_fill_in(self, tiny_trace: Trace) -> None:
        wire = {
            "schema": REQUEST_SCHEMA,
            "mode": "single",
            "traces": [trace_to_wire(tiny_trace)],
            "budgets": [0],
        }
        request = request_from_wire(wire)
        assert request.scenario == ScenarioSpec()

    def test_unknown_field_rejected(self, tiny_request) -> None:
        wire = request_to_wire(tiny_request)
        wire["budgett"] = [3]
        with pytest.raises(ProtocolError, match="unknown fields.*budgett"):
            request_from_wire(wire)

    def test_wrong_schema_rejected(self, tiny_request) -> None:
        wire = request_to_wire(tiny_request)
        wire["schema"] = "repro-serve-request/999"
        with pytest.raises(ProtocolError, match="schema"):
            request_from_wire(wire)

    def test_semantic_validation_delegated(self, tiny_trace: Trace) -> None:
        # mode arity is the request dataclass's rule; the codec surfaces
        # it as a ProtocolError so the server answers 400, not 500.
        wire = {
            "schema": REQUEST_SCHEMA,
            "mode": "sum",
            "traces": [trace_to_wire(tiny_trace)],
            "budgets": [],
        }
        with pytest.raises(ProtocolError, match="budget"):
            request_from_wire(wire)

    def test_type_errors_rejected(self, tiny_request) -> None:
        wire = request_to_wire(tiny_request)
        wire["budgets"] = ["zero"]
        with pytest.raises(ProtocolError, match="integer"):
            request_from_wire(wire)
        wire = request_to_wire(tiny_request)
        wire["include_depth_one"] = 1  # ints are not booleans on the wire
        with pytest.raises(ProtocolError, match="boolean"):
            request_from_wire(wire)


class TestScenarioWire:
    """The /1.2 scenario block, and byte-compat for /1 and /1.1 clients."""

    def _legacy_wire(self, tiny_trace, schema: str) -> dict:
        return {
            "schema": schema,
            "mode": "single",
            "traces": [trace_to_wire(tiny_trace)],
            "budgets": [0],
        }

    def test_scenario_round_trips(self, tiny_trace) -> None:
        request = ExplorationRequest(
            traces=(tiny_trace,),
            mode="single",
            budgets=(0,),
            scenario=ScenarioSpec(policy="fifo", l2_depth=8, cost_model="time"),
        )
        wire = request_to_wire(request)
        assert wire["schema"] == REQUEST_SCHEMA
        assert wire["scenario"] == {
            "policy": "fifo",
            "l2_depth": 8,
            "cost_model": "time",
        }
        rebuilt = request_from_wire(wire)
        assert rebuilt.scenario == request.scenario

    @pytest.mark.parametrize(
        "schema", ["repro-serve-request/1", "repro-serve-request/1.1"]
    )
    def test_legacy_schemas_answered_byte_identically(
        self, tiny_trace, schema
    ) -> None:
        legacy = request_from_wire(self._legacy_wire(tiny_trace, schema))
        current = request_from_wire(self._legacy_wire(tiny_trace, REQUEST_SCHEMA))
        assert legacy.scenario == current.scenario
        old = response_to_wire(explore_request(legacy))
        new = response_to_wire(explore_request(current))
        assert old == new

    @pytest.mark.parametrize(
        "schema", ["repro-serve-request/1", "repro-serve-request/1.1"]
    )
    def test_scenario_block_rejected_on_legacy_schemas(
        self, tiny_trace, schema
    ) -> None:
        wire = self._legacy_wire(tiny_trace, schema)
        wire["scenario"] = {"policy": "fifo"}
        with pytest.raises(ProtocolError, match="request.scenario requires"):
            request_from_wire(wire)

    def test_out_of_range_scenario_fields_rejected(self, tiny_trace) -> None:
        base = self._legacy_wire(tiny_trace, REQUEST_SCHEMA)
        for bad in (
            {"policy": "mru"},
            {"l2_depth": 12},
            {"cost_model": "carbon"},
            {"policy": 7},
            {"unknown": 1},
        ):
            wire = dict(base)
            wire["scenario"] = bad
            with pytest.raises(ProtocolError):
                request_from_wire(wire)

    def test_dedup_key_unified_across_schema_revisions(self, tiny_trace) -> None:
        docs = [
            self._legacy_wire(tiny_trace, "repro-serve-request/1"),
            self._legacy_wire(tiny_trace, "repro-serve-request/1.1"),
            self._legacy_wire(tiny_trace, REQUEST_SCHEMA),
        ]
        explicit_default = self._legacy_wire(tiny_trace, REQUEST_SCHEMA)
        explicit_default["scenario"] = {
            "policy": "lru",
            "l2_depth": None,
            "cost_model": None,
        }
        docs.append(explicit_default)
        assert len({request_key(d) for d in docs}) == 1

    def test_scenario_changes_the_dedup_key(self, tiny_trace) -> None:
        base = self._legacy_wire(tiny_trace, REQUEST_SCHEMA)
        fifo = dict(base)
        fifo["scenario"] = {"policy": "fifo"}
        costed = dict(base)
        costed["scenario"] = {"cost_model": "energy"}
        assert len({request_key(d) for d in (base, fifo, costed)}) == 3


class TestRequestKey:
    def test_trace_name_does_not_change_key(self, tiny_trace: Trace) -> None:
        renamed = Trace(
            list(tiny_trace.addresses),
            address_bits=tiny_trace.address_bits,
            name="other-name",
        )
        a = ExplorationRequest(traces=(tiny_trace,), mode="single", budgets=(0,))
        b = ExplorationRequest(traces=(renamed,), mode="single", budgets=(0,))
        assert request_key(request_to_wire(a)) == request_key(request_to_wire(b))

    def test_parameters_change_key(self, tiny_trace: Trace) -> None:
        base = ExplorationRequest(traces=(tiny_trace,), mode="single", budgets=(0,))
        keys = {request_key(request_to_wire(base))}
        for variant in (
            ExplorationRequest(traces=(tiny_trace,), mode="single", budgets=(1,)),
            ExplorationRequest(
                traces=(tiny_trace,),
                mode="single",
                budgets=(0,),
                scenario=ScenarioSpec(engine="serial"),
            ),
            ExplorationRequest(
                traces=(tiny_trace,),
                mode="single",
                budgets=(0,),
                scenario=ScenarioSpec(prelude="python"),
            ),
            ExplorationRequest(
                traces=(tiny_trace,), mode="linesize", budgets=(0,)
            ),
        ):
            keys.add(request_key(request_to_wire(variant)))
        assert len(keys) == 5

    def test_trace_content_changes_key(self, tiny_trace: Trace) -> None:
        mutated = Trace(
            list(tiny_trace.addresses[:-1]) + [0],
            address_bits=tiny_trace.address_bits,
            name=tiny_trace.name,
        )
        a = ExplorationRequest(traces=(tiny_trace,), mode="single", budgets=(0,))
        b = ExplorationRequest(traces=(mutated,), mode="single", budgets=(0,))
        assert request_key(request_to_wire(a)) != request_key(request_to_wire(b))

    def test_malformed_document_cannot_be_keyed(self) -> None:
        with pytest.raises(ProtocolError):
            request_key({"schema": REQUEST_SCHEMA})
        with pytest.raises(ProtocolError):
            request_key(["not", "a", "dict"])


class TestResponseCodec:
    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            ("single", {"budgets": (0, 1)}),
            ("sum", {"budgets": (1,)}),
            ("each", {"budgets": (1,)}),
            ("linesize", {"budgets": (2,), "line_sizes": (1, 2, 4)}),
        ],
    )
    def test_report_round_trips_losslessly(self, tiny_trace, mode, kwargs) -> None:
        traces = (tiny_trace,) if mode in ("single", "linesize") else (
            tiny_trace,
            Trace([2, 4, 6, 2, 4, 6, 2], address_bits=4, name="second"),
        )
        request = ExplorationRequest(traces=traces, mode=mode, **kwargs)
        report = explore_request(request)
        rebuilt = response_from_wire(response_to_wire(report))
        assert rebuilt.to_json_dict() == report.to_json_dict()
        assert rebuilt.mode == mode

    def test_manifest_passthrough(self, tiny_request) -> None:
        report = explore_request(tiny_request)
        wire = response_to_wire(report, manifest={"schema": "x", "wall_s": 0.1})
        assert wire["manifest"] == {"schema": "x", "wall_s": 0.1}
        # manifest is optional and ignored by the report decoder
        assert response_from_wire(wire).to_json_dict() == report.to_json_dict()

    def test_unknown_field_rejected(self, tiny_request) -> None:
        wire = response_to_wire(explore_request(tiny_request))
        wire["extra"] = 1
        with pytest.raises(ProtocolError, match="unknown fields"):
            response_from_wire(wire)


class TestBatchEnvelope:
    def test_members_returned_in_order(self, tiny_request) -> None:
        docs = [request_to_wire(tiny_request) for _ in range(3)]
        for i, doc in enumerate(docs):
            doc["budgets"] = [i]
        assert batch_from_wire(
            {"schema": BATCH_REQUEST_SCHEMA, "requests": docs}
        ) == docs

    def test_empty_batch_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="non-empty"):
            batch_from_wire({"schema": BATCH_REQUEST_SCHEMA, "requests": []})

    def test_non_dict_member_rejected(self) -> None:
        with pytest.raises(ProtocolError, match=r"requests\[1\]"):
            batch_from_wire(
                {"schema": BATCH_REQUEST_SCHEMA, "requests": [{}, 7]}
            )

    def test_unknown_envelope_field_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="unknown fields"):
            batch_from_wire(
                {"schema": BATCH_REQUEST_SCHEMA, "requests": [{}], "x": 1}
            )
