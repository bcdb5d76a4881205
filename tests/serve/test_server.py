"""Daemon behavior over real sockets: dedup, batches, error paths."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.request import ExplorationRequest, explore_request
from repro.serve import ServeError, WorkerPool
from repro.serve.protocol import (
    BATCH_REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    request_to_wire,
)
from repro.trace.trace import Trace


def slow_counting_execute(delay: float = 0.4):
    """An execute stub that counts invocations and tags its responses.

    The tag (``calls`` at execution time) makes result-sharing visible:
    if two clients ever got *different* computations, their responses
    would carry different tags.
    """
    state = {"calls": 0}
    lock = threading.Lock()

    def execute(request, store_root=None):
        with lock:
            state["calls"] += 1
            tag = state["calls"]
        time.sleep(delay)
        return {
            "schema": RESPONSE_SCHEMA,
            "report": {"tag": tag, "budgets": list(request.budgets)},
        }

    execute.state = state
    return execute


class TestBasics:
    def test_healthz(self, live_server) -> None:
        server = live_server()
        health = server.client().health()
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert "version" in health

    def test_explore_matches_direct_execution(self, live_server, tiny_request) -> None:
        server = live_server()
        report = server.client().explore(tiny_request)
        direct = explore_request(tiny_request)
        assert report.to_json_dict() == direct.to_json_dict()

    def test_response_carries_manifest(self, live_server, tiny_request) -> None:
        from repro.obs import validate_manifest

        server = live_server()
        response = server.client().explore_wire(request_to_wire(tiny_request))
        validate_manifest(response["manifest"])
        assert response["manifest"]["options"]["mode"] == "single"

    def test_multi_and_linesize_modes_served(self, live_server, tiny_trace) -> None:
        server = live_server()
        client = server.client()
        second = Trace([2, 4, 6, 2, 4, 6, 2], address_bits=4, name="second")
        for request in (
            ExplorationRequest(traces=(tiny_trace, second), mode="sum", budgets=(1,)),
            ExplorationRequest(traces=(tiny_trace,), mode="linesize", budgets=(2,), line_sizes=(1, 2)),
        ):
            report = client.explore(request)
            assert report.to_json_dict() == explore_request(request).to_json_dict()


class TestDedup:
    N = 6

    def test_concurrent_identical_requests_compute_once(
        self, live_server, tiny_request
    ) -> None:
        """The tentpole invariant: N identical in-flight requests ->
        exactly 1 computation, N identical responses, and the dedup
        counter reads N-1."""
        execute = slow_counting_execute(delay=0.5)
        server = live_server(
            pool=WorkerPool(workers=self.N, kind="thread", execute=execute)
        )
        wire = request_to_wire(tiny_request)
        responses = [None] * self.N
        errors = []

        def submit(slot: int) -> None:
            try:
                responses[slot] = server.client().explore_wire(wire)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in range(self.N)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert execute.state["calls"] == 1
        assert all(response == responses[0] for response in responses)
        assert responses[0]["report"]["tag"] == 1
        metrics = server.client().metrics()
        assert metrics["serve_computations_total"] == 1
        assert metrics["serve_dedup_hits_total"] == self.N - 1
        assert metrics["serve_requests_total"] == self.N

    def test_different_requests_not_deduped(self, live_server, tiny_trace) -> None:
        execute = slow_counting_execute(delay=0.2)
        server = live_server(
            pool=WorkerPool(workers=4, kind="thread", execute=execute)
        )
        wires = [
            request_to_wire(
                ExplorationRequest(traces=(tiny_trace,), mode="single", budgets=(k,))
            )
            for k in range(3)
        ]
        threads = [
            threading.Thread(target=server.client().explore_wire, args=(wire,))
            for wire in wires
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert execute.state["calls"] == 3
        metrics = server.client().metrics()
        assert metrics["serve_computations_total"] == 3
        assert metrics["serve_dedup_hits_total"] == 0

    def test_sequential_repeats_recompute(self, live_server, tiny_request) -> None:
        # the table only collapses *concurrent* work; across time that
        # is the artifact store's job.
        execute = slow_counting_execute(delay=0.0)
        server = live_server(
            pool=WorkerPool(workers=2, kind="thread", execute=execute)
        )
        wire = request_to_wire(tiny_request)
        client = server.client()
        client.explore_wire(wire)
        client.explore_wire(wire)
        assert execute.state["calls"] == 2
        assert client.metrics()["serve_dedup_hits_total"] == 0


class TestBatch:
    def test_responses_in_request_order(self, live_server, tiny_trace) -> None:
        server = live_server()
        requests = [
            ExplorationRequest(traces=(tiny_trace,), mode="single", budgets=(k,))
            for k in (2, 0, 1)
        ]
        reports = server.client().explore_batch(requests)
        assert [r.budgets for r in reports] == [(2,), (0,), (1,)]
        for request, report in zip(requests, reports):
            assert report.to_json_dict() == explore_request(request).to_json_dict()

    def test_identical_members_dedupe_within_batch(
        self, live_server, tiny_request
    ) -> None:
        execute = slow_counting_execute(delay=0.1)
        server = live_server(
            pool=WorkerPool(workers=4, kind="thread", execute=execute)
        )
        wire = request_to_wire(tiny_request)
        responses = server.client().explore_batch_wire([wire, wire, wire])
        assert len(responses) == 3
        assert responses[0] == responses[1] == responses[2]
        assert execute.state["calls"] == 1
        metrics = server.client().metrics()
        assert metrics["serve_batch_requests_total"] == 1
        assert metrics["serve_dedup_hits_total"] == 2

    def test_bad_member_fails_whole_batch(self, live_server, tiny_request) -> None:
        server = live_server()
        good = request_to_wire(tiny_request)
        bad = dict(good, engine="no-such-engine")
        with pytest.raises(ServeError) as excinfo:
            server.client().explore_batch_wire([good, bad])
        assert excinfo.value.status == 400


class TestErrorPaths:
    def test_malformed_json_is_400(self, live_server) -> None:
        server = live_server()
        status, body = server.client()._call("POST", "/v1/explore")
        assert status == 400  # empty body is not JSON
        status, _ = server.client()._call(
            "POST", "/v1/explore", {"schema": "wrong"}
        )
        assert status == 400

    def test_unknown_field_is_400_with_detail(self, live_server, tiny_request) -> None:
        server = live_server()
        wire = request_to_wire(tiny_request)
        wire["bogus"] = True
        with pytest.raises(ServeError) as excinfo:
            server.client().explore_wire(wire)
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_unknown_route_is_404(self, live_server) -> None:
        server = live_server()
        status, _ = server.client()._call("GET", "/v2/nothing")
        assert status == 404

    def test_wrong_method_is_405(self, live_server) -> None:
        server = live_server()
        assert server.client()._call("POST", "/healthz", {})[0] == 405
        assert server.client()._call("GET", "/v1/explore")[0] == 405

    def test_worker_failure_is_500(self, live_server, tiny_request) -> None:
        def explode(request, store_root=None):
            raise RuntimeError("worker exploded")

        server = live_server(
            pool=WorkerPool(workers=1, kind="thread", execute=explode)
        )
        with pytest.raises(ServeError) as excinfo:
            server.client().explore_wire(request_to_wire(tiny_request))
        assert excinfo.value.status == 500
        assert "worker exploded" in str(excinfo.value)
        # a failed computation is not cached: the next attempt retries
        with pytest.raises(ServeError):
            server.client().explore_wire(request_to_wire(tiny_request))
        metrics = server.client().metrics()
        assert metrics["serve_errors_total"] == 2
        assert metrics["serve_computations_total"] == 2

    def test_errors_counted(self, live_server) -> None:
        server = live_server()
        server.client()._call("GET", "/missing")
        server.client()._call("POST", "/v1/explore", {"bad": 1})
        assert server.client().metrics()["serve_errors_total"] == 2


class TestMetricsEndpoint:
    def test_scrape_shape(self, live_server, tiny_request) -> None:
        server = live_server()
        client = server.client()
        client.explore(tiny_request)
        text = client.metrics_text()
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_in_flight gauge" in text
        assert 'serve_request_latency_seconds{quantile="0.99"}' in text
        metrics = client.metrics()
        assert metrics["serve_requests_total"] == 1
        assert metrics["serve_request_latency_seconds_count"] == 1
        assert metrics["serve_workers"] == 2
        assert metrics["serve_draining"] == 0
        assert metrics["serve_in_flight"] == 0

    def test_store_counters_aggregate(self, live_server, tiny_request, tmp_path) -> None:
        server = live_server(
            pool=WorkerPool(workers=1, kind="thread", store_root=str(tmp_path / "store"))
        )
        client = server.client()
        client.explore(tiny_request)
        client.explore(tiny_request)  # sequential: warm-started by the store
        metrics = client.metrics()
        assert metrics["serve_store_hits_total"] >= 1
        assert metrics["serve_store_misses_total"] >= 1
