"""Store hits answered by the daemon itself, without the worker pool.

A baseline request whose histograms are stored is answered on a daemon
thread from a store that may only read, one request at a time;
everything else — a miss, a corrupt entry, a non-baseline scenario, a
request arriving while that thread is busy — still goes to the pool
and answers exactly as before.  Daemon-path bodies equal pool-path
bodies apart from the manifest timings.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

import pytest

from repro.core.request import ExplorationRequest, explore_request
from repro.scenario import ScenarioSpec
from repro.serve import WorkerPool, execute_request
from repro.serve import server as server_module
from repro.serve.pool import answer_from_store
from repro.serve.protocol import request_from_wire, request_to_wire
from repro.trace.synthetic import loop_nest_trace


def _refuse(request, store_root=None):
    raise AssertionError("the pool must not be asked")


def _timeless(document):
    """A response document without its manifest timings."""
    if isinstance(document, dict):
        return {
            key: _timeless(value)
            for key, value in document.items()
            if key not in ("wall_s", "duration_s")
        }
    if isinstance(document, list):
        return [_timeless(item) for item in document]
    return document


@pytest.fixture
def trace():
    return loop_nest_trace(24, 12)


@pytest.fixture
def request_(trace):
    return ExplorationRequest.single(trace, budgets=(0, 3), percents=(10,))


@pytest.fixture
def store_root(tmp_path):
    return str(tmp_path / "store")


def _prime(request, store_root) -> None:
    execute_request(request, store_root)


def _store_files(root):
    return sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()
    )


class TestPoolNeverAsked:
    def test_thread_pool_whose_execute_raises(
        self, live_server, request_, store_root
    ) -> None:
        _prime(request_, store_root)
        pool = WorkerPool(workers=1, kind="thread", store_root=store_root, execute=_refuse)
        server = live_server(pool=pool)
        client = server.client()
        report = client.explore(request_)
        assert report.results == explore_request(request_).results
        reports = client.explore_batch([request_, request_])
        assert [r.results for r in reports] == [report.results] * 2
        assert pool.submitted == 0
        metrics = client.metrics()
        assert metrics["serve_store_answers_total"] >= 2
        assert metrics["serve_store_hits_total"] >= 2
        assert metrics["serve_store_misses_total"] == 0
        assert metrics["serve_in_flight"] == 0
        assert (
            metrics["serve_computations_total"] + metrics["serve_dedup_hits_total"]
            == metrics["serve_requests_total"]
            == 3
        )

    def test_process_pool_starts_no_worker(self, live_server, request_, store_root) -> None:
        _prime(request_, store_root)
        pool = WorkerPool(workers=1, kind="process", store_root=store_root)
        server = live_server(pool=pool)
        client = server.client()
        for _ in range(3):
            client.explore(request_)
        assert pool.submitted == 0
        assert not pool._pool._executor._processes
        assert client.metrics()["serve_store_answers_total"] == 3


    def test_bounded_request_covered_only_by_full_entry(
        self, live_server, trace, store_root
    ) -> None:
        full = ExplorationRequest.single(trace, budgets=(0, 2))
        bounded = ExplorationRequest.single(trace, budgets=(0, 2), max_depth=8)
        _prime(full, store_root)
        pool = WorkerPool(workers=1, kind="thread", store_root=store_root, execute=_refuse)
        server = live_server(pool=pool)
        response = server.client().explore_wire(request_to_wire(bounded))
        assert pool.submitted == 0
        # The bounded key misses and the full entry answers, as on the pool.
        assert response["report"]["store"]["misses"] == 1
        expected = execute_request(
            request_from_wire(request_to_wire(bounded)), store_root
        )
        assert _timeless(response) == _timeless(expected)


class TestStillThroughThePool:
    def _serve(self, live_server, store_root):
        pool = WorkerPool(workers=1, kind="thread", store_root=store_root)
        return pool, live_server(pool=pool)

    def test_store_miss(self, live_server, request_, store_root) -> None:
        pool, server = self._serve(live_server, store_root)
        client = server.client()
        report = client.explore(request_)
        assert report.store_stats["misses"] >= 1
        assert pool.submitted == 1
        assert client.metrics()["serve_store_answers_total"] == 0
        # The abandoned attempt wrote nothing the pool did not write.
        client.explore(request_)
        assert pool.submitted == 1
        assert client.metrics()["serve_store_answers_total"] == 1

    def test_corrupt_entry_is_quarantined_by_the_pool(
        self, live_server, request_, store_root, tmp_path
    ) -> None:
        from pathlib import Path

        _prime(request_, store_root)
        root = Path(store_root)
        entries = sorted((root / "histograms").glob("*.art"))
        assert len(entries) == 1
        entries[0].write_bytes(b"garbage" + entries[0].read_bytes()[7:])
        twin = tmp_path / "twin"
        shutil.copytree(root, twin)
        expected = execute_request(request_from_wire(request_to_wire(request_)), str(twin))

        pool, server = self._serve(live_server, store_root)
        response = server.client().explore_wire(request_to_wire(request_))
        assert pool.submitted == 1
        assert response["report"]["store"]["corrupt"] == 1
        assert _timeless(response) == _timeless(expected)
        assert _store_files(root) == _store_files(twin)

    def test_request_arriving_while_the_thread_is_busy(
        self, live_server, trace, store_root, monkeypatch
    ) -> None:
        first = ExplorationRequest.single(trace, budgets=(0, 2))
        second = ExplorationRequest.single(trace, budgets=(0, 5))
        _prime(first, store_root)
        entered, release = threading.Event(), threading.Event()
        real = server_module.answer_from_store

        def held(request, root):
            entered.set()
            assert release.wait(10)
            return real(request, root)

        monkeypatch.setattr(server_module, "answer_from_store", held)
        pool, server = self._serve(live_server, store_root)
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(report=server.client().explore(first))
        )
        thread.start()
        try:
            assert entered.wait(10)
            report = server.client().explore(second)
        finally:
            release.set()
            thread.join(timeout=30)
        assert pool.submitted == 1
        assert report.results == explore_request(second).results
        assert result["report"].results == explore_request(first).results
        assert server.client().metrics()["serve_store_answers_total"] == 1

    def test_sum_with_an_unstored_member_is_not_begun(
        self, trace, store_root, monkeypatch
    ) -> None:
        from repro.serve import pool as pool_module

        _prime(ExplorationRequest.single(trace, budgets=(0,)), store_root)
        other = loop_nest_trace(12, 9)
        request = ExplorationRequest(traces=(trace, other), mode="sum", budgets=(2,))
        monkeypatch.setattr(pool_module, "_respond", _refuse)
        assert answer_from_store(request, store_root) is None

    @pytest.mark.parametrize(
        "scenario",
        [
            ScenarioSpec(policy="fifo"),
            ScenarioSpec(l2_depth=16),
            ScenarioSpec(cost_model="energy"),
        ],
        ids=["fifo", "l2", "cost"],
    )
    def test_non_baseline_scenarios(
        self, live_server, trace, store_root, scenario
    ) -> None:
        request = ExplorationRequest.single(trace, budgets=(0, 4), scenario=scenario)
        pool, server = self._serve(live_server, store_root)
        client = server.client()
        first = client.explore_wire(request_to_wire(request))
        second = client.explore_wire(request_to_wire(request))
        assert pool.submitted == 2
        assert client.metrics()["serve_store_answers_total"] == 0
        assert first["report"]["results"] == second["report"]["results"]
        assert first["report"]["scenario"] == explore_request(request).scenario


class TestSameBodies:
    """Daemon-path bodies against the pool's own code on the same store."""

    def _documents(self, request):
        current = request_to_wire(request)
        v11 = {k: v for k, v in current.items() if k != "scenario"}
        v11["schema"] = "repro-serve-request/1.1"
        v11["max_level"] = 5
        v1 = {k: v for k, v in current.items() if k != "scenario"}
        v1["schema"] = "repro-serve-request/1"
        return {"/1.2": current, "/1.1": v11, "/1": v1}

    def test_every_revision(self, live_server, request_, store_root) -> None:
        documents = self._documents(request_)
        _prime(request_, store_root)
        pool = WorkerPool(workers=1, kind="thread", store_root=store_root, execute=_refuse)
        client = live_server(pool=pool).client()
        for revision, document in documents.items():
            status, body = client._call("POST", "/v1/explore", document)
            assert status == 200, revision
            expected = execute_request(request_from_wire(document), store_root)
            assert _timeless(json.loads(body)) == _timeless(expected), revision
        assert pool.submitted == 0
        # Batch members run concurrently: the one arriving while the
        # daemon thread is busy goes to the pool, with the same body.
        pool = WorkerPool(workers=1, kind="thread", store_root=store_root)
        client = live_server(pool=pool).client()
        status, body = client._call(
            "POST",
            "/v1/explore/batch",
            {"schema": "repro-serve-batch/1", "requests": list(documents.values())},
        )
        assert status == 200
        responses = json.loads(body)["responses"]
        for response, document in zip(responses, documents.values()):
            expected = execute_request(request_from_wire(document), store_root)
            assert _timeless(response) == _timeless(expected)
        assert client.metrics()["serve_store_answers_total"] >= 1

    def test_modes(self, trace, store_root) -> None:
        other = loop_nest_trace(12, 9)
        requests = [
            ExplorationRequest(traces=(trace, other), mode="sum", budgets=(2,)),
            ExplorationRequest(traces=(trace, other), mode="each", budgets=(2,)),
            ExplorationRequest(traces=(trace,), mode="linesize", budgets=(1,)),
        ]
        for request in requests:
            root = f"{store_root}-{request.mode}"
            assert answer_from_store(request, root) is None  # cold
            execute_request(request, root)  # the pool fills the store
            daemon_body = answer_from_store(request, root)
            pool_body = execute_request(request, root)
            assert _timeless(daemon_body) == _timeless(pool_body)


class TestDrainAndGauges:
    def test_drain_returns_a_daemon_path_answer(
        self, live_server, request_, store_root, monkeypatch
    ) -> None:
        _prime(request_, store_root)
        started = threading.Event()
        real = server_module.answer_from_store

        def slow(request, root):
            started.set()
            time.sleep(0.6)
            return real(request, root)

        monkeypatch.setattr(server_module, "answer_from_store", slow)
        pool = WorkerPool(workers=1, kind="thread", store_root=store_root, execute=_refuse)
        server = live_server(pool=pool)
        result = {}

        def submit() -> None:
            try:
                result["report"] = server.client().explore(request_)
            except Exception as exc:  # noqa: BLE001 — reported below
                result["error"] = exc

        thread = threading.Thread(target=submit)
        thread.start()
        assert started.wait(10)
        assert server.client().metrics()["serve_in_flight"] == 1
        future = server.begin_shutdown(drain=True, timeout=30)
        thread.join(timeout=30)
        future.result(timeout=30)
        server.finish_shutdown()
        assert "error" not in result, result.get("error")
        assert result["report"].results == explore_request(request_).results
        assert pool.submitted == 0
        assert server.server.counters()["serve_store_answers_total"] == 1

    def test_counter_starts_at_zero(self, live_server) -> None:
        server = live_server()
        assert server.client().metrics()["serve_store_answers_total"] == 0
        assert server.server.counters()["serve_store_answers_total"] == 0
