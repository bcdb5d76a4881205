"""Incremental sessions over real sockets, plus manager/parsing units.

The live tests drive the daemon exactly the way ``repro stream``'s
remote siblings would: create a session, stream chunks, explore after
every append, and cross-check each answer against the batch pipeline
on the concatenation of everything sent so far.
"""

from __future__ import annotations

import pytest

from repro.core import engines
from repro.core.postlude import optimal_pairs
from repro.serve import ServeError, WorkerPool
from repro.serve.protocol import ProtocolError
from repro.serve.sessions import (
    SESSION_SCHEMA,
    SessionError,
    SessionManager,
    parse_append,
    parse_budgets,
    parse_create,
)
from repro.trace.trace import Trace

CHUNKS = [
    [1, 2, 3, 1, 2, 3],
    [7, 1, 9, 2],
    [3, 7, 1, 5, 2, 3],
]


def batch_answers(addresses, budgets):
    trace = Trace(addresses, address_bits=4)
    histograms = engines.compute_histograms(
        "serial", engines.EngineInputs(trace)
    )
    return {
        str(budget): [
            {
                "depth": inst.depth,
                "associativity": inst.associativity,
                "size_words": inst.size_words,
            }
            for inst in optimal_pairs(histograms, budget)
        ]
        for budget in budgets
    }


class TestLiveSessions:
    def test_create_append_explore_lifecycle(self, live_server) -> None:
        server = live_server()
        client = server.client()
        info = client.session_create(address_bits=4, name="lifecycle")
        assert info["total_refs"] == 0
        assert info["name"] == "lifecycle"

        sent: list = []
        for chunk in CHUNKS:
            response = client.session_append(info["id"], chunk)
            sent.extend(chunk)
            assert response["appended"] == len(chunk)
            assert response["session"]["total_refs"] == len(sent)
            answer = client.session_explore(info["id"], budgets=(0, 2))
            assert answer["results"] == batch_answers(sent, (0, 2))

        listed = client.session_list()
        assert [entry["id"] for entry in listed] == [info["id"]]
        client.session_delete(info["id"])
        assert client.session_list() == []

    def test_unknown_session_is_404(self, live_server) -> None:
        server = live_server()
        client = server.client()
        with pytest.raises(ServeError) as err:
            client.session_info("s9999-deadbeef")
        assert err.value.status == 404

    def test_invalid_create_is_400(self, live_server) -> None:
        server = live_server()
        client = server.client()
        for document in (
            {"schema": "bogus", "address_bits": 4},
            {"schema": SESSION_SCHEMA, "address_bits": 0},
            {"schema": SESSION_SCHEMA, "address_bits": 4, "max_level": -1},
        ):
            with pytest.raises(ServeError) as err:
                client._call_json("POST", "/v1/sessions", document)
            assert err.value.status == 400

    def test_out_of_range_append_is_400_and_state_survives(
        self, live_server
    ) -> None:
        server = live_server()
        client = server.client()
        info = client.session_create(address_bits=3)
        client.session_append(info["id"], [1, 2, 3])
        with pytest.raises(ServeError) as err:
            client.session_append(info["id"], [8])
        assert err.value.status == 400
        # The session must still answer and accept further appends.
        answer = client.session_explore(info["id"])
        assert set(answer["results"]) == {"0"}
        client.session_append(info["id"], [4])

    def test_rejected_append_leaves_a_clean_session(
        self, live_server, tmp_path
    ) -> None:
        """A 400 append changes nothing: the session keeps the digest,
        answers and checkpoint bytes of one that never saw the chunk."""
        pool = WorkerPool(workers=1, kind="inline", store_root=tmp_path / "store")
        server = live_server(pool)
        client = server.client()
        dirty = client.session_create(address_bits=4)
        clean = client.session_create(address_bits=4)
        client.session_append(dirty["id"], [1, 2, 3])
        client.session_append(clean["id"], [1, 2, 3])
        with pytest.raises(ServeError) as err:
            client.session_append(dirty["id"], [1, 2, 99])
        assert err.value.status == 400
        assert "address 0x63 does not fit in 4 bits" in str(err.value)
        dirty_info = client.session_info(dirty["id"])
        clean_info = client.session_info(clean["id"])
        assert dirty_info["total_refs"] == clean_info["total_refs"] == 3
        assert dirty_info["digest"] == clean_info["digest"]
        assert client.session_explore(dirty["id"], budgets=(0, 1))["results"] == (
            client.session_explore(clean["id"], budgets=(0, 1))["results"]
        )
        dirty_digest = client.session_append(dirty["id"], [], checkpoint=True)[
            "checkpoint_digest"
        ]
        assert dirty_digest == dirty_info["digest"]
        (entry,) = [p for p in (tmp_path / "store").rglob("*.art")]
        checkpoint = entry.read_bytes()
        # The clean session checkpoints to the same key; its bytes match.
        entry.unlink()
        client.session_append(clean["id"], [], checkpoint=True)
        assert entry.read_bytes() == checkpoint

    def test_wide_address_checkpoint(self, live_server, tmp_path) -> None:
        """A 64-bit session holding addresses >= 2**63 checkpoints and
        resumes (the stack is stored unsigned)."""
        pool = WorkerPool(workers=1, kind="inline", store_root=tmp_path / "store")
        server = live_server(pool)
        client = server.client()
        info = client.session_create(address_bits=64)
        sent = [2**64 - 1, 7, 2**63, 2**64 - 1, 7]
        response = client.session_append(info["id"], sent, checkpoint=True)
        digest = response["checkpoint_digest"]
        assert digest == response["session"]["digest"]
        resumed = client.session_create(address_bits=64, resume=digest)
        assert resumed["total_refs"] == len(sent)
        assert client.session_explore(resumed["id"], budgets=(0,))["results"] == (
            client.session_explore(info["id"], budgets=(0,))["results"]
        )

    def test_checkpoint_without_store_is_400(self, live_server) -> None:
        server = live_server()
        client = server.client()
        info = client.session_create(address_bits=4)
        with pytest.raises(ServeError) as err:
            client.session_append(info["id"], [1, 2], checkpoint=True)
        assert err.value.status == 400

    def test_checkpoint_and_resume_with_store(self, live_server, tmp_path) -> None:
        pool = WorkerPool(workers=2, kind="thread", store_root=tmp_path / "store")
        server = live_server(pool)
        client = server.client()
        info = client.session_create(address_bits=4, name="durable")
        sent = [addr for chunk in CHUNKS for addr in chunk]
        response = client.session_append(info["id"], sent, checkpoint=True)
        digest = response["checkpoint_digest"]
        assert digest == response["session"]["digest"]

        resumed = client.session_create(address_bits=4, resume=digest)
        assert resumed["total_refs"] == len(sent)
        answer = client.session_explore(resumed["id"], budgets=(1,))
        assert answer["results"] == batch_answers(sent, (1,))

    def test_resume_unknown_digest_is_400(self, live_server, tmp_path) -> None:
        pool = WorkerPool(workers=2, kind="thread", store_root=tmp_path / "store")
        server = live_server(pool)
        client = server.client()
        with pytest.raises(ServeError) as err:
            client.session_create(address_bits=4, resume="0" * 64)
        assert err.value.status == 400

    def test_metrics_count_session_traffic(self, live_server) -> None:
        server = live_server()
        client = server.client()
        info = client.session_create(address_bits=4)
        client.session_append(info["id"], [1, 2, 3, 1])
        client.session_explore(info["id"])
        metrics = client.metrics()
        assert metrics["serve_sessions_created_total"] == 1.0
        assert metrics["serve_session_appends_total"] == 1.0
        assert metrics["serve_session_refs_total"] == 4.0
        assert metrics["serve_session_explores_total"] == 1.0
        assert metrics["serve_sessions_open"] == 1.0
        client.session_delete(info["id"])
        assert client.metrics()["serve_sessions_open"] == 0.0

    def test_method_errors(self, live_server) -> None:
        server = live_server()
        client = server.client()
        info = client.session_create(address_bits=4)
        status, _ = client._call("PUT", "/v1/sessions")
        assert status == 405
        status, _ = client._call("GET", f"/v1/sessions/{info['id']}/append")
        assert status == 405
        status, _ = client._call("POST", f"/v1/sessions/{info['id']}/explore")
        assert status == 405
        status, _ = client._call("GET", f"/v1/sessions/{info['id']}/bogus")
        assert status == 404


class TestSessionManager:
    def test_session_cap(self) -> None:
        manager = SessionManager(max_sessions=2)
        manager.create(4)
        manager.create(4)
        with pytest.raises(SessionError, match="session limit"):
            manager.create(4)
        assert len(manager) == 2

    def test_remove_frees_a_slot(self) -> None:
        manager = SessionManager(max_sessions=1)
        managed = manager.create(4)
        manager.remove(managed.id)
        manager.create(4)

    def test_resume_without_store_rejected(self) -> None:
        manager = SessionManager(store_root=None)
        with pytest.raises(SessionError, match="store"):
            manager.create(4, resume="0" * 64)

    def test_resume_width_mismatch_rejected(self, tmp_path) -> None:
        manager = SessionManager(store_root=str(tmp_path / "store"))
        managed = manager.create(4)
        managed.session.append([1, 2, 3])
        digest = managed.session.checkpoint()
        with pytest.raises(SessionError, match="width"):
            manager.create(5, resume=digest)

    def test_invalid_parameters_become_session_errors(self) -> None:
        manager = SessionManager()
        with pytest.raises(SessionError):
            manager.create(0)
        with pytest.raises(SessionError):
            manager.create(4, max_level=-1)

    def test_ids_are_unique_and_opaque(self) -> None:
        manager = SessionManager()
        ids = {manager.create(4).id for _ in range(8)}
        assert len(ids) == 8


class TestWireParsing:
    def test_parse_create_minimal(self) -> None:
        params = parse_create({"schema": SESSION_SCHEMA, "address_bits": 4})
        assert params == {
            "address_bits": 4,
            "max_level": None,
            "name": "",
            "resume": None,
        }

    @pytest.mark.parametrize(
        "document",
        [
            "not a dict",
            {},
            {"schema": SESSION_SCHEMA},
            {"schema": SESSION_SCHEMA, "address_bits": True},
            {"schema": SESSION_SCHEMA, "address_bits": 4, "bogus": 1},
            {"schema": SESSION_SCHEMA, "address_bits": 4, "max_level": -2},
        ],
    )
    def test_parse_create_rejects(self, document) -> None:
        with pytest.raises(ProtocolError):
            parse_create(document)

    def test_parse_append(self) -> None:
        assert parse_append({"addresses": [1, 2]}) == {
            "addresses": [1, 2],
            "checkpoint": False,
        }
        with pytest.raises(ProtocolError):
            parse_append({"addresses": "nope"})
        with pytest.raises(ProtocolError):
            parse_append({"checkpoint": True})

    def test_parse_budgets(self) -> None:
        assert parse_budgets("") == {"budgets": [0], "include_depth_one": False}
        assert parse_budgets("budget=3&budget=0&include_depth_one=true") == {
            "budgets": [3, 0],
            "include_depth_one": True,
        }
        with pytest.raises(ProtocolError):
            parse_budgets("budget=-1")
        with pytest.raises(ProtocolError):
            parse_budgets("bogus=1")
        with pytest.raises(ProtocolError):
            parse_budgets("budget=abc")
