"""What the store holds: only the entries answers are read from.

A request stores its per-level histograms (and, for a non-LRU policy,
its per-depth miss tables); the prelude's stripped trace, zero/one
sets and conflict tables are rebuilt from the trace and never stored.
Entries of those stages left by older stores are never read, but
``describe``, ``prune`` and ``clear`` still count, evict and remove
them.
"""

from __future__ import annotations

import os

import pytest

import repro.trace.strip as strip_module
from repro.core import engines
from repro.core.request import ExplorationRequest, explore_request
from repro.obs.recorder import NULL_RECORDER
from repro.scenario import ScenarioSpec
from repro.store import ArtifactKey, ArtifactStore, pack_entry, trace_digest
from repro.trace.synthetic import loop_nest_trace, zipf_trace

#: Stages a request may read or write.
ANSWER_STAGES = {"histograms", "policy-misses"}

#: Stage directories an older store wrote next to ``histograms``.
OLD_STAGES = ("stripped", "zerosets", "mrct", "packed-mrct")


class SpyStore(ArtifactStore):
    """An :class:`ArtifactStore` that records the stage of every get/put."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.got = []
        self.put_stages = []

    def get(self, key, codec, recorder=NULL_RECORDER):
        self.got.append(key.stage)
        return super().get(key, codec, recorder=recorder)

    def put(self, key, codec, value, recorder=NULL_RECORDER) -> None:
        self.put_stages.append(key.stage)
        super().put(key, codec, value, recorder=recorder)


def _trace(seed: int = 3):
    trace = zipf_trace(700, 60, seed=seed)
    trace.name = f"zipf-{seed}"
    return trace


def _request(mode, engine, prelude, store, **scenario):
    spec = ScenarioSpec(engine=engine, prelude=prelude, **scenario)
    if mode == "single":
        return ExplorationRequest(
            traces=(_trace(),), mode="single", budgets=(0, 40),
            store=store, scenario=spec,
        )
    if mode == "linesize":
        return ExplorationRequest(
            traces=(_trace(),), mode="linesize", budgets=(20,),
            line_sizes=(1, 2, 4), store=store, scenario=spec,
        )
    return ExplorationRequest(
        traces=(_trace(3), _trace(4)), mode=mode, budgets=(30,),
        store=store, scenario=spec,
    )


def _answer(report) -> dict:
    document = report.to_json_dict()
    document.pop("store", None)
    return document


class TestColdRequestsStoreOnlyAnswers:
    @pytest.mark.parametrize("prelude", ["auto", "python"])
    @pytest.mark.parametrize("engine", ["serial", "vectorized", "auto"])
    @pytest.mark.parametrize("mode", ["single", "sum", "each", "linesize"])
    def test_only_histograms_are_got_or_put(
        self, tmp_path, mode, engine, prelude
    ) -> None:
        store = SpyStore(tmp_path / "s")
        explore_request(_request(mode, engine, prelude, store))
        assert set(store.got) == {"histograms"}
        assert set(store.put_stages) == {"histograms"}
        assert list(store.describe()["by_stage"]) == ["histograms"]

    def test_fifo_l2_cost_adds_only_policy_misses(self, tmp_path) -> None:
        store = SpyStore(tmp_path / "s")
        explore_request(
            _request(
                "single", "auto", "auto", store,
                policy="fifo", l2_depth=16, cost_model="energy",
            )
        )
        assert set(store.got) <= ANSWER_STAGES
        assert set(store.put_stages) == ANSWER_STAGES
        assert set(store.describe()["by_stage"]) == ANSWER_STAGES


class TestHistogramsMissRerunsThePrelude:
    @pytest.mark.parametrize("engine", ["serial", "vectorized"])
    def test_bounded_then_unbounded_matches_no_store(
        self, tmp_path, engine
    ) -> None:
        store = ArtifactStore(tmp_path / "s")
        bounded = _request("single", engine, "auto", store, max_depth=4)
        unbounded = _request("single", engine, "auto", store)
        assert _answer(explore_request(bounded)) == _answer(
            explore_request(_request("single", engine, "auto", None, max_depth=4))
        )
        assert _answer(explore_request(unbounded)) == _answer(
            explore_request(_request("single", engine, "auto", None))
        )
        assert store.stats.misses >= 2  # the full key missed too


class TestOldStageEntries:
    def _write_old_entries(self, root, trace):
        """Framed entries at the paths an older store used for the
        prelude stages (their payloads are never decoded)."""
        paths = []
        for stage in OLD_STAGES:
            key = ArtifactKey.for_stage(trace_digest(trace), stage, 1)
            path = root / stage / f"{key.digest}.art"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pack_entry(1, b"old " + stage.encode() * 64))
            os.utime(path, ns=(10**9, 10**9))  # used long ago
            paths.append(path)
        return paths

    def test_never_read(self, tmp_path) -> None:
        root = tmp_path / "s"
        trace = _trace()
        paths = self._write_old_entries(root, trace)
        store = SpyStore(root)
        explore_request(_request("single", "auto", "auto", store))
        assert not set(store.got) & set(OLD_STAGES)
        assert all(path.stat().st_mtime_ns == 10**9 for path in paths)
        assert store.stats.corrupt == 0

    def test_counted_pruned_oldest_first_and_cleared(self, tmp_path) -> None:
        root = tmp_path / "s"
        trace = _trace()
        self._write_old_entries(root, trace)
        store = ArtifactStore(root)
        explore_request(_request("single", "auto", "auto", store))
        summary = store.describe()
        assert set(summary["by_stage"]) == set(OLD_STAGES) | {"histograms"}
        assert summary["entries"] == len(OLD_STAGES) + 1
        histograms_bytes = summary["by_stage"]["histograms"]["bytes"]
        assert store.prune(max_bytes=histograms_bytes) == len(OLD_STAGES)
        assert list(store.describe()["by_stage"]) == ["histograms"]
        self._write_old_entries(root, trace)
        assert store.clear() == len(OLD_STAGES) + 1
        assert store.entries() == []


class TestWarmRequestsBuildNoStrip:
    @pytest.fixture
    def no_strip(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a warm request built the strip")

        monkeypatch.setattr(engines, "strip_trace", refuse)
        monkeypatch.setattr(strip_module, "strip_trace_auto", refuse)

    @pytest.mark.parametrize(
        "mode,scenario",
        [("linesize", {}), ("single", {"cost_model": "energy"})],
        ids=["linesize", "cost"],
    )
    @pytest.mark.parametrize("prelude", ["auto", "python"])
    def test_warm_answer_reads_only_histograms(
        self, tmp_path, request, mode, scenario, prelude
    ) -> None:
        root = tmp_path / "s"
        cold = explore_request(
            _request(mode, "auto", prelude, ArtifactStore(root), **scenario)
        )
        request.getfixturevalue("no_strip")
        store = SpyStore(root)
        warm = explore_request(_request(mode, "auto", prelude, store, **scenario))
        assert _answer(warm) == _answer(cold)
        assert set(store.got) == {"histograms"}
        assert store.stats.misses == 0
        assert store.put_stages == []


def test_loop_trace_auto_vectorized_stores_only_histograms(tmp_path) -> None:
    """``auto`` on a long trace runs the fused vectorized path."""
    trace = loop_nest_trace(96, 60)
    store = SpyStore(tmp_path / "s")
    explore_request(ExplorationRequest.single(trace, budget=5, store=store))
    assert set(store.put_stages) == {"histograms"}
