"""The artifact store: tiers, eviction, quarantine, concurrency, warm-start."""

import multiprocessing

import pytest

from repro.core.engines import EngineInputs, compute_histograms
from repro.core.explorer import AnalyticalCacheExplorer
from repro.obs import Recorder
from repro.store import (
    ArtifactKey,
    ArtifactStore,
    HISTOGRAMS_CODEC,
    QUARANTINE_DIR,
    default_cache_dir,
    trace_digest,
)
from repro.store.codec import pack_entry
from repro.trace.synthetic import zipf_trace


def _make_trace(seed=21):
    trace = zipf_trace(600, 50, seed=seed)
    trace.name = f"zipf-{seed}"
    return trace


def _histograms_entry(trace):
    """A real (key, value) pair for store exercises."""
    histograms = compute_histograms("serial", EngineInputs(trace))
    key = ArtifactKey.for_stage(
        trace_digest(trace),
        HISTOGRAMS_CODEC.stage,
        HISTOGRAMS_CODEC.version,
        max_level="full",
    )
    return key, histograms


class TestTiers:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        trace = _make_trace()
        key, histograms = _histograms_entry(trace)
        assert store.get(key, HISTOGRAMS_CODEC) is None
        store.put(key, HISTOGRAMS_CODEC, histograms)
        got = store.get(key, HISTOGRAMS_CODEC)
        assert got == histograms
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1

    def test_contains_checks_presence_without_counting(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(_make_trace())
        assert not store.contains(key)
        store.put(key, HISTOGRAMS_CODEC, histograms)
        assert store.contains(key)
        assert ArtifactStore(tmp_path / "s").contains(key)  # on disk
        assert store.stats.hits == store.stats.misses == 0

    def test_memory_tier_skips_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(_make_trace())
        store.put(key, HISTOGRAMS_CODEC, histograms)
        first = store.get(key, HISTOGRAMS_CODEC)
        assert first is store.get(key, HISTOGRAMS_CODEC)  # decoded object reused
        assert store.stats.memory_hits >= 2  # put seeds the memory tier

    def test_fresh_instance_reads_from_disk(self, tmp_path):
        trace = _make_trace()
        key, histograms = _histograms_entry(trace)
        ArtifactStore(tmp_path / "s").put(key, HISTOGRAMS_CODEC, histograms)
        cold = ArtifactStore(tmp_path / "s")
        got = cold.get(key, HISTOGRAMS_CODEC)
        assert got == histograms
        assert cold.stats.memory_hits == 0
        assert cold.stats.bytes_read > 0

    def test_memory_tier_can_be_disabled(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", memory_entries=0)
        key, histograms = _histograms_entry(_make_trace())
        store.put(key, HISTOGRAMS_CODEC, histograms)
        store.get(key, HISTOGRAMS_CODEC)
        assert store.stats.memory_hits == 0

    def test_recorder_counters_flow(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        recorder = Recorder()
        key, histograms = _histograms_entry(_make_trace())
        store.get(key, HISTOGRAMS_CODEC, recorder=recorder)
        store.put(key, HISTOGRAMS_CODEC, histograms, recorder=recorder)
        fresh = ArtifactStore(tmp_path / "s")
        fresh.get(key, HISTOGRAMS_CODEC, recorder=recorder)
        assert recorder.counters["store_misses"] == 1
        assert recorder.counters["store_hits"] == 1
        assert recorder.counters["store_bytes_written"] > 0
        assert recorder.counters["store_bytes_read"] > 0


class TestEviction:
    def test_lru_eviction_under_cap(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_bytes=None)
        entries = []
        for seed in (1, 2, 3):
            key, histograms = _histograms_entry(_make_trace(seed))
            store.put(key, HISTOGRAMS_CODEC, histograms)
            entries.append(key)
        total = store.total_bytes()
        assert total > 0
        # Touch the first entry so it becomes most-recently-used on disk.
        fresh = ArtifactStore(tmp_path / "s")
        fresh.get(entries[0], HISTOGRAMS_CODEC)
        evicted = fresh.prune(max_bytes=total // 2)
        assert evicted >= 1
        assert fresh.total_bytes() <= total // 2
        assert fresh.stats.evictions == evicted
        # The freshly touched entry survived; an untouched one went first.
        survivors = {entry.path.stem for entry in fresh.entries()}
        assert entries[0].digest in survivors

    def test_put_auto_prunes_to_cap(self, tmp_path):
        key1, histograms1 = _histograms_entry(_make_trace(1))
        probe = ArtifactStore(tmp_path / "probe", max_bytes=None)
        probe.put(key1, HISTOGRAMS_CODEC, histograms1)
        size = probe.total_bytes()
        store = ArtifactStore(tmp_path / "s", max_bytes=int(size * 1.5))
        store.put(key1, HISTOGRAMS_CODEC, histograms1)
        key2, histograms2 = _histograms_entry(_make_trace(2))
        store.put(key2, HISTOGRAMS_CODEC, histograms2)
        assert store.total_bytes() <= int(size * 1.5)
        assert store.stats.evictions >= 1

    def test_clear_removes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(_make_trace())
        store.put(key, HISTOGRAMS_CODEC, histograms)
        assert store.clear() == 1
        assert store.entries() == []
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.get(key, HISTOGRAMS_CODEC) is None


class TestCorruption:
    def _entry_file(self, store):
        entries = store.entries()
        assert len(entries) == 1
        return entries[0].path

    def test_truncated_entry_is_a_quarantined_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(_make_trace())
        store.put(key, HISTOGRAMS_CODEC, histograms)
        path = self._entry_file(store)
        path.write_bytes(path.read_bytes()[:-7])
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.get(key, HISTOGRAMS_CODEC) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        quarantine = (tmp_path / "s" / QUARANTINE_DIR)
        assert quarantine.is_dir() and any(quarantine.iterdir())
        assert not path.exists()

    def test_bitflipped_entry_is_a_quarantined_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(_make_trace())
        store.put(key, HISTOGRAMS_CODEC, histograms)
        path = self._entry_file(store)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.get(key, HISTOGRAMS_CODEC) is None
        assert fresh.stats.corrupt == 1
        assert not path.exists()

    def test_recompute_after_quarantine_recovers(self, tmp_path):
        """A corrupt entry degrades to recompute-and-rewrite, not an error."""
        trace = _make_trace()
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(trace)
        store.put(key, HISTOGRAMS_CODEC, histograms)
        path = self._entry_file(store)
        path.write_bytes(b"RARTgarbage")
        fresh = ArtifactStore(tmp_path / "s")
        assert fresh.get(key, HISTOGRAMS_CODEC) is None
        fresh.put(key, HISTOGRAMS_CODEC, histograms)
        again = ArtifactStore(tmp_path / "s")
        assert again.get(key, HISTOGRAMS_CODEC) == histograms


def _concurrent_writer(root, seed, results):
    trace = _make_trace(seed)
    key, histograms = _histograms_entry(trace)
    store = ArtifactStore(root)
    store.put(key, HISTOGRAMS_CODEC, histograms)
    got = store.get(key, HISTOGRAMS_CODEC)
    results.put((seed, got is not None and got == histograms))


class TestConcurrency:
    def test_two_process_writers_same_trace(self, tmp_path):
        """Two processes racing on the same key both succeed (atomic rename)
        and leave one valid entry behind."""
        root = str(tmp_path / "shared")
        results = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_concurrent_writer, args=(root, 77, results)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        outcomes = [results.get(timeout=10) for _ in range(2)]
        assert all(ok for _, ok in outcomes)
        # Exactly one live entry for the shared key, and it decodes.
        trace = _make_trace(77)
        key, histograms = _histograms_entry(trace)
        reader = ArtifactStore(root)
        assert len(reader.entries()) == 1
        assert reader.get(key, HISTOGRAMS_CODEC) == histograms
        assert reader.stats.corrupt == 0


def _overfilling_writer(root, seeds):
    """A second writer with no cap of its own."""
    store = ArtifactStore(root, max_bytes=None)
    for seed in seeds:
        key, histograms = _histograms_entry(_make_trace(seed))
        store.put(key, HISTOGRAMS_CODEC, histograms)


def _blob_size(histograms):
    return len(pack_entry(HISTOGRAMS_CODEC.version, HISTOGRAMS_CODEC.encode(histograms)))


class TestLedger:
    def test_puts_under_the_ledger_do_not_list_the_store(self, tmp_path, monkeypatch):
        key, histograms = _histograms_entry(_make_trace(1))
        size = _blob_size(histograms)
        store = ArtifactStore(tmp_path / "s", max_bytes=2 * size + size // 2)
        scans = []
        original = ArtifactStore._scan
        monkeypatch.setattr(
            ArtifactStore,
            "_scan",
            lambda self: scans.append(1) or original(self),
        )
        store.put(key, HISTOGRAMS_CODEC, histograms)  # the first put in this process scans
        store.put(key, HISTOGRAMS_CODEC, histograms)  # overwrite: the ledger over-counts
        assert len(scans) == 1
        # prune and clear replace the ledger with what they found, so
        # the next puts fit under the cap without another scan.
        store.prune()
        store.put(key, HISTOGRAMS_CODEC, histograms)
        assert len(scans) == 2
        store.clear()
        store.put(key, HISTOGRAMS_CODEC, histograms)
        store.put(key, HISTOGRAMS_CODEC, histograms)
        assert len(scans) == 3
        assert store.total_bytes() == size

    def test_other_writer_overfill_is_pruned_by_next_over_ledger_put(self, tmp_path):
        root = str(tmp_path / "s")
        own = [_histograms_entry(_make_trace(seed)) for seed in range(101, 105)]
        sizes = [_blob_size(histograms) for _, histograms in own]
        cap = sizes[0] + sizes[1] + sizes[2] + sizes[3] // 2
        first = ArtifactStore(root, max_bytes=cap)
        first.put(own[0][0], HISTOGRAMS_CODEC, own[0][1])
        writer = multiprocessing.Process(
            target=_overfilling_writer, args=(root, range(201, 209))
        )
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == 0
        assert first.total_bytes() > cap
        # The ledger does not see the other writer's bytes: puts that
        # keep it under the cap leave the root over the cap.
        for key, histograms in own[1:3]:
            first.put(key, HISTOGRAMS_CODEC, histograms)
            assert first.total_bytes() > cap
        assert first.stats.evictions == 0
        # This put takes the ledger past the cap: it scans and prunes.
        first.put(own[3][0], HISTOGRAMS_CODEC, own[3][1])
        assert first.total_bytes() <= cap
        assert first.stats.evictions > 0


class TestWarmStart:
    def test_second_exploration_hits_and_matches(self, tmp_path):
        trace = _make_trace()
        store = ArtifactStore(tmp_path / "s")
        cold = AnalyticalCacheExplorer(trace, store=store, engine="serial")
        cold_result = cold.explore(4)
        assert store.stats.puts > 0
        warm_store = ArtifactStore(tmp_path / "s")  # cold memory tier
        warm = AnalyticalCacheExplorer(trace, store=warm_store, engine="serial")
        warm_result = warm.explore(4)
        assert warm_store.stats.hits > 0
        assert warm_store.stats.puts == 0
        assert warm_result.to_json_dict() == cold_result.to_json_dict()

    def test_warm_start_crosses_engines(self, tmp_path):
        trace = _make_trace()
        store = ArtifactStore(tmp_path / "s")
        serial = AnalyticalCacheExplorer(
            trace, store=store, engine="serial"
        ).explore(2)
        for engine in (
            "streaming",
            "parallel",
            "parallel-shm",
            "vectorized",
            "auto",
            "bitmask",
        ):
            warm_store = ArtifactStore(tmp_path / "s")
            result = AnalyticalCacheExplorer(
                trace, store=warm_store, engine=engine
            ).explore(2)
            assert result.to_json_dict() == serial.to_json_dict(), engine
            assert warm_store.stats.hits > 0, engine

    def test_bounded_max_level_truncates_full_entry(self, tmp_path):
        trace = _make_trace()
        store = ArtifactStore(tmp_path / "s")
        AnalyticalCacheExplorer(trace, store=store, engine="serial").explore(0)
        warm_store = ArtifactStore(tmp_path / "s")
        bounded = AnalyticalCacheExplorer(
            trace, max_depth=4, store=warm_store, engine="serial"
        )
        reference = AnalyticalCacheExplorer(
            trace, max_depth=4, engine="serial"
        )
        assert warm_store.stats.puts == 0 or warm_store.stats.hits > 0
        assert bounded.explore(0).to_json_dict() == reference.explore(0).to_json_dict()
        assert warm_store.stats.hits > 0

    def test_histograms_stored_names_what_load_histograms_reads(self, tmp_path):
        from repro.core.engines import EngineInputs

        trace = _make_trace()
        store = ArtifactStore(tmp_path / "s")
        inputs = EngineInputs(trace, store=store)
        assert not inputs.histograms_stored()
        AnalyticalCacheExplorer(trace, store=store, engine="serial").explore(0)
        before = store.stats.as_dict()
        # The full entry covers every bound.
        assert inputs.histograms_stored()
        assert inputs.histograms_stored(max_level=3)
        assert store.stats.as_dict() == before  # nothing read or counted
        assert EngineInputs(trace).histograms_stored() is False  # no store

    def test_stats_describe_and_default_dir(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "s")
        key, histograms = _histograms_entry(_make_trace())
        store.put(key, HISTOGRAMS_CODEC, histograms)
        summary = store.describe()
        assert summary["entries"] == 1
        assert summary["by_stage"]["histograms"]["entries"] == 1
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == str(tmp_path / "env")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir().startswith(str(tmp_path / "xdg"))
