"""Store concurrency: the quarantine/rewrite race and eviction hammering.

The race under test: ``get`` reads corrupt bytes, and between that read
and its quarantine step a concurrent ``put`` atomically installs a
fresh, valid entry at the same path.  The old behavior renamed the path
unconditionally — quarantining (losing) the fresh entry.  The fixed
``_quarantine`` renames first, then compares the moved bytes against
the corrupt blob it actually read, restoring the entry on mismatch.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.store.fs as fs_module
from repro.core.engines import EngineInputs, compute_histograms
from repro.store import (
    ArtifactKey,
    ArtifactStore,
    HISTOGRAMS_CODEC,
    QUARANTINE_DIR,
    trace_digest,
)
from repro.trace.synthetic import zipf_trace


def _entry(seed: int = 5):
    trace = zipf_trace(400, 40, seed=seed)
    trace.name = f"conc-{seed}"
    key = ArtifactKey.for_stage(
        trace_digest(trace),
        HISTOGRAMS_CODEC.stage,
        HISTOGRAMS_CODEC.version,
        max_level="full",
    )
    return key, compute_histograms("serial", EngineInputs(trace))


def _quarantine_count(root) -> int:
    quarantine = root / QUARANTINE_DIR
    if not quarantine.is_dir():
        return 0
    return sum(1 for _ in quarantine.iterdir())


class TestQuarantineRace:
    def test_truly_corrupt_entry_still_quarantined(self, tmp_path) -> None:
        root = tmp_path / "s"
        store = ArtifactStore(root, memory_entries=0)
        key, histograms = _entry()
        store.put(key, HISTOGRAMS_CODEC, histograms)
        path = store._entry_path(key)
        path.write_bytes(b"\x00garbage\x00")
        assert store.get(key, HISTOGRAMS_CODEC) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        assert _quarantine_count(root) == 1

    def test_rewritten_entry_survives_stale_quarantine(
        self, tmp_path, monkeypatch
    ) -> None:
        """A put landing between corrupt-read and quarantine must win."""
        root = tmp_path / "s"
        writer = ArtifactStore(root, memory_entries=0)
        key, histograms = _entry()
        writer.put(key, HISTOGRAMS_CODEC, histograms)
        path = writer._entry_path(key)
        good_blob = path.read_bytes()
        path.write_bytes(b"\x00torn-write\x00")

        real_unpack = fs_module.unpack_entry

        def racing_unpack(blob, version):
            try:
                return real_unpack(blob, version)
            except Exception:
                # deterministic interleave: the concurrent writer repairs
                # the entry after our corrupt read, before our quarantine
                path.write_bytes(good_blob)
                raise

        monkeypatch.setattr(fs_module, "unpack_entry", racing_unpack)
        reader = ArtifactStore(root, memory_entries=0)
        assert reader.get(key, HISTOGRAMS_CODEC) is None  # the read *was* corrupt
        monkeypatch.setattr(fs_module, "unpack_entry", real_unpack)

        # the fresh entry was not quarantined: still readable, no corruption
        assert reader.stats.corrupt == 0
        assert _quarantine_count(root) == 0
        assert path.exists()
        fresh = ArtifactStore(root, memory_entries=0)
        got = fresh.get(key, HISTOGRAMS_CODEC)
        assert got is not None
        assert got == histograms

    def test_quarantine_compares_moved_bytes(self, tmp_path) -> None:
        """Unit-level: _quarantine keeps an entry whose bytes changed."""
        root = tmp_path / "s"
        store = ArtifactStore(root, memory_entries=0)
        key, histograms = _entry()
        store.put(key, HISTOGRAMS_CODEC, histograms)
        path = store._entry_path(key)
        fresh_blob = path.read_bytes()

        store._quarantine(path, ValueError("stale"), corrupt_blob=b"old-bytes")
        assert path.exists()
        assert path.read_bytes() == fresh_blob
        assert store.stats.corrupt == 0
        assert _quarantine_count(root) == 0

        store._quarantine(path, ValueError("real"), corrupt_blob=fresh_blob)
        assert not path.exists()
        assert store.stats.corrupt == 1
        assert _quarantine_count(root) == 1


class TestEvictionHammer:
    @pytest.mark.slow
    def test_two_clients_hammer_one_digest_under_lru_eviction(
        self, tmp_path
    ) -> None:
        """Two clients on the same digest + an LRU evictor: misses are
        fine, corruption/quarantine never happens, nothing crashes."""
        root = tmp_path / "s"
        key, histograms = _entry()
        stop = threading.Event()
        errors = []
        reads = {"hits": 0, "misses": 0}
        lock = threading.Lock()
        client_stores = []

        def client() -> None:
            store = ArtifactStore(root, max_bytes=None, memory_entries=0)
            client_stores.append(store)
            try:
                while not stop.is_set():
                    value = store.get(key, HISTOGRAMS_CODEC)
                    if value is None:
                        with lock:
                            reads["misses"] += 1
                        store.put(key, HISTOGRAMS_CODEC, histograms)
                    else:
                        with lock:
                            reads["hits"] += 1
                        if value != histograms:
                            raise AssertionError("decoded artifact mutated")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def evictor() -> None:
            store = ArtifactStore(root, max_bytes=None, memory_entries=0)
            try:
                while not stop.is_set():
                    store.prune(0)  # evict everything, repeatedly
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=client),
            threading.Thread(target=client),
            threading.Thread(target=evictor),
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors, errors[:3]
        assert reads["hits"] + reads["misses"] > 10  # actually hammered
        # eviction causes misses, never corruption
        assert all(store.stats.corrupt == 0 for store in client_stores)
        assert _quarantine_count(root) == 0
