"""TraceSession: append-equivalence, checkpoints, chunked trace I/O.

The tentpole invariant: after **every** append — at every chunk
boundary, under any chunking — a session's histograms are bit-identical
to the batch pipeline run on the concatenation of everything appended
so far.  These tests pin that invariant, the checkpoint/resume
round-trip through the artifact store, and the out-of-core readers the
``repro stream`` CLI is built on.
"""

from __future__ import annotations

import pytest

from repro.core import engines
from repro.core.postlude import optimal_pairs
from repro.core.streaming import StreamDigest, trace_stream_digest
from repro.store import ArtifactStore
from repro.stream import TraceSession, checkpoint_key
from repro.trace.io import (
    DEFAULT_CHUNK_REFS,
    iter_trace_chunks,
    probe_address_bits,
    write_trace,
)
from repro.trace.trace import Trace

PAPER = [0, 1, 2, 3, 0, 1, 4, 5, 0, 1, 2, 3]

CONFLICTY = [1, 2, 3, 1, 2, 3, 7, 1, 9, 2, 3, 7, 1, 5, 2, 3, 11, 1, 2, 13]


def batch_histograms(trace: Trace, max_level=None):
    return engines.compute_histograms(
        "serial", engines.EngineInputs(trace), max_level=max_level
    )


def as_dicts(histograms):
    return {level: dict(h.counts) for level, h in histograms.items()}


class TestAppendEquivalence:
    @pytest.mark.parametrize("addresses", [PAPER, CONFLICTY])
    def test_every_chunk_boundary_matches_batch(self, addresses) -> None:
        """Split at every index i: histograms after each append are exact."""
        trace = Trace(addresses, address_bits=4)
        for i in range(len(addresses) + 1):
            session = TraceSession(4)
            session.append(trace[:i])
            assert as_dicts(session.histograms()) == as_dicts(
                batch_histograms(trace[:i])
            ), f"prefix of {i}"
            session.append(trace[i:])
            assert as_dicts(session.histograms()) == as_dicts(
                batch_histograms(trace)
            ), f"boundary at {i}"

    def test_per_reference_appends(self) -> None:
        """The finest chunking — one reference at a time — stays exact."""
        session = TraceSession(4)
        for index, addr in enumerate(CONFLICTY):
            session.append([addr])
            prefix = Trace(CONFLICTY[: index + 1], address_bits=4)
            assert as_dicts(session.histograms()) == as_dicts(
                batch_histograms(prefix)
            )

    def test_histograms_stay_appendable(self) -> None:
        """Asking for histograms must not freeze or corrupt the state."""
        session = TraceSession(4)
        session.append(PAPER[:6])
        first = as_dicts(session.histograms())
        assert first == as_dicts(session.histograms())  # idempotent
        session.append(PAPER[6:])
        trace = Trace(PAPER, address_bits=4)
        assert as_dicts(session.histograms()) == as_dicts(batch_histograms(trace))

    @pytest.mark.parametrize("max_level", [0, 1, 2, 99])
    def test_bounded_sessions_match_bounded_batch(self, max_level) -> None:
        trace = Trace(CONFLICTY, address_bits=4)
        session = TraceSession(4, max_level=max_level)
        session.append(CONFLICTY[:9])
        session.append(CONFLICTY[9:])
        assert as_dicts(session.histograms()) == as_dicts(
            batch_histograms(trace, max_level=max_level)
        )

    def test_explore_matches_batch_optimal_pairs(self) -> None:
        trace = Trace(CONFLICTY, address_bits=4)
        session = TraceSession(4)
        session.append(trace)
        for budget in (0, 1, 3):
            expected = optimal_pairs(batch_histograms(trace), budget)
            assert session.explore(budget) == expected
        many = session.explore_many((0, 1, 3))
        assert many == {b: session.explore(b) for b in (0, 1, 3)}

    def test_append_counts_and_introspection(self) -> None:
        session = TraceSession(4, name="demo")
        assert session.append(PAPER[:5]) == 5
        assert session.append(PAPER[5:]) == len(PAPER) - 5
        assert session.total_refs == len(PAPER)
        assert session.unique_refs == Trace(PAPER, address_bits=4).unique_count()
        assert session.appends == 2
        assert "demo" in repr(session)

    def test_rejects_out_of_range_addresses(self) -> None:
        session = TraceSession(3)
        with pytest.raises(ValueError, match="does not fit"):
            session.append([1, 2, 8])
        with pytest.raises(ValueError, match="does not fit"):
            session.append([-1])

    @pytest.mark.parametrize(
        "chunk, first_bad",
        [([1, 2, 99], 0x63), ([1, 20, 99], 0x14), ([-3, 1], -0x3)],
        ids=["last", "first-of-two", "negative"],
    )
    @pytest.mark.parametrize("wrap", [list, tuple, iter], ids=["list", "tuple", "iter"])
    def test_rejected_append_changes_nothing(
        self, tmp_path, chunk, first_bad, wrap
    ) -> None:
        """A rejected chunk leaves the histograms, digest and checkpoint
        bytes of a session that never saw it."""
        dirty = TraceSession(4, store=ArtifactStore(tmp_path / "dirty"))
        clean = TraceSession(4, store=ArtifactStore(tmp_path / "clean"))
        dirty.append([1, 2, 3])
        clean.append([1, 2, 3])
        with pytest.raises(ValueError) as err:
            dirty.append(wrap(chunk))
        assert str(err.value) == f"address {first_bad:#x} does not fit in 4 bits"
        assert dirty.histograms()[0].counts == {}
        assert as_dicts(dirty.histograms()) == as_dicts(clean.histograms())
        assert dirty.total_refs == clean.total_refs
        assert dirty.content_digest == clean.content_digest
        assert dirty.checkpoint() == clean.checkpoint()
        (dirty_entry,) = dirty.store.entries()
        (clean_entry,) = clean.store.entries()
        assert dirty_entry.path.read_bytes() == clean_entry.path.read_bytes()


class TestDigest:
    def test_digest_is_split_independent(self) -> None:
        trace = Trace(CONFLICTY, address_bits=4)
        whole = TraceSession(4)
        whole.append(trace)
        for i in range(len(CONFLICTY) + 1):
            split = TraceSession(4)
            split.append(CONFLICTY[:i])
            split.append(CONFLICTY[i:])
            assert split.content_digest == whole.content_digest
        assert whole.content_digest == trace_stream_digest(trace)

    def test_stream_digest_prepass_matches_session(self) -> None:
        digest = StreamDigest(4)
        digest.append(CONFLICTY[:7])
        digest.append(CONFLICTY[7:])
        session = TraceSession(4)
        session.append(CONFLICTY)
        assert digest.content_digest == session.content_digest

    def test_digest_depends_on_order_and_width(self) -> None:
        a = TraceSession(4)
        a.append([1, 2, 3])
        b = TraceSession(4)
        b.append([3, 2, 1])
        wide = TraceSession(5)
        wide.append([1, 2, 3])
        assert len({a.content_digest, b.content_digest, wide.content_digest}) == 3


class TestCheckpointResume:
    def test_roundtrip_and_append_after_resume(self, tmp_path) -> None:
        store = ArtifactStore(tmp_path / "store")
        session = TraceSession(4, store=store)
        session.append(CONFLICTY[:12])
        digest = session.checkpoint()
        assert digest == session.content_digest

        resumed = TraceSession.resume(store, digest)
        assert resumed is not None
        assert as_dicts(resumed.histograms()) == as_dicts(session.histograms())
        resumed.append(CONFLICTY[12:])
        trace = Trace(CONFLICTY, address_bits=4)
        assert as_dicts(resumed.histograms()) == as_dicts(batch_histograms(trace))
        assert resumed.content_digest == trace_stream_digest(trace)

    def test_resume_miss_returns_none(self, tmp_path) -> None:
        store = ArtifactStore(tmp_path / "store")
        assert TraceSession.resume(store, "0" * 64) is None

    def test_checkpoint_without_store_is_noop(self) -> None:
        session = TraceSession(4)
        session.append(PAPER)
        assert session.checkpoint() is None

    def test_bounded_checkpoint_key_is_distinct(self, tmp_path) -> None:
        store = ArtifactStore(tmp_path / "store")
        session = TraceSession(4, max_level=2, store=store)
        session.append(CONFLICTY)
        digest = session.checkpoint()
        assert checkpoint_key(digest, 2) != checkpoint_key(digest, None)
        # The unbounded key was never written; only the bounded resume hits.
        assert TraceSession.resume(store, digest) is None
        resumed = TraceSession.resume(store, digest, max_level=2)
        assert resumed is not None
        assert resumed.max_level == 2


class TestChunkedIO:
    @pytest.mark.parametrize(
        "suffix", [".trace", ".trace.gz", ".rbt", ".rbt.gz", ".din", ".csv"]
    )
    def test_chunks_concatenate_to_the_file(self, tmp_path, suffix) -> None:
        trace = Trace(CONFLICTY, address_bits=4, name="t")
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_refs=7))
        assert all(len(chunk) <= 7 for chunk in chunks)
        flattened = [addr for chunk in chunks for addr in chunk]
        assert flattened == list(trace.addresses)

    def test_probe_address_bits(self, tmp_path) -> None:
        trace = Trace(CONFLICTY, address_bits=4, name="t")
        for suffix, expected in ((".trace", 4), (".rbt", 4), (".din", None)):
            path = tmp_path / f"t{suffix}"
            write_trace(trace, path)
            assert probe_address_bits(path) == expected
        with pytest.raises(ValueError):
            probe_address_bits(tmp_path / "t.unknown")

    def test_chunk_refs_must_be_positive(self, tmp_path) -> None:
        path = tmp_path / "t.trace"
        write_trace(Trace(PAPER, address_bits=4), path)
        with pytest.raises(ValueError):
            list(iter_trace_chunks(path, chunk_refs=0))

    def test_session_over_chunks_matches_whole_file(self, tmp_path) -> None:
        trace = Trace(CONFLICTY * 3, address_bits=4, name="t")
        path = tmp_path / "t.rbt"
        write_trace(trace, path)
        session = TraceSession(probe_address_bits(path))
        for chunk in iter_trace_chunks(path, chunk_refs=5):
            session.append(chunk)
        assert as_dicts(session.histograms()) == as_dicts(batch_histograms(trace))

    def test_default_chunk_refs_sane(self) -> None:
        assert DEFAULT_CHUNK_REFS >= 1
