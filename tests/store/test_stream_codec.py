"""StreamCheckpointCodec: round-trips, validation, store integration."""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core.streaming import StreamingState
from repro.store import ArtifactStore
from repro.store.codec import (
    STAGE_CODECS,
    STREAM_CHECKPOINT_CODEC,
    CorruptArtifact,
)
from repro.stream import checkpoint_key

ADDRESSES = [1, 2, 3, 1, 2, 3, 7, 1, 9, 2, 3, 7, 1, 5, 2, 3]


def loaded_state(max_level=None, addresses=ADDRESSES) -> StreamingState:
    state = StreamingState(4, max_level=max_level)
    state.append(addresses)
    return state


class TestRoundTrip:
    @pytest.mark.parametrize("max_level", [None, 0, 2, 99])
    def test_snapshot_roundtrip_preserves_everything(self, max_level) -> None:
        state = loaded_state(max_level)
        blob = STREAM_CHECKPOINT_CODEC.encode(state.snapshot())
        restored = StreamingState.from_snapshot(
            STREAM_CHECKPOINT_CODEC.decode(blob)
        )
        assert restored.content_digest == state.content_digest
        assert restored.histograms() == state.histograms()
        assert restored.stack_addresses() == state.stack_addresses()
        assert restored.max_level == state.max_level
        # The restored state must remain appendable, bit-identically.
        state.append([11, 1, 2])
        restored.append([11, 1, 2])
        assert restored.histograms() == state.histograms()
        assert restored.content_digest == state.content_digest

    def test_empty_state_roundtrip(self) -> None:
        state = StreamingState(4)
        blob = STREAM_CHECKPOINT_CODEC.encode(state.snapshot())
        restored = StreamingState.from_snapshot(
            STREAM_CHECKPOINT_CODEC.decode(blob)
        )
        assert restored.total_refs == 0
        assert restored.content_digest == state.content_digest

    def test_encode_is_deterministic(self) -> None:
        a = STREAM_CHECKPOINT_CODEC.encode(loaded_state().snapshot())
        b = STREAM_CHECKPOINT_CODEC.encode(loaded_state().snapshot())
        assert a == b

    def test_registered_in_stage_codecs(self) -> None:
        assert (
            STAGE_CODECS[STREAM_CHECKPOINT_CODEC.stage]
            is STREAM_CHECKPOINT_CODEC
        )


class TestWideAddresses:
    def test_bytes_below_two_to_the_63_are_unchanged(self) -> None:
        """The stack is encoded unsigned; below 2**63 the bytes equal the
        signed encoding earlier checkpoints used (SHA-256 pins)."""
        narrow = STREAM_CHECKPOINT_CODEC.encode(loaded_state().snapshot())
        wide_state = StreamingState(64, max_level=6)
        wide_state.append([2**63 - 1, 5, 2**62, 2**63 - 1, 5, 0])
        wide = STREAM_CHECKPOINT_CODEC.encode(wide_state.snapshot())
        assert hashlib.sha256(narrow).hexdigest() == (
            "09e234e97485b4dfbbc8b16dfc04c8a1a0e77c028d9b713dbc095aefbcfa9cd8"
        )
        assert hashlib.sha256(wide).hexdigest() == (
            "277c3cd4c33733d2be4cebef8391ea368222541339e7da0ed55f7ddd3ffbee5e"
        )

    def test_roundtrip_at_the_top_of_64_bits(self) -> None:
        state = StreamingState(64, max_level=8)
        state.append([2**64 - 1, 0, 2**63, 2**64 - 1, 0])
        blob = STREAM_CHECKPOINT_CODEC.encode(state.snapshot())
        restored = StreamingState.from_snapshot(
            STREAM_CHECKPOINT_CODEC.decode(blob)
        )
        assert restored.stack_addresses() == [0, 2**64 - 1, 2**63]
        assert restored.histograms() == state.histograms()
        assert restored.content_digest == state.content_digest
        assert STREAM_CHECKPOINT_CODEC.encode(restored.snapshot()) == blob


class TestCorruption:
    def test_truncation_raises(self) -> None:
        blob = STREAM_CHECKPOINT_CODEC.encode(loaded_state().snapshot())
        for cut in (0, 8, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CorruptArtifact):
                STREAM_CHECKPOINT_CODEC.decode(blob[:cut])

    def test_trailing_garbage_raises(self) -> None:
        blob = STREAM_CHECKPOINT_CODEC.encode(loaded_state().snapshot())
        with pytest.raises(CorruptArtifact):
            STREAM_CHECKPOINT_CODEC.decode(blob + b"\x00")

    def test_zero_address_bits_raises(self) -> None:
        blob = STREAM_CHECKPOINT_CODEC.encode(loaded_state().snapshot())
        with pytest.raises(CorruptArtifact, match="address_bits"):
            STREAM_CHECKPOINT_CODEC.decode(
                struct.pack("<I", 0) + blob[4:]
            )

    def test_repeated_stack_address_raises(self) -> None:
        snapshot = loaded_state().snapshot()
        snapshot["stack"] = [1] * len(snapshot["stack"])
        blob = STREAM_CHECKPOINT_CODEC.encode(snapshot)
        with pytest.raises(CorruptArtifact, match="repeats"):
            STREAM_CHECKPOINT_CODEC.decode(blob)

    def test_out_of_range_stack_address_raises(self) -> None:
        snapshot = loaded_state().snapshot()
        snapshot["stack"] = [1 << 10] + snapshot["stack"][1:]
        blob = STREAM_CHECKPOINT_CODEC.encode(snapshot)
        with pytest.raises(CorruptArtifact, match="out of range"):
            STREAM_CHECKPOINT_CODEC.decode(blob)

    def test_zero_occurrence_count_raises(self) -> None:
        snapshot = loaded_state().snapshot()
        snapshot["occurrences"] = [0] + snapshot["occurrences"][1:]
        blob = STREAM_CHECKPOINT_CODEC.encode(snapshot)
        with pytest.raises(CorruptArtifact, match="occurrence"):
            STREAM_CHECKPOINT_CODEC.decode(blob)

    def test_occurrences_exceeding_total_raise(self) -> None:
        snapshot = loaded_state().snapshot()
        snapshot["total_refs"] = 1
        blob = STREAM_CHECKPOINT_CODEC.encode(snapshot)
        with pytest.raises(CorruptArtifact, match="exceed"):
            STREAM_CHECKPOINT_CODEC.decode(blob)

    def test_level_count_mismatch_raises(self) -> None:
        snapshot = loaded_state().snapshot()
        snapshot["counts"] = snapshot["counts"][:-1]
        blob = STREAM_CHECKPOINT_CODEC.encode(snapshot)
        with pytest.raises(CorruptArtifact, match="levels"):
            STREAM_CHECKPOINT_CODEC.decode(blob)


class TestStoreIntegration:
    def test_put_get_through_the_store(self, tmp_path) -> None:
        store = ArtifactStore(tmp_path / "store")
        state = loaded_state()
        key = checkpoint_key(state.content_digest, None)
        store.put(key, STREAM_CHECKPOINT_CODEC, state.snapshot())
        snapshot = store.get(key, STREAM_CHECKPOINT_CODEC)
        restored = StreamingState.from_snapshot(snapshot)
        assert restored.histograms() == state.histograms()

    def test_keys_separate_bounds_and_digests(self) -> None:
        state = loaded_state()
        digest = state.content_digest
        assert checkpoint_key(digest, None) != checkpoint_key(digest, 3)
        other = loaded_state(addresses=ADDRESSES[:-1]).content_digest
        assert checkpoint_key(digest, None) != checkpoint_key(other, None)
