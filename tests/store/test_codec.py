"""Versioned binary serialization: round-trips and corruption detection."""

import pytest

from repro.core.engines import EngineInputs, compute_histograms
from repro.store import (
    CorruptArtifact,
    HISTOGRAMS_CODEC,
    STAGE_CODECS,
    pack_entry,
    unpack_entry,
)
from repro.trace.synthetic import zipf_trace
from repro.trace.trace import Trace
from tests.conftest import PAPER_TRACE_BITS


@pytest.fixture(
    scope="module",
    params=["paper", "zipf"],
)
def histograms(request):
    """The per-level histograms of a trace."""
    if request.param == "paper":
        trace = Trace.from_bit_strings(PAPER_TRACE_BITS, name="paper-table-1")
    else:
        trace = zipf_trace(800, 60, seed=11)
    return compute_histograms("serial", EngineInputs(trace, prelude="python"))


class TestContainer:
    def test_round_trip(self):
        payload = b"the payload"
        assert unpack_entry(pack_entry(3, payload), 3) == payload

    def test_bad_magic(self):
        blob = b"XXXX" + pack_entry(1, b"p")[4:]
        with pytest.raises(CorruptArtifact, match="magic"):
            unpack_entry(blob, 1)

    def test_truncated_header(self):
        with pytest.raises(CorruptArtifact, match="header"):
            unpack_entry(b"RA", 1)

    def test_truncated_payload(self):
        blob = pack_entry(1, b"some payload bytes")
        with pytest.raises(CorruptArtifact, match="truncated"):
            unpack_entry(blob[:-5], 1)

    def test_flipped_bit_fails_checksum(self):
        blob = bytearray(pack_entry(1, b"sensitive data"))
        blob[-3] ^= 0x10
        with pytest.raises(CorruptArtifact, match="checksum"):
            unpack_entry(bytes(blob), 1)

    def test_codec_version_mismatch(self):
        blob = pack_entry(1, b"old format")
        with pytest.raises(CorruptArtifact, match="version"):
            unpack_entry(blob, 2)


class TestStageCodecs:
    def test_histograms_round_trip(self, histograms):
        decoded = HISTOGRAMS_CODEC.decode(HISTOGRAMS_CODEC.encode(histograms))
        assert sorted(decoded) == sorted(histograms)
        for level, histogram in histograms.items():
            assert decoded[level].level == histogram.level
            assert decoded[level].counts == histogram.counts

    def test_truncated_stage_payload_is_corrupt(self, histograms):
        payload = HISTOGRAMS_CODEC.encode(histograms)
        with pytest.raises(CorruptArtifact):
            HISTOGRAMS_CODEC.decode(payload[: len(payload) // 2])

    def test_trailing_garbage_is_corrupt(self, histograms):
        with pytest.raises(CorruptArtifact, match="trailing"):
            HISTOGRAMS_CODEC.decode(HISTOGRAMS_CODEC.encode(histograms) + b"\x00")

    def test_registry_covers_every_stage(self):
        assert sorted(STAGE_CODECS) == [
            "histograms",
            "policy-misses",
            "stream-checkpoint",
        ]
        for stage, codec in STAGE_CODECS.items():
            assert codec.stage == stage
            assert codec.version >= 1
