"""The ``max_level`` validation sweep: one error, everywhere.

Before this sweep, a negative ``max_level`` produced a different
failure in every corner of the pipeline — ``IndexError`` deep inside
the streaming kernel, ``KeyError: 0`` in the BCAT postlude, and worst
of all a silently *accepted* store key that could persist a poisoned
histogram artifact.  Every entry point now raises the same
``ValueError`` before any work (or any store write) happens.
"""

from __future__ import annotations

import pytest

from repro.core import engines
from repro.core.postlude import compute_level_histograms as bcat_postlude
from repro.core.postlude import validate_max_level
from repro.core.streaming import (
    StreamingState,
    compute_level_histograms_streaming,
)
from repro.core.vectorized import numpy_available
from repro.store import ArtifactStore
from repro.stream import TraceSession, checkpoint_key
from repro.trace.trace import Trace

TRACE = Trace([1, 2, 3, 1, 2, 3, 7, 1, 9, 2, 3, 7], address_bits=4)

NEGATIVES = [-1, -7]

#: The registered engines plus two retired names, now aliases of ``vectorized``.
ENGINES = ("serial", "parallel", "streaming", "vectorized")


def _store_entry_count(store: ArtifactStore) -> int:
    import os

    root = str(store.root)
    return sum(len(files) for _, _, files in os.walk(root))


class TestValidator:
    @pytest.mark.parametrize("level", [None, 0, 1, 64])
    def test_accepts_none_and_non_negative_ints(self, level) -> None:
        assert validate_max_level(level) == level

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_rejects_negatives(self, level) -> None:
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            validate_max_level(level)

    @pytest.mark.parametrize("level", [True, False, 1.5, "2"])
    def test_rejects_non_integers(self, level) -> None:
        with pytest.raises(ValueError, match="must be an integer or None"):
            validate_max_level(level)


class TestEnginesRaiseUniformly:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("level", NEGATIVES)
    def test_registry_path(self, engine, level) -> None:
        inputs = engines.EngineInputs(TRACE)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            engines.compute_histograms(engine, inputs, max_level=level)

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_streaming_direct(self, level) -> None:
        # Regression: this used to be an IndexError from the kernel.
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            compute_level_histograms_streaming(TRACE, max_level=level)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            StreamingState(4, max_level=level)

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_bcat_postlude_direct(self, level) -> None:
        # Regression: this used to be a KeyError: 0 from the postlude.
        inputs = engines.EngineInputs(TRACE)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            bcat_postlude(inputs.zerosets, inputs.mrct, max_level=level)

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_vectorized_direct(self, level) -> None:
        if not numpy_available():
            pytest.skip("NumPy not importable")
        from repro.core.vectorized import compute_level_histograms_vectorized

        inputs = engines.EngineInputs(TRACE)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            compute_level_histograms_vectorized(
                inputs.zerosets, inputs.mrct, max_level=level
            )

    @pytest.mark.parametrize("prelude", engines.PRELUDE_MODES)
    @pytest.mark.parametrize("level", NEGATIVES)
    def test_every_prelude_mode(self, prelude, level) -> None:
        inputs = engines.EngineInputs(TRACE, prelude=prelude)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            engines.compute_histograms("serial", inputs, max_level=level)

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_session_layer(self, level) -> None:
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            TraceSession(4, max_level=level)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            checkpoint_key("0" * 64, level)


class TestStoreKeyPathCannotBePoisoned:
    """A bad level must never become a legitimate-looking store key."""

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_save_histograms_rejects_and_store_stays_empty(
        self, tmp_path, level
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        inputs = engines.EngineInputs(TRACE, store=store)
        histograms = engines.compute_histograms(
            "serial", engines.EngineInputs(TRACE)
        )
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            inputs.save_histograms(histograms, level)
        assert _store_entry_count(store) == 0

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_load_histograms_rejects_before_touching_the_store(
        self, tmp_path, level
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        inputs = engines.EngineInputs(TRACE, store=store)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            inputs.load_histograms(level)

    @pytest.mark.parametrize("level", NEGATIVES)
    def test_engine_compute_with_store_writes_nothing(
        self, tmp_path, level
    ) -> None:
        store = ArtifactStore(tmp_path / "store")
        inputs = engines.EngineInputs(TRACE, store=store)
        with pytest.raises(ValueError, match="max_level must be >= 0"):
            engines.compute_histograms("serial", inputs, max_level=level)
        assert _store_entry_count(store) == 0

    def test_level_key_spelling(self) -> None:
        assert engines.EngineInputs._histogram_level_key(None) == "full"
        assert engines.EngineInputs._histogram_level_key(3) == 3
        with pytest.raises(ValueError):
            engines.EngineInputs._histogram_level_key(-1)


class TestBoundedLevelsStillWork:
    """The sweep must not have broken the legal bounds."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("level", [0, 1, 2, 99])
    def test_engines_agree_on_legal_bounds(self, engine, level) -> None:
        inputs = engines.EngineInputs(TRACE)
        reference = engines.compute_histograms(
            "serial", engines.EngineInputs(TRACE), max_level=level
        )
        result = engines.compute_histograms(engine, inputs, max_level=level)
        assert result == reference
