"""Persistent, content-addressed artifact cache for the pipeline.

See :mod:`repro.store.fs` for the store itself, :mod:`repro.store.keys`
for the content-addressing scheme and :mod:`repro.store.codec` for the
versioned binary serialization.  Typical use::

    from repro import ArtifactStore, AnalyticalCacheExplorer

    store = ArtifactStore("~/.cache/repro/store")
    explorer = AnalyticalCacheExplorer(trace, store=store)
    explorer.explore(budget)          # cold: computes and persists
    # ... later, any process, any engine:
    explorer = AnalyticalCacheExplorer(trace, store=store)
    explorer.explore(budget)          # warm: loads the histograms
                                      # from the store
"""

from repro.store.codec import (
    CONTAINER_VERSION,
    CorruptArtifact,
    HISTOGRAMS_CODEC,
    HistogramsCodec,
    MAGIC,
    POLICY_MISSES_CODEC,
    PolicyMissesCodec,
    STAGE_CODECS,
    STREAM_CHECKPOINT_CODEC,
    StreamCheckpointCodec,
    pack_entry,
    unpack_entry,
)
from repro.store.fs import (
    ArtifactStore,
    CACHE_DIR_ENV,
    DEFAULT_MAX_BYTES,
    DEFAULT_MEMORY_ENTRIES,
    QUARANTINE_DIR,
    StoreEntry,
    StoreStats,
    default_cache_dir,
)
from repro.store.keys import ArtifactKey, TRACE_DIGEST_SCHEMA, trace_digest

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "CONTAINER_VERSION",
    "CorruptArtifact",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MEMORY_ENTRIES",
    "HISTOGRAMS_CODEC",
    "HistogramsCodec",
    "MAGIC",
    "POLICY_MISSES_CODEC",
    "PolicyMissesCodec",
    "QUARANTINE_DIR",
    "STAGE_CODECS",
    "STREAM_CHECKPOINT_CODEC",
    "StoreEntry",
    "StoreStats",
    "StreamCheckpointCodec",
    "TRACE_DIGEST_SCHEMA",
    "default_cache_dir",
    "pack_entry",
    "trace_digest",
    "unpack_entry",
]
