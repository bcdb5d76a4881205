"""The artifact store: a persistent, content-addressed pipeline cache.

:class:`ArtifactStore` memoizes pipeline-stage artifacts keyed by
:class:`repro.store.ArtifactKey` across two tiers:

* a **filesystem tier** under one root directory — entries are written
  atomically (temp file + ``os.replace``), so concurrent writers of the
  same key both succeed and readers never observe a half-written file;
  every entry is framed with a SHA-256 checksum, and anything that fails
  validation is treated as a *miss* and moved to ``quarantine/`` rather
  than deleted (so a corruption can be diagnosed) or re-trusted;
* an **in-process memory tier** — a small LRU map of decoded artifacts,
  so repeated stage lookups inside one process skip the disk and the
  decode entirely.

The filesystem tier is size-capped: when a put pushes the store past
``max_bytes``, least-recently-*used* entries are evicted (reads bump an
entry's mtime, making mtime order LRU order).  Eviction, like every
other failure mode here, degrades to a cache miss — the pipeline
recomputes and rewrites.

A put killed between writing its temp file and renaming it leaves the
temp file behind.  :meth:`ArtifactStore.describe` counts such files, and
``prune`` and ``clear`` delete the stale ones: those whose writer pid is
gone, or older than ``STALE_TEMP_S``.  A live writer's temp file is left
alone, so its rename still lands.

A put does not list the store to find out whether it is over the cap.
Each process keeps a byte *ledger* per root: the total at its last
directory scan plus the bytes it has put since.  Only a put that would
take the ledger past ``max_bytes`` scans (and evicts); ``prune`` and
``clear`` reset the ledger to what they found.  With one writer the
ledger is never below the true total, so the cap holds exactly as if
every put scanned.  With several writers (processes, or stores without
a cap) each ledger misses the others' puts: the root can exceed the cap
by what the other writers put since a process last scanned, and it is
brought back under the cap by the next put whose ledger crosses it.

Telemetry: every ``get``/``put`` updates the store's :class:`StoreStats`
and, when a :class:`repro.obs.Recorder` is passed, records
``store_hits`` / ``store_misses`` / ``store_bytes_read`` /
``store_bytes_written`` counters on the innermost open phase, so run
manifests show cache effectiveness alongside the timings.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.recorder import NULL_RECORDER
from repro.store.codec import CorruptArtifact, pack_entry, unpack_entry
from repro.store.keys import ArtifactKey

#: Default filesystem-tier size cap (bytes).
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Default memory-tier capacity (decoded artifacts, counted not sized).
DEFAULT_MEMORY_ENTRIES = 64

#: File suffix of a store entry.
ENTRY_SUFFIX = ".art"

#: Subdirectory corrupt entries are moved into (never read back).
QUARANTINE_DIR = "quarantine"

#: Name prefix of a put's temp file, ``.tmp-{digest}-{pid}-{random}``.
TEMP_PREFIX = ".tmp-"

#: Seconds after which a temp file counts as abandoned even while a
#: process with its writer's pid runs (pids are reused); a put renames
#: its temp file within moments of writing it.
STALE_TEMP_S = 3600.0

#: Environment variable naming the default store location for the CLI.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: Per-process byte ledger, keyed by ``(pid, absolute root)``: the
#: bytes found at the last scan plus this process's puts since.  The pid
#: makes a forked child start its own ledger instead of inheriting one.
_LEDGERS: Dict[Tuple[int, str], int] = {}
_LEDGER_LOCK = threading.Lock()


def default_cache_dir() -> str:
    """The CLI's default store root.

    ``$REPRO_CACHE_DIR`` when set, else ``$XDG_CACHE_HOME/repro/store``,
    else ``~/.cache/repro/store``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "store")


@dataclass
class StoreStats:
    """Counters for one store instance's lifetime.

    ``hits`` counts both tiers; ``memory_hits`` the subset served
    without touching the disk.  ``corrupt`` counts entries quarantined
    after failing validation (each also counts as a miss).
    """

    hits: int = 0
    memory_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (manifest/JSON friendly)."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry, as listed by :meth:`ArtifactStore.entries`."""

    path: Path
    stage: str
    size: int
    mtime: float


def _writer_alive(temp_path: str) -> bool:
    """Whether the pid named in a temp file's name is a running process."""
    try:
        pid = int(os.path.basename(temp_path).rsplit("-", 2)[1])
    except (IndexError, ValueError):
        return False  # not a name ``put`` writes
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # exists, owned by another user
        return True
    return True


class ArtifactStore:
    """Two-tier (memory + filesystem) content-addressed artifact cache.

    Args:
        root: store directory; created on first use.  Entries land in
            one subdirectory per pipeline stage.
        max_bytes: filesystem-tier size cap; ``None`` disables eviction.
        memory_entries: memory-tier capacity (0 disables the tier —
            useful for measuring true disk warm-start costs).

    A store object is cheap; its identity does not matter, only its
    root does.  Separate processes pointing at the same root share one
    cache safely: writes are atomic renames and a torn or corrupt read
    degrades to a miss.
    """

    def __init__(
        self,
        root,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative or None")
        if memory_entries < 0:
            raise ValueError("memory_entries must be non-negative")
        self.root = Path(root)
        self._root_name = os.path.abspath(self.root)
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        self.stats = StoreStats()
        self._memory: "OrderedDict[str, object]" = OrderedDict()

    # -- paths ------------------------------------------------------------------

    def _entry_path(self, key: ArtifactKey) -> Path:
        return self.root / key.stage / f"{key.digest}{ENTRY_SUFFIX}"

    def _quarantine_path(self, path: Path) -> Path:
        return self.root / QUARANTINE_DIR / f"{path.parent.name}-{path.name}"

    # -- memory tier ------------------------------------------------------------

    def _memory_get(self, digest: str) -> Optional[object]:
        if digest in self._memory:
            self._memory.move_to_end(digest)
            return self._memory[digest]
        return None

    def _memory_put(self, digest: str, value: object) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[digest] = value
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- core operations --------------------------------------------------------

    def contains(self, key: ArtifactKey) -> bool:
        """Whether an entry for ``key`` is present, in memory or on disk.

        Reads, decodes and counts nothing, so a corrupt entry counts as
        present until a :meth:`get` finds it out.
        """
        return key.digest in self._memory or self._entry_path(key).is_file()

    def get(self, key: ArtifactKey, codec, recorder=NULL_RECORDER):
        """Fetch and decode the artifact for ``key``, or ``None`` on miss.

        A corrupt entry (truncation, bit flip, undecodable payload) is
        quarantined and reported as a miss.
        """
        digest = key.digest
        cached = self._memory_get(digest)
        if cached is not None:
            self.stats.hits += 1
            self.stats.memory_hits += 1
            recorder.count("store_hits")
            return cached
        path = self._entry_path(key)
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, OSError):
            self.stats.misses += 1
            recorder.count("store_misses")
            return None
        try:
            payload = unpack_entry(blob, codec.version)
            value = codec.decode(payload)
        except (CorruptArtifact, ValueError, OverflowError) as exc:
            self._quarantine(path, exc, corrupt_blob=blob)
            self.stats.misses += 1
            recorder.count("store_misses")
            return None
        self._touch(path)
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        recorder.count("store_hits")
        recorder.count("store_bytes_read", len(blob))
        self._memory_put(digest, value)
        return value

    def put(self, key: ArtifactKey, codec, value, recorder=NULL_RECORDER) -> None:
        """Encode and persist an artifact under ``key`` (atomic rename)."""
        blob = pack_entry(codec.version, codec.encode(value))
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name per writer: two processes racing on the same
        # key each rename their own finished file into place.
        tmp = path.parent / (
            f"{TEMP_PREFIX}{key.digest}-{os.getpid()}-{os.urandom(4).hex()}"
        )
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
            self._touch(path)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self.stats.puts += 1
        self.stats.bytes_written += len(blob)
        recorder.count("store_bytes_written", len(blob))
        self._memory_put(key.digest, value)
        if self.max_bytes is not None and not self._ledger_add(len(blob)):
            self.prune(self.max_bytes)

    def _ledger_key(self) -> Tuple[int, str]:
        return (os.getpid(), self._root_name)

    def _ledger_add(self, size: int) -> bool:
        """Book ``size`` new bytes; False when a scan is due instead.

        A scan is due when this process has not scanned the root yet, or
        when the booked total would pass the cap.
        """
        key = self._ledger_key()
        with _LEDGER_LOCK:
            booked = _LEDGERS.get(key)
            if booked is None or booked + size > self.max_bytes:
                return False
            _LEDGERS[key] = booked + size
            return True

    def _ledger_set(self, total: int) -> None:
        with _LEDGER_LOCK:
            _LEDGERS[self._ledger_key()] = total

    def _touch(self, path: Path) -> None:
        """Bump an entry's mtime so mtime order approximates LRU order.

        Stamps an explicit ``time.time_ns()`` value rather than letting
        the kernel fill it in: file writes are timestamped with the
        coarse clock (tick granularity), so a read in the same tick as a
        write would otherwise tie instead of ordering after it.
        """
        now = time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except OSError:  # pragma: no cover - entry evicted mid-read
            pass

    def _quarantine(
        self,
        path: Path,
        reason: Exception,
        corrupt_blob: Optional[bytes] = None,
    ) -> None:
        """Move a bad entry aside; it will never be read again.

        Between the reader's ``read_bytes`` returning corrupt data and
        this call, a concurrent ``put`` may have atomically installed a
        fresh, valid entry at ``path`` — blindly renaming would
        quarantine (i.e. lose) that fresh entry.  So: rename first, then
        compare the moved bytes against the corrupt blob we actually
        read.  Once renamed the bytes cannot change under us, making the
        check race-free; on mismatch the entry was rewritten and is
        restored.  Restoring cannot clobber newer data — entries are
        content-addressed, so every valid blob at this path encodes the
        same artifact.
        """
        target = self._quarantine_path(path)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another reader
            return
        if corrupt_blob is not None:
            try:
                moved = target.read_bytes()
            except OSError:  # pragma: no cover - quarantine dir raced
                moved = None
            if moved is not None and moved != corrupt_blob:
                try:
                    os.replace(target, path)
                except OSError:  # pragma: no cover - filesystem raced
                    pass
                return
        self.stats.corrupt += 1

    # -- maintenance ------------------------------------------------------------

    def _scan(
        self,
    ) -> Tuple[List[Tuple[float, str, str, int]], List[Tuple[float, str, int]]]:
        """Live entries and put temp files, in one ``os.scandir`` pass.

        Entries are ``(mtime, path, stage, size)``, oldest-used first;
        temp files ``(mtime, path, size)``.  Plain tuples, so a scan
        before eviction builds no ``Path`` objects.
        """
        found: List[Tuple[float, str, str, int]] = []
        temps: List[Tuple[float, str, int]] = []
        try:
            stage_dirs = list(os.scandir(self.root))
        except OSError:  # no root yet
            return found, temps
        for stage_dir in stage_dirs:
            if not stage_dir.is_dir() or stage_dir.name == QUARANTINE_DIR:
                continue
            try:
                listing = list(os.scandir(stage_dir.path))
            except OSError:  # pragma: no cover - raced with a clearer
                continue
            for item in listing:
                entry = item.name.endswith(ENTRY_SUFFIX)
                if not entry and not item.name.startswith(TEMP_PREFIX):
                    continue
                try:
                    stat = item.stat()
                except OSError:  # pragma: no cover - raced with eviction/rename
                    continue
                if entry:
                    found.append(
                        (stat.st_mtime, item.path, stage_dir.name, stat.st_size)
                    )
                else:
                    temps.append((stat.st_mtime, item.path, stat.st_size))
        found.sort()
        return found, temps

    def _remove_stale_temps(self, temps: List[Tuple[float, str, int]]) -> int:
        """Delete the temp files no put will rename any more; their count."""
        removed = 0
        now = time.time()
        for mtime, path, _ in temps:
            if now - mtime <= STALE_TEMP_S and _writer_alive(path):
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - renamed or removed meanwhile
                pass
        return removed

    def entries(self) -> List[StoreEntry]:
        """All live entries (quarantine excluded), oldest-used first."""
        return [
            StoreEntry(path=Path(path), stage=stage, size=size, mtime=mtime)
            for mtime, path, stage, size in self._scan()[0]
        ]

    def total_bytes(self) -> int:
        """Bytes held by live entries."""
        return sum(size for _, _, _, size in self._scan()[0])

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Stale temp files go first.  Returns the number of entries
        evicted.  ``max_bytes`` defaults to the store's configured cap.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        entries, temps = self._scan()
        self._remove_stale_temps(temps)
        total = sum(size for _, _, _, size in entries)
        evicted = 0
        for _, path, _, size in entries:
            if total <= cap:
                break
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced with another pruner
                continue
            total -= size
            evicted += 1
            self.stats.evictions += 1
        self._ledger_set(total)
        return evicted

    def clear(self) -> int:
        """Remove every entry (quarantined ones included) and every stale
        temp file; return how many files went."""
        entries, temps = self._scan()
        removed = self._remove_stale_temps(temps)
        for _, path, _, _ in entries:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - raced with another clearer
                pass
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover
                    pass
        self._memory.clear()
        self._ledger_set(0)
        return removed

    def describe(self) -> Dict[str, object]:
        """Summary for ``repro cache stats``: totals, per-stage counts and
        the temp files unfinished puts left behind."""
        entries, temps = self._scan()
        by_stage: Dict[str, Tuple[int, int]] = {}
        for _, _, stage, size in entries:
            count, total = by_stage.get(stage, (0, 0))
            by_stage[stage] = (count + 1, total + size)
        quarantined = 0
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            quarantined = sum(1 for _ in quarantine.iterdir())
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size in by_stage.values()),
            "max_bytes": self.max_bytes,
            "by_stage": {
                stage: {"entries": count, "bytes": size}
                for stage, (count, size) in sorted(by_stage.items())
            },
            "quarantined": quarantined,
            "temp_files": len(temps),
            "temp_bytes": sum(size for _, _, size in temps),
        }

    def __repr__(self) -> str:
        return f"<ArtifactStore root={str(self.root)!r}>"
