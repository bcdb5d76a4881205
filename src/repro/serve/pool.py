"""Bounded worker pools: a generic core plus the daemon's wire pool.

:class:`BoundedPool` is the reusable piece — a counted, bounded front
over a ``concurrent.futures`` executor with a synchronous
``submit(fn, *args) -> Future`` surface.  It backs both the serve
daemon's :class:`WorkerPool` and the sweep scheduler's thread/inline
backends (:mod:`repro.sweep.scheduler`), so gauge semantics
(``in_flight``, ``queue_depth``) are defined in exactly one place.

Three backends share the interface:

* ``process`` — :class:`concurrent.futures.ProcessPoolExecutor`; the
  serve daemon's production default (true parallelism across cores,
  engine work off the event-loop process entirely).
* ``thread`` — :class:`concurrent.futures.ThreadPoolExecutor`; cheap
  startup, used by the test battery and quick smoke runs.
* ``inline`` — execute synchronously on the calling thread; fully
  deterministic, used by protocol-level tests.

:class:`WorkerPool` keeps the daemon-specific parts: it runs
:func:`execute_request` for each request the store cannot answer alone
— the daemon has already decoded the wire document (once, on the event
loop), so the worker receives the
:class:`~repro.core.request.ExplorationRequest` itself, attaches a
fresh per-request recorder (and, when the daemon was given a cache
root, a fresh :class:`repro.store.ArtifactStore` pointed at the shared
root), executes, and encodes the response document.  The process
backend pickles the request — traces travel as packed ``array('q')``
addresses and ``bytes`` kind labels — and never a live store/recorder.
:func:`execute_wire_request` is the decode-plus-execute form for
callers holding a wire document.

:func:`answer_from_store` is the same execution against a store that
may only read; the daemon runs it on a thread of its own, one request
at a time, before asking the pool, so a request whose histograms are
stored never pays a pool hop (and a process pool whose traffic is all
hits, one request at a time, never starts a worker, since
``ProcessPoolExecutor`` forks lazily).
"""

from __future__ import annotations

import asyncio
import signal
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.core.engines import EngineInputs
from repro.core.request import ExplorationRequest, explore_request, request_manifest
from repro.obs import Recorder
from repro.obs.recorder import NULL_RECORDER
from repro.serve.protocol import request_from_wire, response_to_wire
from repro.store.codec import HISTOGRAMS_CODEC
from repro.store.fs import ArtifactStore

#: Supported pool backends.
POOL_KINDS = ("process", "thread", "inline")


def execute_request(
    request: ExplorationRequest, store_root: Optional[str] = None
) -> Dict:
    """Run one decoded request end to end; returns the response document.

    This is the function worker processes execute; it must stay
    module-level (picklable) and self-contained: it builds its own
    recorder and store, so concurrent workers never share mutable
    state — workers meeting at the same store *root* is safe by the
    store's own atomic-rename design.
    """
    store = ArtifactStore(store_root) if store_root is not None else None
    return _respond(request, store)


def answer_from_store(
    request: ExplorationRequest, store_root: Optional[str]
) -> Optional[Dict]:
    """The response to a request the store answers alone, else ``None``.

    Runs the code of :func:`execute_request` against a fresh store on
    ``store_root`` that may only read.  The first store miss, corrupt
    entry or attempted put abandons the attempt; it has persisted
    nothing (a corrupt entry stays where it is), so the caller then
    hands the request to the pool, which misses, quarantines and
    writes exactly as it would have without the attempt.  Only
    baseline scenarios (LRU, one level, no cost model) are tried: the
    others simulate beyond what the store holds, and that work belongs
    on the pool.

    A ``single``, ``sum`` or ``each`` request is first checked for a
    stored histograms entry per trace (one file check each, nothing
    read), so a request with a trace the store lacks is not begun: in
    ``sum``/``each`` the attempt would otherwise read every member
    before the missing one.  A ``linesize`` request is tried without
    the check, which would have to build every line trace to name its
    entries; its attempt stops at the first line size the store lacks.

    The daemon runs this on a thread of its own process; a request the
    store answers never pays the pickling and IPC of a pool hop.
    """
    if store_root is None or not request.scenario.is_baseline():
        return None
    store = _ReadOnlyStore(store_root)
    if request.mode != "linesize" and not _histograms_stored(request, store):
        return None
    try:
        return _respond(request, store)
    except _StoreMiss:
        return None


def _histograms_stored(request: ExplorationRequest, store: ArtifactStore) -> bool:
    """Whether ``store`` holds histograms for every trace of ``request``."""
    max_depth = request.scenario.max_depth
    max_level = None if max_depth is None else max_depth.bit_length() - 1
    return all(
        EngineInputs(trace, store=store).histograms_stored(max_level)
        for trace in request.traces
    )


def _respond(request: ExplorationRequest, store) -> Dict:
    """Execute ``request`` with a fresh recorder and ``store``; the
    response document with its run manifest."""
    recorder = Recorder()
    request = replace(request, recorder=recorder, store=store)
    with recorder.phase("serve:execute"):
        report = explore_request(request)
    manifest = request_manifest(request, report)
    return response_to_wire(report, manifest=manifest.to_json_dict())


class _StoreMiss(Exception):
    """A store-only answer needed something the store does not hold."""


class _ReadOnlyStore(ArtifactStore):
    """An :class:`ArtifactStore` that raises :class:`_StoreMiss` instead
    of missing, quarantining or writing.

    One miss is let through: a bounded histograms key (an integer
    ``max_level``), which the engine answers from the ``full`` entry,
    counting the same miss and hit the pool would.

    A hit still stamps the entry's mtime, as any read does, so eviction
    order is what the pool's read would have left.
    """

    def get(self, key, codec, recorder=NULL_RECORDER):
        value = super().get(key, codec, recorder=recorder)
        if value is None and not _bounded_histograms(key):
            raise _StoreMiss(key.stage)
        return value

    def put(self, key, codec, value, recorder=NULL_RECORDER) -> None:
        raise _StoreMiss(key.stage)

    def _quarantine(self, path, reason, corrupt_blob=None) -> None:
        raise _StoreMiss(str(path))


def _bounded_histograms(key) -> bool:
    """Whether ``key`` names a histograms entry with an integer
    ``max_level``."""
    return (
        key.stage == HISTOGRAMS_CODEC.stage
        and dict(key.params).get("max_level") != repr("full")
    )


def execute_wire_request(
    document: Dict, store_root: Optional[str] = None
) -> Dict:
    """Decode one wire request and run it (:func:`execute_request`)."""
    return execute_request(request_from_wire(document), store_root)


def _reset_worker_signals() -> None:
    """Process-pool worker initializer: end on SIGTERM again.

    Workers fork lazily, after the serve daemon has put SIGTERM and
    SIGINT under its event loop, so they would inherit the loop's no-op
    handler and its wakeup fd: a SIGTERM sent to a worker would not end
    it (an orphaned worker survives ``kill``), and would be written to
    the daemon's wakeup fd as if sent to the daemon.  SIGINT keeps the
    inherited no-op, so a terminal Ctrl-C drains the daemon while its
    workers finish what they hold.  A SIGTERM to the daemon's own pid
    still drains it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)


class BoundedPool:
    """A counted, bounded executor with a synchronous submit surface.

    Args:
        workers: maximum concurrent executions.
        kind: one of :data:`POOL_KINDS`.
        thread_name_prefix: worker-thread naming for the ``thread``
            backend (shows up in stack dumps and py-spy profiles).

    ``submit`` always returns a :class:`concurrent.futures.Future`; the
    ``inline`` backend executes on the calling thread and returns an
    already-resolved future, so callers need no backend-specific paths.
    """

    def __init__(
        self,
        workers: int = 2,
        kind: str = "thread",
        thread_name_prefix: str = "repro-pool",
    ) -> None:
        if kind not in POOL_KINDS:
            raise ValueError(f"kind must be one of {POOL_KINDS}, got {kind!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.kind = kind
        self._executor = None
        if kind == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_reset_worker_signals
            )
        elif kind == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=thread_name_prefix
            )
        #: Tasks submitted over the pool's lifetime.
        self.submitted = 0
        #: Tasks finished (success or failure).
        self.completed = 0

    @property
    def in_flight(self) -> int:
        """Submitted executions that have not finished."""
        return self.submitted - self.completed

    @property
    def queue_depth(self) -> int:
        """Executions waiting for a free worker (0 when none queue)."""
        return max(0, self.in_flight - self.workers)

    def _on_done(self, _future: Future) -> None:
        self.completed += 1

    def submit(self, fn: Callable, *args) -> Future:
        """Schedule ``fn(*args)``; returns its future immediately."""
        self.submitted += 1
        if self._executor is None:  # inline
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 — future carries it
                future.set_exception(exc)
            self.completed += 1
            return future
        future = self._executor.submit(fn, *args)
        future.add_done_callback(self._on_done)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)


class WorkerPool:
    """The serve daemon's pool: :class:`BoundedPool` running wire requests.

    Args:
        workers: maximum concurrent executions.
        kind: one of :data:`POOL_KINDS`.
        store_root: artifact-store root handed to every execution
            (``None`` disables warm-starting).
        execute: override of the execution function — the test battery
            injects counting/slow executables here.  Must accept
            ``(request, store_root)``, ``request`` being the decoded
            :class:`~repro.core.request.ExplorationRequest`, and return
            a response document.
    """

    def __init__(
        self,
        workers: int = 2,
        kind: str = "process",
        store_root: Optional[str] = None,
        execute: Optional[
            Callable[[ExplorationRequest, Optional[str]], Dict]
        ] = None,
    ) -> None:
        if execute is not None and kind == "process":
            raise ValueError("custom execute functions need kind=thread|inline")
        self._pool = BoundedPool(
            workers=workers, kind=kind, thread_name_prefix="repro-serve"
        )
        self.workers = workers
        self.kind = kind
        self.store_root = store_root
        self._execute = execute or execute_request

    @property
    def submitted(self) -> int:
        """Requests submitted over the pool's lifetime."""
        return self._pool.submitted

    @property
    def completed(self) -> int:
        """Requests finished (success or failure)."""
        return self._pool.completed

    @property
    def in_flight(self) -> int:
        """Submitted executions that have not finished."""
        return self._pool.in_flight

    @property
    def queue_depth(self) -> int:
        """Executions waiting for a free worker (0 when none queue)."""
        return self._pool.queue_depth

    async def run(self, request: ExplorationRequest) -> Dict:
        """Execute one decoded request on the pool; awaitable."""
        future = self._pool.submit(self._execute, request, self.store_root)
        return await asyncio.wrap_future(future)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor (idempotent)."""
        self._pool.shutdown(wait=wait)
