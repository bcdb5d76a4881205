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
:func:`execute_request` for each admitted request — the daemon has
already decoded the wire document (once, on the event loop), so the
worker receives the :class:`~repro.core.request.ExplorationRequest`
itself, attaches a fresh per-request recorder (and, when the daemon was
given a cache root, a fresh :class:`repro.store.ArtifactStore` pointed
at the shared root), executes, and encodes the response document.  The
process backend pickles the request — traces travel as packed
``array('q')`` buffers — and never a live store/recorder.
:func:`execute_wire_request` is the decode-plus-execute form for
callers holding a wire document.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.core.request import ExplorationRequest, explore_request
from repro.obs import Recorder, RunManifest
from repro.serve.protocol import request_from_wire, response_to_wire

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
    recorder = Recorder()
    store = None
    if store_root is not None:
        from repro.store import ArtifactStore

        store = ArtifactStore(store_root)
    request = replace(request, recorder=recorder, store=store)
    with recorder.phase("serve:execute"):
        report = explore_request(request)
    trace = request.traces[0]
    manifest = RunManifest.from_recorder(
        recorder,
        engine=report.engine,
        requested_engine=request.engine,
        options={
            "mode": request.mode,
            "prelude": request.prelude,
            "processes": request.processes,
        },
        trace={
            "name": trace.name,
            "n": len(trace),
            "n_unique": trace.unique_count(),
            "address_bits": trace.address_bits,
        },
    )
    return response_to_wire(report, manifest=manifest.to_json_dict())


def execute_wire_request(
    document: Dict, store_root: Optional[str] = None
) -> Dict:
    """Decode one wire request and run it (:func:`execute_request`)."""
    return execute_request(request_from_wire(document), store_root)


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
            self._executor = ProcessPoolExecutor(max_workers=workers)
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
