"""Process-pool workers end on SIGTERM even under the daemon's handlers.

``repro serve`` puts SIGTERM under its event loop before the process
pool forks its (lazy) workers.  Without the pool's initializer the
workers inherit that loop's no-op handler, so an orphaned worker
survives ``kill``.
"""

from __future__ import annotations

import asyncio
import os
import signal
from multiprocessing.connection import wait

import pytest

from repro.serve.pool import BoundedPool


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)
def test_worker_ends_on_sigterm_under_an_asyncio_handler() -> None:
    loop = asyncio.new_event_loop()
    loop.add_signal_handler(signal.SIGTERM, lambda: None)
    pool = BoundedPool(workers=1, kind="process")
    pid = None
    try:
        pid = pool.submit(os.getpid).result(timeout=60)
        worker = pool._executor._processes[pid]
        os.kill(pid, signal.SIGTERM)
        assert wait([worker.sentinel], timeout=10), "worker ignored SIGTERM"
    finally:
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        pool.shutdown(wait=True)
        loop.remove_signal_handler(signal.SIGTERM)
        loop.close()
