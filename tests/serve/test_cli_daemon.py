"""``python -m repro.cli serve`` as a process: start, announce, stop.

Benchmarks and scripts start the daemon with ``--port 0`` and read the
port it bound from the ``listening on http://HOST:PORT`` line on
stderr; SIGTERM must drain it and exit 0 with ``repro serve: stopped``.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
def test_daemon_announces_its_port_and_stops_on_sigterm(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_CACHE_DIR", None)
    log_path = tmp_path / "daemon.log"
    with open(log_path, "w", encoding="utf-8") as log:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
             "--port", "0", "--pool", "thread", "--workers", "1"],
            stdout=subprocess.DEVNULL,
            stderr=log,
            env=env,
        )
    try:
        port = None
        deadline = time.monotonic() + 60
        while port is None and time.monotonic() < deadline:
            match = LISTENING.search(log_path.read_text(encoding="utf-8"))
            if match:
                port = int(match.group(1))
            elif daemon.poll() is not None:
                break
            else:
                time.sleep(0.02)
        assert port, log_path.read_text(encoding="utf-8")
        assert ServeClient("127.0.0.1", port, timeout=30).health()["status"] == "ok"
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    assert "repro serve: stopped" in log_path.read_text(encoding="utf-8")
