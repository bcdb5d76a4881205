"""The exploration daemon: an asyncio HTTP/JSON server.

``repro serve`` keeps one long-lived process warm so callers stop
paying interpreter startup, module import, and cold pipelines per
exploration.  The transport is a deliberately small HTTP/1.1
implementation over :func:`asyncio.start_server` (stdlib only — no web
framework), because the protocol surface is four routes:

* ``POST /v1/explore`` — one request wire document in, one response
  document (report + run manifest) out;
* ``POST /v1/explore/batch`` — ``{"requests": [...]}`` in, responses
  out in request order;
* ``/v1/sessions`` and ``/v1/sessions/{id}[/append|/explore]`` —
  incremental trace sessions (:mod:`repro.serve.sessions`): append
  address chunks, re-explore after every append at chunk-proportional
  cost;
* ``GET /metrics`` — Prometheus text: request/dedup/error counters,
  session counters, in-flight and queue-depth gauges, reservoir-sampled
  latency percentiles;
* ``GET /healthz`` — liveness + drain state.

Request flow: decode and *validate* the wire document once on the
event loop (bulk checks, no per-reference Python loop), key the decoded
request, then join the in-flight table — concurrent identical arrivals
await the first arrival's computation and receive the byte-identical
response.  The first arrival (the leader) computes in two steps.  When
the daemon has a store and the request is a baseline scenario (LRU, no
second level, no cost model), a thread of the daemon first answers it
from the store alone (:func:`repro.serve.pool.answer_from_store`): the
same code the pool runs, against a fresh store that may only read.  A
repeat whose histograms are stored is answered there without a pool
hop.  A request whose histograms are not all stored, or the first store
miss, abandons that attempt, which has written nothing, and the
request goes to the worker pool as it would have without it.  The
thread answers one request at a time; a request that arrives while it
is busy goes straight to the pool, so concurrent traffic keeps the
parallel workers.  The content-addressed store thus answers repeats
that are no longer concurrent, so the dedup table stays small: it only
ever holds genuinely in-flight keys.

Shutdown drains: the listener closes first (no new connections), live
connections finish the request they are parsing or computing, then the
worker pool stops.  A request that arrives on a kept-alive connection
after draining begins is answered ``503``.  A kept-alive connection
that is only waiting for its next request is closed once
:data:`DRAIN_IDLE_GRACE_S` has passed, so an idle client cannot hold
the drain open.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Set, Tuple

from repro import __version__
from repro.core.request import ExplorationRequest
from repro.obs import Recorder
from repro.serve.dedup import InFlightTable
from repro.serve.metrics import Reservoir, render_metrics
from repro.serve.pool import WorkerPool, answer_from_store
from repro.serve.protocol import (
    BATCH_RESPONSE_SCHEMA,
    ProtocolError,
    batch_from_wire,
    request_from_wire,
    request_key,
)
from repro.serve.sessions import (
    SessionError,
    SessionManager,
    parse_append,
    parse_budgets,
    parse_create,
)

#: Default bind address and port.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8437

#: How long a drain lets a kept-alive connection that is waiting for
#: its next request still send one (it is answered 503) before the
#: connection is closed.
DRAIN_IDLE_GRACE_S = 1.0

#: Request bodies above this size are refused with 413.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Header-block size cap (asyncio stream limit for ``readuntil``).
MAX_HEADER_BYTES = 64 * 1024

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ExploreServer:
    """The daemon: one listener, one dedup table, one worker pool.

    Args:
        pool: the :class:`repro.serve.pool.WorkerPool` executing
            requests (the server owns and shuts it down).  Its
            ``store_root`` is also where a thread of the daemon answers
            store hits, one request at a time.
        host: bind address.
        port: bind port (0 picks an ephemeral port; see :attr:`port`
            after :meth:`start`).
        recorder: counter sink; a fresh thread-safe
            :class:`repro.obs.Recorder` by default.
        latency_seed: seed for the latency reservoir (deterministic
            sampling in tests).
        sessions: the incremental-session registry; by default a fresh
            :class:`repro.serve.sessions.SessionManager` checkpointing
            into the pool's artifact store root.
    """

    def __init__(
        self,
        pool: WorkerPool,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        recorder: Optional[Recorder] = None,
        latency_seed: Optional[int] = None,
        sessions: Optional[SessionManager] = None,
    ) -> None:
        self.pool = pool
        self.host = host
        self._requested_port = port
        self.recorder = recorder if recorder is not None else Recorder(thread_safe=True)
        self.latency = Reservoir(seed=latency_seed)
        self.inflight = InFlightTable()
        self.sessions = (
            sessions
            if sessions is not None
            else SessionManager(store_root=pool.store_root)
        )
        #: Whether a daemon thread is answering a request from the store.
        self._store_busy = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        #: Connection tasks waiting for their next request head.
        self._idle: Set[asyncio.Task] = set()
        self._draining = False
        self._uptime_phase = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actual bound port (resolves port 0 after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def draining(self) -> bool:
        """True once shutdown has begun."""
        return self._draining

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._uptime_phase = self.recorder.phase("serve:uptime")
        self._uptime_phase.__enter__()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self._requested_port,
            limit=MAX_HEADER_BYTES,
        )

    async def serve_forever(self) -> None:
        """Block until the listener is closed (by :meth:`shutdown`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting, optionally drain in-flight work, stop the pool.

        With ``drain=True`` every connection in the middle of a request
        is awaited (up to ``timeout`` seconds, unbounded when ``None``),
        so a request already computing gets its response before the
        socket closes.  Connections waiting for their next request are
        closed after :data:`DRAIN_IDLE_GRACE_S`.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._connections if not task.done()]
        if pending:
            if drain:
                close_idle = asyncio.get_running_loop().call_later(
                    DRAIN_IDLE_GRACE_S, self._close_idle
                )
                await asyncio.wait(pending, timeout=timeout)
                close_idle.cancel()
            for task in self._connections:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.pool.shutdown(wait=drain)
        if self._uptime_phase is not None:
            self._uptime_phase.__exit__(None, None, None)
            self._uptime_phase = None

    def _close_idle(self) -> None:
        for task in self._idle:
            task.cancel()

    # -- metrics ----------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Counter totals for ``/metrics`` and shutdown manifests."""
        counters = self.recorder.counters_snapshot()
        counters.setdefault("serve_requests_total", 0)
        counters.setdefault("serve_errors_total", 0)
        counters.setdefault("serve_sessions_created_total", 0)
        counters.setdefault("serve_session_appends_total", 0)
        counters.setdefault("serve_session_refs_total", 0)
        counters.setdefault("serve_session_explores_total", 0)
        counters.setdefault("serve_store_answers_total", 0)
        counters["serve_dedup_hits_total"] = self.inflight.dedup_hits
        counters["serve_computations_total"] = self.inflight.computations
        return counters

    def gauges(self) -> Dict[str, float]:
        """Point-in-time gauges for ``/metrics``."""
        return {
            "serve_in_flight": float(self.pool.in_flight + self._store_busy),
            "serve_queue_depth": float(self.pool.queue_depth),
            "serve_inflight_keys": float(len(self.inflight)),
            "serve_workers": float(self.pool.workers),
            "serve_sessions_open": float(len(self.sessions)),
            "serve_draining": 1.0 if self._draining else 0.0,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition document."""
        return render_metrics(self.counters(), self.gauges(), self.latency)

    # -- connection handling ----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_connection(reader, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                parsed = await self._read_request(reader)
            except _HttpError as exc:
                self._write_response(
                    writer, exc.status, _JSON, _error_body(exc.status, str(exc)), close=True
                )
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # client went away between requests
            if parsed is None:
                return  # clean EOF on a kept-alive connection
            method, target, headers, body = parsed
            if self._draining and target.startswith("/v1/"):
                status, content_type, payload = (
                    503,
                    _JSON,
                    _error_body(503, "server is draining"),
                )
            else:
                status, content_type, payload = await self._dispatch(
                    method, target, body
                )
            if status >= 400:
                self.recorder.count("serve_errors_total")
            close = (
                self._draining
                or headers.get("connection", "").lower() == "close"
            )
            self._write_response(writer, status, content_type, payload, close)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return
            if close:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        task = asyncio.current_task()
        self._idle.add(task)
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close, no request in flight
            raise _HttpError(400, "truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "request head too large") from exc
        finally:
            self._idle.discard(task)
        lines = header_blob.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise _HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        close: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Server: repro-serve/{__version__}\r\n"
        )
        if close:
            head += "Connection: close\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)

    # -- routing ----------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        target, _, query = target.partition("?")
        if target == "/healthz":
            if method != "GET":
                return 405, _JSON, _error_body(405, "healthz is GET-only")
            return (
                200,
                _JSON,
                _json_body(
                    {
                        "status": "ok",
                        "version": __version__,
                        "draining": self._draining,
                    }
                ),
            )
        if target == "/metrics":
            if method != "GET":
                return 405, _JSON, _error_body(405, "metrics is GET-only")
            return 200, _TEXT, self.metrics_text().encode("utf-8")
        if target == "/v1/explore":
            if method != "POST":
                return 405, _JSON, _error_body(405, "explore is POST-only")
            return await self._handle_explore(body)
        if target == "/v1/explore/batch":
            if method != "POST":
                return 405, _JSON, _error_body(405, "batch is POST-only")
            return await self._handle_batch(body)
        if target == "/v1/sessions":
            if method == "POST":
                return await self._handle_session_create(body)
            if method == "GET":
                return 200, _JSON, _json_body(
                    {"sessions": self.sessions.list_info()}
                )
            return 405, _JSON, _error_body(405, "sessions is POST/GET-only")
        if target.startswith("/v1/sessions/"):
            return await self._dispatch_session(
                method, target[len("/v1/sessions/"):], query, body
            )
        return 404, _JSON, _error_body(404, f"no route {target!r}")

    async def _dispatch_session(
        self, method: str, rest: str, query: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        session_id, _, action = rest.partition("/")
        try:
            managed = self.sessions.get(session_id)
        except KeyError:
            return 404, _JSON, _error_body(404, f"no session {session_id!r}")
        if not action:
            if method == "GET":
                return 200, _JSON, _json_body({"session": managed.info()})
            if method == "DELETE":
                self.sessions.remove(session_id)
                return 200, _JSON, _json_body({"deleted": session_id})
            return 405, _JSON, _error_body(405, "session is GET/DELETE-only")
        if action == "append":
            if method != "POST":
                return 405, _JSON, _error_body(405, "append is POST-only")
            return await self._handle_session_append(managed, body)
        if action == "explore":
            if method != "GET":
                return 405, _JSON, _error_body(405, "explore is GET-only")
            return await self._handle_session_explore(managed, query)
        return 404, _JSON, _error_body(404, f"no session action {action!r}")

    async def _handle_session_create(self, body: bytes) -> Tuple[int, str, bytes]:
        try:
            params = parse_create(_parse_json(body))
        except ProtocolError as exc:
            return 400, _JSON, _error_body(400, str(exc))
        loop = asyncio.get_running_loop()
        try:
            # Resume decodes a checkpoint — potentially large; off-loop.
            managed = await loop.run_in_executor(
                None, lambda: self.sessions.create(**params)
            )
        except SessionError as exc:
            return 400, _JSON, _error_body(400, str(exc))
        self.recorder.count("serve_sessions_created_total")
        return 200, _JSON, _json_body({"session": managed.info()})

    async def _handle_session_append(
        self, managed, body: bytes
    ) -> Tuple[int, str, bytes]:
        try:
            params = parse_append(_parse_json(body))
        except ProtocolError as exc:
            return 400, _JSON, _error_body(400, str(exc))
        if params["checkpoint"] and managed.session.store is None:
            return 400, _JSON, _error_body(
                400, "checkpoint requires the daemon to run with a store"
            )
        loop = asyncio.get_running_loop()

        def ingest() -> Tuple[int, Optional[str]]:
            appended = managed.session.append(params["addresses"])
            digest = (
                managed.session.checkpoint() if params["checkpoint"] else None
            )
            return appended, digest

        async with managed.lock:
            try:
                appended, digest = await loop.run_in_executor(None, ingest)
            except ValueError as exc:  # address out of range etc.
                return 400, _JSON, _error_body(400, str(exc))
        self.recorder.count("serve_session_appends_total")
        self.recorder.count("serve_session_refs_total", appended)
        return 200, _JSON, _json_body(
            {
                "session": managed.info(),
                "appended": appended,
                "checkpoint_digest": digest,
            }
        )

    async def _handle_session_explore(
        self, managed, query: str
    ) -> Tuple[int, str, bytes]:
        try:
            params = parse_budgets(query)
        except ProtocolError as exc:
            return 400, _JSON, _error_body(400, str(exc))
        loop = asyncio.get_running_loop()

        def explore() -> Dict[str, object]:
            results = managed.session.explore_many(
                params["budgets"],
                include_depth_one=params["include_depth_one"],
            )
            return {
                str(budget): [
                    {
                        "depth": inst.depth,
                        "associativity": inst.associativity,
                        "size_words": inst.size_words,
                    }
                    for inst in instances
                ]
                for budget, instances in results.items()
            }

        async with managed.lock:
            results = await loop.run_in_executor(None, explore)
        self.recorder.count("serve_session_explores_total")
        return 200, _JSON, _json_body(
            {"session": managed.info(), "results": results}
        )

    async def _handle_explore(self, body: bytes) -> Tuple[int, str, bytes]:
        try:
            request = request_from_wire(_parse_json(body))
        except ProtocolError as exc:
            return 400, _JSON, _error_body(400, str(exc))
        try:
            response = await self._run_deduped(request)
        except Exception as exc:  # worker failure: report, don't die
            return 500, _JSON, _error_body(500, f"execution failed: {exc}")
        return 200, _JSON, _json_body(response)

    async def _handle_batch(self, body: bytes) -> Tuple[int, str, bytes]:
        try:
            envelope = _parse_json(body)
            requests = [
                request_from_wire(member) for member in batch_from_wire(envelope)
            ]
        except ProtocolError as exc:
            return 400, _JSON, _error_body(400, str(exc))
        self.recorder.count("serve_batch_requests_total")
        try:
            responses = await asyncio.gather(
                *(self._run_deduped(request) for request in requests)
            )
        except Exception as exc:
            return 500, _JSON, _error_body(500, f"execution failed: {exc}")
        return (
            200,
            _JSON,
            _json_body(
                {"schema": BATCH_RESPONSE_SCHEMA, "responses": list(responses)}
            ),
        )

    async def _run_deduped(self, request: ExplorationRequest) -> Dict:
        """One decoded request through dedup, pool, and telemetry."""
        key = request_key(request)
        loop = asyncio.get_running_loop()
        start = loop.time()
        self.recorder.count("serve_requests_total")

        async def compute() -> Dict:
            response = await self._answer_from_store(request)
            if response is None:
                response = await self.pool.run(request)
            store_stats = response.get("report", {}).get("store")
            if store_stats:
                self.recorder.count(
                    "serve_store_hits_total", int(store_stats.get("hits", 0))
                )
                self.recorder.count(
                    "serve_store_misses_total", int(store_stats.get("misses", 0))
                )
            return response

        try:
            return await self.inflight.run(key, compute)
        finally:
            self.latency.add(loop.time() - start)

    async def _answer_from_store(
        self, request: ExplorationRequest
    ) -> Optional[Dict]:
        """The request answered from the store on a daemon thread, or
        ``None`` when the pool must compute it.

        One request at a time: the answer is GIL-bound Python work, so a
        second daemon thread would only take turns with the first.
        While one is answering, a request goes straight to the pool,
        whose workers run in parallel.
        """
        if self._store_busy or self.pool.store_root is None:
            return None
        self._store_busy = True
        try:
            response = await asyncio.get_running_loop().run_in_executor(
                None, answer_from_store, request, self.pool.store_root
            )
        finally:
            self._store_busy = False
        if response is not None:
            self.recorder.count("serve_store_answers_total")
        return response


class _HttpError(Exception):
    """Transport-level failure with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_json(body: bytes) -> Dict:
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("body must be a JSON object")
    return document


def _json_body(document: Dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _error_body(status: int, message: str) -> bytes:
    return _json_body({"error": message, "status": status})
