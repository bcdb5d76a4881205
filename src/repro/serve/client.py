"""A thin synchronous client for the exploration daemon.

:class:`ServeClient` speaks the serve wire protocol over
:mod:`http.client` — stdlib only, one connection per call, no retries
or pooling.  It exists for three callers: the ``repro submit`` CLI, the
test battery, and the CI smoke job; anything fancier should talk HTTP
itself.

Server-reported failures surface as :class:`ServeError` carrying the
HTTP status and the server's error message, so callers can distinguish
a malformed request (400) from a draining daemon (503) from a worker
crash (500).
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional, Sequence, Union

from repro.core.request import ExplorationReport, ExplorationRequest
from repro.serve.metrics import parse_metrics
from repro.serve.protocol import (
    BATCH_REQUEST_SCHEMA,
    ProtocolError,
    batch_body,
    request_body,
    response_from_wire,
)


class ServeError(RuntimeError):
    """The daemon answered with an error status.

    Attributes:
        status: HTTP status code (0 when the failure was transport-level
            and no status exists).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"serve error {status}: {message}" if status else message)
        self.status = status


class ServeClient:
    """Blocking JSON/HTTP client for one daemon endpoint.

    Args:
        host: daemon address.
        port: daemon port.
        timeout: per-call socket timeout in seconds.
    """

    def __init__(self, host: str, port: int, timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport --------------------------------------------------------------

    def _call(
        self, method: str, path: str, body: Union[None, Dict, bytes] = None
    ) -> tuple:
        """One HTTP exchange; a ``bytes`` body is sent as it is, a dict
        as compact JSON."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = (
                    body
                    if isinstance(body, bytes)
                    else json.dumps(body, separators=(",", ":")).encode("utf-8")
                )
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            return response.status, data
        except (ConnectionError, OSError) as exc:
            raise ServeError(0, f"cannot reach {self.host}:{self.port}: {exc}") from exc
        finally:
            connection.close()

    def _call_json(
        self, method: str, path: str, body: Union[None, Dict, bytes] = None
    ) -> Dict:
        status, data = self._call(method, path, body)
        try:
            document = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(status, f"non-JSON response: {data[:200]!r}") from exc
        if status != 200:
            message = document.get("error", data.decode("utf-8", "replace")) if isinstance(document, dict) else str(document)
            raise ServeError(status, message)
        if not isinstance(document, dict):
            raise ServeError(status, "response body must be a JSON object")
        return document

    # -- endpoints --------------------------------------------------------------

    def health(self) -> Dict:
        """``GET /healthz`` — ``{"status", "version", "draining"}``."""
        return self._call_json("GET", "/healthz")

    def metrics_text(self) -> str:
        """``GET /metrics`` — the raw Prometheus exposition text."""
        status, data = self._call("GET", "/metrics")
        if status != 200:
            raise ServeError(status, data.decode("utf-8", "replace"))
        return data.decode("utf-8")

    def metrics(self) -> Dict[str, float]:
        """``GET /metrics`` parsed into ``{metric: value}``."""
        return parse_metrics(self.metrics_text())

    def explore_wire(self, document: Union[Dict, bytes]) -> Dict:
        """``POST /v1/explore`` with a raw wire document (or its encoded
        body); raw response."""
        return self._call_json("POST", "/v1/explore", document)

    def explore(self, request: ExplorationRequest) -> ExplorationReport:
        """Submit one :class:`ExplorationRequest`; decoded report back."""
        response = self.explore_wire(request_body(request))
        try:
            return response_from_wire(response)
        except ProtocolError as exc:
            raise ServeError(200, f"undecodable response: {exc}") from exc

    def explore_batch_wire(self, documents: Sequence[Dict]) -> List[Dict]:
        """``POST /v1/explore/batch``; response documents in order."""
        envelope = {
            "schema": BATCH_REQUEST_SCHEMA,
            "requests": list(documents),
        }
        return self._post_batch(envelope)

    def _post_batch(self, body: Union[Dict, bytes]) -> List[Dict]:
        response = self._call_json("POST", "/v1/explore/batch", body)
        responses = response.get("responses")
        if not isinstance(responses, list):
            raise ServeError(200, "batch response missing 'responses' list")
        return responses

    def explore_batch(
        self, requests: Sequence[ExplorationRequest]
    ) -> List[ExplorationReport]:
        """Submit a batch of requests; decoded reports in request order."""
        responses = self._post_batch(batch_body(requests))
        try:
            return [response_from_wire(response) for response in responses]
        except ProtocolError as exc:
            raise ServeError(200, f"undecodable batch response: {exc}") from exc

    # -- incremental sessions ----------------------------------------------------

    def session_create(
        self,
        address_bits: int,
        max_level: Optional[int] = None,
        name: str = "",
        resume: Optional[str] = None,
    ) -> Dict:
        """``POST /v1/sessions``; the session info document."""
        from repro.serve.sessions import SESSION_SCHEMA

        document = self._call_json(
            "POST",
            "/v1/sessions",
            {
                "schema": SESSION_SCHEMA,
                "address_bits": address_bits,
                "max_level": max_level,
                "name": name,
                "resume": resume,
            },
        )
        return document["session"]

    def session_list(self) -> List[Dict]:
        """``GET /v1/sessions``; info documents of open sessions."""
        return self._call_json("GET", "/v1/sessions")["sessions"]

    def session_info(self, session_id: str) -> Dict:
        """``GET /v1/sessions/{id}``; one session's info document."""
        return self._call_json("GET", f"/v1/sessions/{session_id}")["session"]

    def session_append(
        self,
        session_id: str,
        addresses: Sequence[int],
        checkpoint: bool = False,
    ) -> Dict:
        """``POST /v1/sessions/{id}/append``; the full append response."""
        return self._call_json(
            "POST",
            f"/v1/sessions/{session_id}/append",
            {"addresses": list(addresses), "checkpoint": checkpoint},
        )

    def session_explore(
        self,
        session_id: str,
        budgets: Sequence[int] = (0,),
        include_depth_one: bool = False,
    ) -> Dict:
        """``GET /v1/sessions/{id}/explore``; results keyed by budget."""
        query = "&".join(f"budget={int(b)}" for b in budgets)
        if include_depth_one:
            query += "&include_depth_one=true"
        return self._call_json(
            "GET", f"/v1/sessions/{session_id}/explore?{query}"
        )

    def session_delete(self, session_id: str) -> None:
        """``DELETE /v1/sessions/{id}``."""
        self._call_json("DELETE", f"/v1/sessions/{session_id}")
