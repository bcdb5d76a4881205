"""Serve-side incremental sessions: append-only exploration over HTTP.

A session wraps a :class:`repro.stream.TraceSession` behind an opaque
id.  Clients create one, stream address chunks into it, and ask for
optimal ``(D, A)`` pairs whenever they like — each answer reflects
everything appended so far, at a cost proportional to the appended
chunk, not the session history.

Routes (see :class:`repro.serve.server.ExploreServer`):

* ``POST /v1/sessions`` — create (or resume from a checkpoint digest);
* ``GET /v1/sessions`` — list open sessions;
* ``GET /v1/sessions/{id}`` — one session's info document;
* ``POST /v1/sessions/{id}/append`` — ingest an address chunk,
  optionally checkpointing to the artifact store afterwards;
* ``GET /v1/sessions/{id}/explore`` — ``(D, A)`` pairs for one or more
  budgets (``?budget=0&budget=4``);
* ``DELETE /v1/sessions/{id}`` — drop the session.

Session state is mutable and lives in the daemon process, so appends
and explorations run on the event loop's default thread executor under
a per-session lock — never in the worker *process* pool (the state
cannot cross a process boundary without a checkpoint round-trip).
Checkpoints make sessions durable: with an artifact store attached, a
client can re-create a session from its content digest after a daemon
restart.
"""

from __future__ import annotations

import asyncio
import itertools
import secrets
from typing import Dict, List, Optional

from repro.serve.protocol import (
    ProtocolError,
    _address_list,
    _bool,
    _check_fields,
    _int,
    _require_dict,
    _str,
)
from repro.stream import TraceSession

#: Schema identifier of the session-create document.
SESSION_SCHEMA = "repro-serve-session/1"

#: Wire fields of a session-create document.
SESSION_FIELDS = ("schema", "address_bits", "max_level", "name", "resume")

#: Wire fields of an append document.
APPEND_FIELDS = ("addresses", "checkpoint")


class SessionError(ValueError):
    """A session operation failed validation (the server answers 400)."""


class ManagedSession:
    """One live session plus its serialization lock."""

    __slots__ = ("id", "session", "lock")

    def __init__(self, session_id: str, session: TraceSession) -> None:
        self.id = session_id
        self.session = session
        self.lock = asyncio.Lock()

    def info(self) -> Dict[str, object]:
        """The session's wire info document."""
        session = self.session
        return {
            "id": self.id,
            "name": session.name,
            "address_bits": session.address_bits,
            "max_level": session.max_level,
            "total_refs": session.total_refs,
            "unique_refs": session.unique_refs,
            "appends": session.appends,
            "digest": session.content_digest,
        }


class SessionManager:
    """The daemon's registry of open sessions.

    Args:
        store_root: artifact-store root for checkpoints; ``None``
            disables persistence (checkpoint requests then fail 400).
        max_sessions: refuse creations beyond this many open sessions.
    """

    #: Ceiling on concurrently open sessions (state is O(N') each).
    DEFAULT_MAX_SESSIONS = 64

    def __init__(
        self,
        store_root: Optional[str] = None,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ) -> None:
        self.store_root = store_root
        self.max_sessions = max_sessions
        self._sessions: "Dict[str, ManagedSession]" = {}
        self._counter = itertools.count(1)

    def __len__(self) -> int:
        return len(self._sessions)

    def _store(self):
        if self.store_root is None:
            return None
        from repro.store.fs import ArtifactStore

        return ArtifactStore(self.store_root)

    def create(
        self,
        address_bits: int,
        max_level: Optional[int] = None,
        name: str = "",
        resume: Optional[str] = None,
    ) -> ManagedSession:
        """Open a session, optionally resuming a checkpoint digest.

        Raises:
            SessionError: at the session cap, on invalid parameters, on
                a resume digest with no stored checkpoint, or on resume
                without a configured store.
        """
        if len(self._sessions) >= self.max_sessions:
            raise SessionError(
                f"session limit reached ({self.max_sessions} open)"
            )
        store = self._store()
        if resume is not None:
            if store is None:
                raise SessionError("resume requires the daemon to run with a store")
            session = TraceSession.resume(
                store, resume, max_level=max_level, name=name
            )
            if session is None:
                raise SessionError(f"no checkpoint stored for digest {resume!r}")
            if session.address_bits != address_bits:
                raise SessionError(
                    f"checkpoint width {session.address_bits} != requested "
                    f"{address_bits}"
                )
        else:
            try:
                session = TraceSession(
                    address_bits, max_level=max_level, store=store, name=name
                )
            except ValueError as exc:
                raise SessionError(str(exc)) from exc
        session_id = f"s{next(self._counter):04d}-{secrets.token_hex(4)}"
        managed = ManagedSession(session_id, session)
        self._sessions[session_id] = managed
        return managed

    def get(self, session_id: str) -> ManagedSession:
        """Look up a session; raises ``KeyError`` for unknown ids."""
        return self._sessions[session_id]

    def remove(self, session_id: str) -> None:
        """Drop a session; raises ``KeyError`` for unknown ids."""
        del self._sessions[session_id]

    def list_info(self) -> List[Dict[str, object]]:
        """Info documents of every open session, oldest first."""
        return [managed.info() for managed in self._sessions.values()]


# -- wire validation -------------------------------------------------------------


def parse_create(document: object) -> Dict[str, object]:
    """Validate a session-create document; returns constructor kwargs."""
    document = _require_dict(document, "session")
    _check_fields(document, SESSION_FIELDS, "session")
    if document.get("schema") != SESSION_SCHEMA:
        raise ProtocolError(
            f"session.schema must be {SESSION_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    if "address_bits" not in document:
        raise ProtocolError("session: missing field 'address_bits'")
    address_bits = _int(document["address_bits"], "session.address_bits")
    if address_bits < 1:
        raise ProtocolError(
            f"session.address_bits must be >= 1, got {address_bits}"
        )
    max_level = document.get("max_level")
    if max_level is not None:
        max_level = _int(max_level, "session.max_level")
        from repro.core.postlude import validate_max_level

        try:
            validate_max_level(max_level)
        except ValueError as exc:
            raise ProtocolError(f"session: {exc}") from exc
    resume = document.get("resume")
    if resume is not None:
        resume = _str(resume, "session.resume")
    return {
        "address_bits": address_bits,
        "max_level": max_level,
        "name": _str(document.get("name", ""), "session.name"),
        "resume": resume,
    }


def parse_append(document: object) -> Dict[str, object]:
    """Validate an append document; returns ``{addresses, checkpoint}``."""
    document = _require_dict(document, "append")
    _check_fields(document, APPEND_FIELDS, "append")
    if "addresses" not in document:
        raise ProtocolError("append: missing field 'addresses'")
    addresses = _address_list(document["addresses"], "append.addresses")
    return {
        "addresses": addresses,
        "checkpoint": _bool(
            document.get("checkpoint", False), "append.checkpoint"
        ),
    }


def parse_budgets(query: str) -> Dict[str, object]:
    """Parse an explore query string: repeated ``budget=`` + flags."""
    budgets: List[int] = []
    include_depth_one = False
    if query:
        for pair in query.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            if key == "budget":
                try:
                    budgets.append(int(value))
                except ValueError as exc:
                    raise ProtocolError(
                        f"explore: malformed budget {value!r}"
                    ) from exc
            elif key == "include_depth_one":
                include_depth_one = value.lower() in ("1", "true", "yes")
            else:
                raise ProtocolError(f"explore: unknown query key {key!r}")
    if not budgets:
        budgets = [0]
    if any(b < 0 for b in budgets):
        raise ProtocolError("explore: budgets must be non-negative")
    return {"budgets": budgets, "include_depth_one": include_depth_one}
