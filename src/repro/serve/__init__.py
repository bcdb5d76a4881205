"""The exploration service: a long-lived daemon for exploration requests.

``repro serve`` keeps engines, caches, and a worker pool warm so
repeated explorations skip process startup, and concurrent identical
requests collapse to one computation (in-flight dedup).  The package
splits along seams:

* :mod:`repro.serve.protocol` — strict JSON wire codecs + dedup keys;
* :mod:`repro.serve.dedup` — the in-flight leader/follower table;
* :mod:`repro.serve.pool` — bounded process/thread/inline worker pool;
* :mod:`repro.serve.metrics` — latency reservoir + Prometheus text;
* :mod:`repro.serve.sessions` — incremental append/explore sessions;
* :mod:`repro.serve.server` — the asyncio HTTP daemon;
* :mod:`repro.serve.client` — thin blocking client (``repro submit``).
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.dedup import InFlightTable
from repro.serve.metrics import Reservoir, parse_metrics, render_metrics
from repro.serve.pool import (
    POOL_KINDS,
    BoundedPool,
    WorkerPool,
    answer_from_store,
    execute_request,
    execute_wire_request,
)
from repro.serve.protocol import (
    ACCEPTED_REQUEST_SCHEMAS,
    BATCH_REQUEST_SCHEMA,
    BATCH_RESPONSE_SCHEMA,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    ProtocolError,
    batch_body,
    batch_from_wire,
    request_body,
    request_from_wire,
    request_key,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    trace_from_wire,
    trace_to_wire,
)
from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT, ExploreServer
from repro.serve.sessions import SESSION_SCHEMA, SessionError, SessionManager

__all__ = [
    "ACCEPTED_REQUEST_SCHEMAS",
    "BATCH_REQUEST_SCHEMA",
    "BATCH_RESPONSE_SCHEMA",
    "BoundedPool",
    "POOL_KINDS",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ExploreServer",
    "InFlightTable",
    "ProtocolError",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "Reservoir",
    "SESSION_SCHEMA",
    "ServeClient",
    "ServeError",
    "SessionError",
    "SessionManager",
    "WorkerPool",
    "answer_from_store",
    "batch_body",
    "batch_from_wire",
    "execute_request",
    "execute_wire_request",
    "parse_metrics",
    "render_metrics",
    "request_body",
    "request_from_wire",
    "request_key",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "trace_from_wire",
    "trace_to_wire",
]
