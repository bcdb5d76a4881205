"""Content-addressed keys for pipeline artifacts.

Every cacheable artifact is identified by four coordinates: the digest
of the trace it was derived from, the pipeline *stage* that produced it
(``histograms``, ``policy-misses``, ``stream-checkpoint``), the stage's
parameters (e.g. the histogram ``max_level``), and the stage codec's
schema version.  Two runs that agree on all four are guaranteed to
produce bit-identical artifacts — the engines are differentially tested
for exactly that — so the cache never needs heuristics about freshness:
a key either exists with the right content or it does not.

The trace digest is *content*-addressed: it hashes the address sequence
and the declared address width, not the trace's name or provenance.
Re-emitting the same workload trace under a different file name warm-
starts from the same artifacts.  Access kinds are deliberately excluded:
every prelude/postlude product depends only on the address sequence.

Digests use SHA-256, so they are stable across processes, interpreter
restarts and machines (Python's builtin ``hash`` is salted per process
and would be useless here).
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Tuple

from repro.trace.trace import Trace

#: Version tag mixed into every trace digest; bump if the digest's
#: byte-level definition ever changes.
TRACE_DIGEST_SCHEMA = b"repro-trace-digest/1"


def trace_digest(trace: Trace) -> str:
    """SHA-256 content digest of a trace (addresses + address width).

    Stable across runs and hosts: addresses are hashed as packed
    little-endian 64-bit words regardless of the platform's byte order.
    """
    hasher = hashlib.sha256()
    hasher.update(TRACE_DIGEST_SCHEMA)
    hasher.update(struct.pack("<qq", trace.address_bits, len(trace)))
    addresses = array("q", trace.addresses)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        addresses.byteswap()
    hasher.update(addresses.tobytes())
    return hasher.hexdigest()


@dataclass(frozen=True)
class ArtifactKey:
    """One artifact's identity: ``(trace digest, stage, params, schema)``.

    Attributes:
        trace_digest: :func:`trace_digest` of the source trace.
        stage: pipeline stage name (a codec's ``stage`` attribute).
        schema: the stage codec's serialization version; bumping a codec
            version invalidates that stage's old entries without
            touching any other stage.
        params: canonicalized stage parameters as sorted
            ``(name, repr(value))`` pairs — build via :meth:`for_stage`.
    """

    trace_digest: str
    stage: str
    schema: int
    params: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def for_stage(
        cls, trace_digest: str, stage: str, schema: int, **params: object
    ) -> "ArtifactKey":
        """Build a key, canonicalizing keyword parameters."""
        canonical = tuple(
            sorted((name, repr(value)) for name, value in params.items())
        )
        return cls(
            trace_digest=trace_digest,
            stage=stage,
            schema=schema,
            params=canonical,
        )

    @property
    def digest(self) -> str:
        """SHA-256 hex digest naming this artifact on disk."""
        hasher = hashlib.sha256()
        hasher.update(
            f"{self.trace_digest}\x00{self.stage}\x00{self.schema}\x00".encode()
        )
        for name, value in self.params:
            hasher.update(f"{name}={value}\x00".encode())
        return hasher.hexdigest()

    def __str__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params) or "-"
        return (
            f"{self.stage}/v{self.schema}"
            f"[{self.trace_digest[:12]}; {params}]"
        )
