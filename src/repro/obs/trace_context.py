"""Cross-process trace identity: trace ids, ambient scope, JSONL export.

A *trace* is one end-to-end request.  The HTTP front end mints (or
honors) a ``trace_id`` at ingress; :func:`trace_scope` then makes a
:class:`TraceContext` ambient for everything running on behalf of that
request — the admission gate, the micro-batcher, the cluster router —
so that :mod:`repro.obs.tracing` spans opened anywhere underneath tag
themselves with the trace id and link their roots to the remote parent
span.  The context also rides cluster wire frames (``to_wire`` /
``from_wire``) so shard-worker spans in other processes join the same
trace.

The ambient slot is a :class:`contextvars.ContextVar`: each asyncio
task and each thread sees its own value, so concurrent requests on one
event loop cannot leak contexts into each other.  Note that
``loop.run_in_executor`` does **not** propagate context vars — executor
work must re-enter the scope explicitly with the request's captured
``TraceContext``.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "TraceContext",
    "new_trace_id",
    "coerce_trace_id",
    "current_trace",
    "trace_scope",
    "export_trace_jsonl",
]

#: Caller-supplied request ids (``X-Request-Id``) are honored only when
#: they look like an id: short and free of header/JSON metacharacters.
#: ``\Z`` (not ``$``) so a trailing newline — a header-injection vector
#: — fails validation instead of slipping past the anchored match.
_REQUEST_ID_RE = re.compile(r"[A-Za-z0-9._:-]{1,64}\Z")


def new_trace_id() -> str:
    """A fresh 128-bit hex trace id (no process-global counter state)."""
    return os.urandom(16).hex()


def coerce_trace_id(candidate) -> str:
    """Honor a well-formed caller-supplied id, else mint a fresh one."""
    if isinstance(candidate, str) and _REQUEST_ID_RE.fullmatch(candidate):
        return candidate
    return new_trace_id()


@dataclass(frozen=True)
class TraceContext:
    """Identity of the trace a piece of work belongs to.

    ``parent_span_id`` names the span (possibly in another process)
    under which root spans opened inside this scope should hang.
    """

    trace_id: str
    parent_span_id: str | None = None

    def to_wire(self) -> dict:
        """JSON-ready form carried in cluster wire frames."""
        payload = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        return payload

    @classmethod
    def from_wire(cls, payload) -> "TraceContext | None":
        """Parse the wire form; ``None`` on missing/malformed input."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = payload.get("parent_span_id")
        if parent is not None and not isinstance(parent, str):
            parent = None
        return cls(trace_id=trace_id, parent_span_id=parent)


_current: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> TraceContext | None:
    """The ambient :class:`TraceContext`, if any."""
    return _current.get()


@contextmanager
def trace_scope(ctx: TraceContext | None):
    """Make ``ctx`` ambient for the dynamic extent of the block.

    ``trace_scope(None)`` explicitly clears the ambient trace (used by
    background work that must not inherit a request's identity).
    """
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def export_trace_jsonl(path, span_dicts: list[dict]) -> int:
    """Write an assembled trace (span dicts) as JSON lines.

    It operates on plain dicts, because a reassembled cluster trace
    mixes local spans with spans fetched over the wire from worker
    processes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for record in span_dicts:
            fh.write(json.dumps(record) + "\n")
    return len(span_dicts)
