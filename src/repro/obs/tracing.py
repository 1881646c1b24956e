"""Wall-clock tracing spans with attributes, nesting, and a ring buffer.

``span("lsi.search", top=10)`` is a context manager that, when tracing
is **enabled**, records a :class:`Span` — name, attributes, start time,
duration, parent linkage — into a bounded in-memory ring buffer and
feeds the duration into the metrics registry as a latency histogram
under the span's name.  Nesting is tracked through a
:class:`contextvars.ContextVar`, so every thread *and* every asyncio
task gets its own span stack — concurrent request handlers on one event
loop cannot mis-parent each other's spans.

Span ids are strings of the form ``"<proc>-<seq>"`` where ``<proc>`` is
a random per-process tag: ids stay unique across the cluster's worker
processes, so a reassembled distributed trace never collides.  A span
opened with no local parent adopts the ambient
:class:`repro.obs.trace_context.TraceContext` — its ``trace_id`` and
(for the root) its remote ``parent_span_id`` — which is how worker-side
spans link under the router's scatter span.

Tracing is **disabled by default** and the disabled path is engineered
to be near-free: constructing the context manager allocates one small
object, and enter/exit reduce to a single global flag check each —
``benchmarks/bench_query_fastpath.py`` asserts the per-query cost stays
under 2% of serving time.  Hot paths can therefore stay instrumented
permanently; only processes that opt in (the CLI, benchmarks exporting
observability blobs, tests) pay for capture.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.obs.metrics import registry
from repro.obs.trace_context import current_trace

__all__ = [
    "Span",
    "span",
    "enable_tracing",
    "tracing_enabled",
    "recent_spans",
    "spans_for_trace",
]

#: Finished spans retained in memory (newest win).
RING_CAPACITY = 512

#: Random per-process tag making span ids unique across the cluster.
_PROC = os.urandom(3).hex()

_enabled = False
_ring: deque["Span"] = deque(maxlen=RING_CAPACITY)
_ring_lock = threading.Lock()
_ids = itertools.count(1)
#: Innermost open span for the current thread/task (per-context stack).
_current_span: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None
)


@dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    name: str
    span_id: str
    parent_id: str | None
    depth: int
    start: float  # wall-clock epoch seconds (time.time)
    duration: float = 0.0  # seconds (perf_counter delta)
    trace_id: str | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready record (attrs coerced to strings when needed)."""
        attrs = {}
        for key, value in self.attrs.items():
            attrs[key] = (
                value
                if isinstance(
                    value, (int, float, str, bool, type(None), list)
                )
                else repr(value)
            )
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
            "attrs": attrs,
        }


class span:
    """Context manager producing one :class:`Span` when tracing is on.

    ``with span("lsi.fit.svd", method="lanczos"): ...`` — attributes are
    arbitrary keyword arguments stored on the span.  On exit the
    duration also lands in the registry histogram named after the span,
    so latency percentiles accumulate without storing samples.  An
    exception inside the block is recorded in the span's attrs
    (``error``) and re-raised; the duration still counts.
    """

    __slots__ = ("_name", "_attrs", "_t0", "_span", "_token")

    def __init__(self, name: str, **attrs):
        self._name = name
        self._attrs = attrs
        self._span = None
        self._token = None

    def __enter__(self) -> "span":
        if not _enabled:
            return self
        parent = _current_span.get()
        if parent is not None:
            parent_id = parent.span_id
            trace_id = parent.trace_id
            depth = parent.depth + 1
            if trace_id is None:
                ctx = current_trace()
                if ctx is not None:
                    trace_id = ctx.trace_id
        else:
            ctx = current_trace()
            parent_id = ctx.parent_span_id if ctx is not None else None
            trace_id = ctx.trace_id if ctx is not None else None
            depth = 0
        record = Span(
            name=self._name,
            span_id=f"{_PROC}-{next(_ids)}",
            parent_id=parent_id,
            depth=depth,
            start=time.time(),
            trace_id=trace_id,
            attrs=dict(self._attrs),
        )
        self._token = _current_span.set(record)
        self._span = record
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._span
        if record is None:
            return False
        record.duration = time.perf_counter() - self._t0
        self._span = None
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc is not None:
            record.attrs["error"] = repr(exc)
        registry.observe(record.name, record.duration)
        with _ring_lock:
            _ring.append(record)
        return False

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute discovered mid-block (no-op when disabled)."""
        if self._span is not None:
            self._span.attrs[key] = value

    @property
    def span_id(self) -> str | None:
        """The live span's id, or ``None`` when tracing is disabled."""
        return self._span.span_id if self._span is not None else None

    @property
    def trace_id(self) -> str | None:
        """The live span's trace id (``None`` when disabled/untraced)."""
        return self._span.trace_id if self._span is not None else None


def enable_tracing(on: bool = True) -> bool:
    """Turn span capture on or off; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


def tracing_enabled() -> bool:
    """Whether spans are currently being captured."""
    return _enabled


def recent_spans(n: int | None = None) -> list[Span]:
    """The newest ``n`` finished spans, oldest first (all when ``None``).

    The ring buffer is snapshotted under its lock, so a concurrent
    writer finishing spans cannot mutate the deque mid-iteration.
    """
    with _ring_lock:
        spans = list(_ring)
    return spans if n is None else spans[-n:]


def spans_for_trace(trace_id: str) -> list[Span]:
    """Finished local spans belonging to ``trace_id``, oldest first.

    A span joins a trace either directly (its ``trace_id``) or by
    listing the id in a ``trace_ids`` attribute — the micro-batcher's
    batch span serves several traces at once and joins each that way.
    """
    out = []
    for record in recent_spans():
        if record.trace_id == trace_id:
            out.append(record)
            continue
        extra = record.attrs.get("trace_ids")
        if isinstance(extra, (list, tuple, set)) and trace_id in extra:
            out.append(record)
    return out
