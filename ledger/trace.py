"""Spans recorded by the ledger around calls into the program's layers.

The program is measured from outside in this benchmark: a span opens
before a public function of one layer is called and closes when it
returns.  Spans are kept in memory and written once, when the replay
ends.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import json
import time


class Span:
    """One timed call: ``[start, end)`` in ``perf_counter`` seconds.

    A span is its own context manager and a slotted class, because the
    replay opens several per millisecond-long request and what recording
    them costs is itself a reported number.
    """

    __slots__ = ("id", "name", "request", "parent", "start", "end", "attrs", "_tracer")

    def __init__(self, tracer, id, name, request, parent, attrs):
        self._tracer = tracer
        self.id = id
        self.name = name
        self.request = request
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        self._tracer.spans.append(self)
        self._tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self._tracer._stack.pop()
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "request": self.request,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class _Off:
    """What a disabled tracer hands out: enters and exits, records nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class Tracer:
    """Collects nested spans; a disabled tracer records nothing.

    The disabled form exists so the replay can run the identical code
    with spans off and report what recording them costs.
    """

    _OFF = _Off()

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, request: int | None = None, **attrs):
        """Context manager timing one call; nests under the open span."""
        if not self.enabled:
            return self._OFF
        if self._stack:
            parent = self._stack[-1]
            if request is None:
                request = parent.request
            return Span(self, len(self.spans), name, request, parent.id, attrs)
        return Span(self, len(self.spans), name, request, None, attrs)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record.to_dict()) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus what its children cover of it.

    Children may overlap each other (parallel parts) and are clipped to
    the parent's interval, so a self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {record.id: record for record in spans}
    for record in spans:
        if record.parent is None or record.parent not in by_id:
            continue
        parent = by_id[record.parent]
        start = max(record.start, parent.start)
        end = min(record.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        record.id: record.duration - covered(children.get(record.id, []))
        for record in spans
    }


def blocking_time(spans: list[Span]) -> dict[int, float]:
    """Request id -> seconds of self time its spans add up to.

    Every process of a run shares one CPU (``servers.pin_to_one_cpu``),
    so what the replay runs one after another, the two shard workers of
    a cluster too, the served program runs one after another as well:
    the path that blocks a reply is all of the request's self time.
    """
    own = self_times(spans)
    total: dict[int, float] = {}
    for record in spans:
        if record.request is not None:
            total[record.request] = total.get(record.request, 0.0) + own[record.id]
    return total
