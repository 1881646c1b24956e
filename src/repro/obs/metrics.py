"""The metrics registry: named counters, gauges, and latency histograms.

The repo used to measure its systems claims through three disconnected
mechanisms — :class:`~repro.linalg.counters.OperatorCounter` for the §4
flop model, the process-global ``serving_counters`` dict for the query
fast path, and ad-hoc stopwatches inside each benchmark.  This module is
the one sink they all land in:

* **counters** — monotonically increasing event counts
  (``serving.queries_served``, ``updating.folded_documents``);
* **gauges** — last-written values (``lanczos.matvecs``,
  ``orthogonality.doc_loss``) for quantities that describe the most
  recent run rather than accumulate;
* **histograms** — fixed-bucket latency distributions.  Each
  observation lands in a log-spaced bucket, so the registry can report
  count / sum / p50 / p95 / p99 without storing samples; memory per
  histogram is one small int array regardless of traffic.

All mutation goes through one re-entrant lock, because the server
increments counters from its event loop (which also scores), its seal
thread and its writer threads at once.  Single increments
are a dict update under an uncontended lock — microseconds, negligible
against the GEMM they instrument.
"""

from __future__ import annotations

import bisect
import threading

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: Log-spaced latency boundaries (seconds), 1 µs … 60 s, three per decade.
#: Values above the last boundary land in an implicit overflow bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class Histogram:
    """Fixed-bucket distribution: count, sum, and interpolated quantiles.

    Observations are bucketed with ``bisect`` over the sorted boundary
    tuple; quantiles are recovered by linear interpolation inside the
    bucket holding the target rank, clamped to the observed min/max so
    small-sample quantiles stay inside the data range.
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, boundaries: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        self.boundaries = tuple(float(b) for b in boundaries)
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (caller holds the registry lock)."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Interpolated quantile ``q`` in [0, 1] from the bucket counts."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for i, c in enumerate(self.bucket_counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo = self.boundaries[i - 1] if i > 0 else 0.0
                hi = (
                    self.boundaries[i]
                    if i < len(self.boundaries)
                    else self.boundaries[-1]
                )
                frac = (target - cum) / c
                est = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return min(max(est, self.min), self.max)
            cum += c
        return self.max

    @property
    def mean(self) -> float:
        """Average observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary, including the raw buckets for merging."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output (for merging)."""
        hist = cls(tuple(data["boundaries"]))
        hist.bucket_counts = [int(c) for c in data["bucket_counts"]]
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        if hist.count:
            hist.min = float(data["min"])
            hist.max = float(data["max"])
        return hist

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s buckets into this histogram (same boundaries)."""
        if other.boundaries != self.boundaries:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to the named counter (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(by)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        boundaries: tuple[float, ...] | None = None,
    ) -> None:
        """Record ``value`` into the named histogram.

        ``boundaries`` applies only when the histogram is created by this
        call; later observations reuse the existing bucket layout.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(boundaries or DEFAULT_LATENCY_BUCKETS)
                self._histograms[name] = hist
            hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """The named histogram object, or None (shared, do not mutate)."""
        with self._lock:
            return self._histograms.get(name)

    # ------------------------------------------------------------------ #
    def histogram_sums(self, prefix: str = "") -> dict[str, float]:
        """Accumulated seconds per histogram (the old flat-timer view)."""
        with self._lock:
            return {
                k: h.sum
                for k, h in self._histograms.items()
                if k.startswith(prefix)
            }

    def snapshot(self) -> dict:
        """Nested copy of everything: counters, gauges, histograms."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.to_dict() for name, h in self._histograms.items()
                },
            }

    def reset(self, prefix: str | None = None) -> None:
        """Drop every metric, or only those whose name starts with ``prefix``."""
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                return
            for store in (self._counters, self._gauges, self._histograms):
                for key in [k for k in store if k.startswith(prefix)]:
                    del store[key]


#: The process-wide registry every instrumented layer writes to.
registry = MetricsRegistry()
