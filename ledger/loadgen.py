"""The load generator: raw keep-alive HTTP/1.1 over asyncio streams.

One process, a fixed number of connections.  A *closed* loop sends a
connection's next request only after the previous reply arrived (our
callers are blocking ``ServerClient`` s that wait for the reply); a
*paced* loop sends on a schedule and times each request from when it
was due, so a server stall is charged to the requests it delayed.

While a run is being measured the generator only stores the reply bytes
and two timestamps; replies are parsed after the window closes, so the
generator takes as little of the machine as it can from the server.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from dataclasses import dataclass

#: Connections every workload uses: two callers, each waiting for its
#: reply.  (With one, ``cluster_exact`` measures the router hedging its
#: only request in flight: latencies climb from 5 to 40 ms and fall back,
#: over and over, and the rate moves by a quarter between servers.)
CONNECTIONS = 2

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


@dataclass
class Sample:
    """One request as the generator saw it."""

    index: int  # position in the request stream
    due: float  # perf_counter: when it was sent (closed) or due (paced)
    sent: float  # perf_counter: when it was actually written
    done: float  # perf_counter: when the whole reply had arrived
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


# --------------------------------------------------------------------- #
# statistics helpers
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return float(ordered[int(rank) - 1])


def tail_percentile(n: int, candidates=(99, 98, 95, 90, 75)) -> int:
    """Highest candidate percentile with >= MIN_BEYOND samples beyond it.

    With ``n`` samples, ``n * (100 - p) / 100`` lie beyond percentile
    ``p``.  Falls back to the median when even the lowest candidate has
    too few.
    """
    for p in candidates:
        if n * (100 - p) >= MIN_BEYOND * 100:
            return p
    return 50


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------- #
# HTTP
# --------------------------------------------------------------------- #
def http_request(method: str, path: str, payload: dict | None = None) -> bytes:
    """The bytes of one keep-alive request with an optional JSON body."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: ledger\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    return head + body


class Connection:
    """One keep-alive connection; requests on it are strictly serial."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def call(self, request: bytes) -> tuple[int, bytes]:
        """Send ``request``; return ``(status, body)`` of the reply."""
        self._writer.write(request)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


async def get_json(port: int, path: str) -> dict:
    """One GET on a fresh connection, decoded."""
    conn = await Connection.open(port)
    try:
        status, body = await conn.call(http_request("GET", path))
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}: {body[:200]!r}")
    return json.loads(body)


async def _one(
    conn: Connection, index: int, request: bytes, due: float | None = None
) -> Sample:
    sent = time.perf_counter()
    try:
        status, body = await conn.call(request)
    except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
        status, body = 0, repr(exc).encode("utf-8")
    return Sample(
        index, sent if due is None else due, sent, time.perf_counter(), status, body
    )


async def closed_loop(
    port: int,
    requests: list[bytes],
    *,
    seconds: float,
    warmup_s: float,
    connections: int = CONNECTIONS,
    start_index: int = 0,
) -> tuple[list[Sample], float]:
    """Drive ``connections`` closed-loop clients for ``seconds``.

    The measured window takes requests in stream order from
    ``start_index`` (wrapping), so which requests it starts with does not
    depend on how many the warm-up got through; the warm-up walks the
    stream backwards from there and its replies are dropped.  Returns the
    measured samples and the ``perf_counter`` time the window opened.
    """
    cursor = start_index
    warm = start_index
    samples: list[Sample] = []

    async def client(conn: Connection, until: float, keep: bool) -> None:
        nonlocal cursor, warm
        while time.perf_counter() < until:
            if keep:
                index = cursor
                cursor += 1
            else:
                warm -= 1
                index = warm
            sample = await _one(conn, index, requests[index % len(requests)])
            if keep:
                samples.append(sample)
            if sample.status == 0:
                return  # the connection is gone; the failure is recorded

    conns = [await Connection.open(port) for _ in range(connections)]
    try:
        until = time.perf_counter() + warmup_s
        await asyncio.gather(*(client(c, until, False) for c in conns))
        opened = time.perf_counter()
        await asyncio.gather(*(client(c, opened + seconds, True) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return samples, opened


async def paced_loop(
    conn: Connection,
    requests: list[bytes],
    *,
    rate: float,
    stop,
    start_index: int = 0,
) -> list[Sample]:
    """Send on a fixed schedule until ``stop(sample)`` returns true.

    Request ``i`` is due at ``t0 + i / rate``.  One connection carries
    them in order, so a late reply delays what follows; each latency is
    measured from the due time and ``sent - due`` is the generator's
    (and the queue's) lateness.
    """
    samples: list[Sample] = []
    t0 = time.perf_counter()
    i = 0
    while True:
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        index = start_index + i
        sample = await _one(conn, index, requests[index % len(requests)], due)
        samples.append(sample)
        i += 1
        if sample.status == 0 or stop(sample):
            return samples
