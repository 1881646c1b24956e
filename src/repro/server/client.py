"""A small blocking client for the query server (stdlib ``http.client``).

The counterpart to :mod:`repro.server.http`: one *persistent* keep-alive
connection reused across calls, JSON in and out, server-side failures
mapped back onto the library's exception hierarchy (429 →
:class:`ServerOverloadError` with ``reason="queue_full"``, 503 →
``reason="draining"``, 504 → :class:`DeadlineExceededError`, 403 →
:class:`ClusterReadOnlyError` with the server-assigned request id on
``.request_id``, other non-2xx → :class:`ReproError`), so a caller's
retry/backoff logic reads the same whether it drives the engine
in-process or over the wire.

Reusing a connection admits exactly one new failure mode: the server
(or a middlebox) closed it between our calls, so the next request dies
on a socket that was fine when we last used it.  That one case — and
only that one — is retried transparently on a fresh connection.  A
request that failed on a *fresh* connection is never resent: the server
may have executed it (think ``POST /add``), and replaying is the
client's caller's decision, not ours.

>>> client = ServerClient(port=8080)
>>> client.search("blood pressure age", top=5)["results"]
[[3, 0.89, 'M4'], ...]
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Sequence

from repro.errors import (
    ClusterReadOnlyError,
    DeadlineExceededError,
    ReproError,
    ServerOverloadError,
    UnknownTenantError,
)

__all__ = ["ServerClient"]

#: Errors that mean "the reused socket went stale", eligible for the
#: single transparent retry.  ``BadStatusLine``/``RemoteDisconnected``
#: is the classic half-closed keep-alive race; ``CannotSendRequest`` is
#: httplib's state machine refusing a connection a prior failure left
#: mid-request.  Deliberately narrow: a *timeout* is excluded, because
#: a slow server may still be executing the request, and resending it
#: would not be transparent.
_STALE_ERRORS = (
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    ConnectionError,
)


class ServerClient:
    """Blocking JSON client for one server address, keep-alive reused."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        *,
        tenant: str | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Default tenant id sent as ``X-Tenant`` with every request;
        #: per-call ``tenant=`` arguments override it.
        self.tenant = tenant
        #: The server-assigned id of the most recent response (its
        #: ``X-Request-Id`` header), successful or not.  Under
        #: concurrent use, "most recent" is whichever thread's response
        #: landed last.
        self.last_request_id: str | None = None
        # One pooled connection *per thread*: http.client connections
        # are single-request state machines, so sharing one across
        # threads interleaves sends and reads.  Thread-local pooling
        # keeps the keep-alive win while making a shared client safe
        # to call from a thread pool.
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's pooled connection plus whether it is fresh."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
            return conn, True
        return conn, False

    def close(self) -> None:
        """Drop this thread's pooled connection (safe to call repeatedly).

        Other threads' connections close when their threads (and the
        thread-local storage holding them) are collected.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        request_id: str | None = None,
        tenant: str | None = None,
    ) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        effective_tenant = tenant if tenant is not None else self.tenant
        if effective_tenant is not None:
            headers["X-Tenant"] = effective_tenant
        while True:
            conn, fresh = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except _STALE_ERRORS:
                self.close()
                if fresh:
                    # A fresh connection failing is a real failure — and
                    # the server may have executed the request, so
                    # resending it is not ours to decide.
                    raise
                continue  # stale keep-alive reuse: retry once, now fresh
            break
        if response.will_close:
            self.close()
        # The server stamps every response — including 429/503/504 — so
        # a rejected or timed-out request stays correlatable with the
        # server-side trace and slow-query log.
        served_id = response.getheader("X-Request-Id")
        self.last_request_id = served_id
        if (
            path.startswith("/metrics")
            and "text/plain" in (response.getheader("Content-Type") or "")
        ):
            return {"text": raw.decode("utf-8", "replace")}
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            data = {"error": raw.decode("utf-8", "replace")}
        if response.status >= 400:
            suffix = f" [request_id={served_id}]" if served_id else ""
            if response.status == 404 and data.get("unknown_tenant"):
                exc: ReproError = UnknownTenantError(
                    data.get("error", "unknown tenant") + suffix,
                    tenant=data.get("tenant"),
                )
            elif response.status == 429:
                exc = ServerOverloadError(
                    data.get("error", "overloaded") + suffix,
                    reason=data.get("reason", "queue_full"),
                )
            elif response.status == 503:
                exc = ServerOverloadError(
                    data.get("error", "draining") + suffix, reason="draining"
                )
            elif response.status == 504:
                exc = DeadlineExceededError(
                    data.get("error", "deadline exceeded") + suffix
                )
            elif response.status == 403:
                exc = ClusterReadOnlyError(
                    data.get("error", "cluster is read-only") + suffix
                )
            else:
                exc = ReproError(
                    f"server returned {response.status}: "
                    f"{data.get('error', repr(raw[:200]))}{suffix}"
                )
            exc.request_id = served_id
            raise exc
        return data

    # ------------------------------------------------------------------ #
    def search(
        self,
        query: str | Sequence[str],
        *,
        top: int | None = None,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
        request_id: str | None = None,
        tenant: str | None = None,
    ) -> dict:
        """Ranked search; ``results`` rows are ``[index, score, doc_id]``.

        ``probes`` asks the server for a probe-bounded ANN scan over
        that many coarse cells; ``exact=True`` forces the exhaustive
        scan even when ``probes`` is given.
        ``tenant`` routes the query on a multi-tenant server (falling
        back to the client's default tenant); an unhosted id raises
        :class:`~repro.errors.UnknownTenantError` (HTTP 404) with the
        server-assigned id on ``.request_id``.  ``request_id`` rides as
        ``X-Request-Id`` and becomes the request's trace id when
        well-formed; either way the server's echo lands in
        :attr:`last_request_id`.
        """
        payload: dict = {"query": query}
        if top is not None:
            payload["top"] = top
        if threshold is not None:
            payload["threshold"] = threshold
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        if probes is not None:
            payload["probes"] = probes
        if exact:
            payload["exact"] = True
        return self._request(
            "POST", "/search", payload, request_id=request_id, tenant=tenant
        )

    def search_pairs(
        self,
        query: str | Sequence[str],
        *,
        top: int | None = None,
        threshold: float | None = None,
        probes: int | None = None,
        exact: bool = False,
        tenant: str | None = None,
    ) -> list[tuple[int, float]]:
        """Engine-shaped ``(doc_index, score)`` pairs, for parity checks."""
        data = self.search(
            query,
            top=top,
            threshold=threshold,
            probes=probes,
            exact=exact,
            tenant=tenant,
        )
        return [(int(j), float(score)) for j, score, _ in data["results"]]

    def add(
        self,
        texts: Sequence[str],
        doc_ids: Sequence[str] | None = None,
        *,
        tenant: str | None = None,
    ) -> dict:
        """Live-add documents; returns the new epoch description.

        Against a read-only cluster this raises
        :class:`ClusterReadOnlyError` (HTTP 403) with the
        server-assigned id on ``.request_id`` — typed, so callers can
        redirect the write rather than treat it as a request bug.
        """
        payload: dict = {"texts": list(texts)}
        if doc_ids is not None:
            payload["doc_ids"] = list(doc_ids)
        return self._request("POST", "/add", payload, tenant=tenant)

    def healthz(self) -> dict:
        """The server's liveness/readiness summary."""
        return self._request("GET", "/healthz")

    def tenants(self) -> dict:
        """The tenant registry + quota status (``GET /tenants``)."""
        return self._request("GET", "/tenants")

    def stats(self) -> dict:
        """The server's observability snapshot."""
        return self._request("GET", "/stats")

    def metrics(self) -> dict:
        """The server's metrics-registry dump (fleet-wide on a cluster)."""
        return self._request("GET", "/metrics")

    def metrics_prom(self) -> str:
        """The Prometheus text exposition (``/metrics?format=prom``)."""
        return self._request("GET", "/metrics?format=prom")["text"]

    def trace(self, trace_id: str) -> dict:
        """The assembled trace for one request id (``/trace?id=``)."""
        quoted = urllib.parse.quote(trace_id, safe="")
        return self._request("GET", f"/trace?id={quoted}")
