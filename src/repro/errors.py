"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class.  The hierarchy
mirrors the subsystem layout: shape/format problems raised by the sparse
substrate, convergence problems raised by the iterative linear algebra,
and corpus/model misuse raised by the LSI layers.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "SparseFormatError",
    "ConvergenceError",
    "VocabularyError",
    "ModelStateError",
    "EvaluationError",
    "ServerOverloadError",
    "DeadlineExceededError",
    "StoreError",
    "StoreCorruptError",
    "StoreLockedError",
    "ClusterError",
    "ClusterConfigError",
    "ClusterReadOnlyError",
    "UnknownTenantError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Attributes
    ----------
    request_id:
        The server-assigned request id (the ``X-Request-Id`` response
        header) when the error crossed the HTTP client boundary, else
        ``None``.  Lets callers correlate a rejection or timeout with
        the server's trace and slow-query log.
    """

    request_id: str | None = None


class ShapeError(ReproError, ValueError):
    """Operand dimensions are incompatible for the requested operation."""


class SparseFormatError(ReproError, ValueError):
    """A sparse matrix's internal arrays violate the format invariants."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative method (e.g. Lanczos) failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    achieved:
        Number of singular triplets (or eigenpairs) that *did* converge.
    """

    def __init__(self, message: str, *, iterations: int = 0, achieved: int = 0):
        super().__init__(message)
        self.iterations = iterations
        self.achieved = achieved


class VocabularyError(ReproError, KeyError):
    """A term is missing from, or duplicated in, a vocabulary."""


class ModelStateError(ReproError, RuntimeError):
    """An LSI model was used before fitting or after invalidation."""


class EvaluationError(ReproError, ValueError):
    """Inconsistent relevance judgments or malformed retrieval runs."""


class ServerOverloadError(ReproError, RuntimeError):
    """The query service refused a request to keep its queue bounded.

    Attributes
    ----------
    reason:
        Why admission failed: ``"queue_full"`` (the bounded request
        queue is at capacity — HTTP 429) or ``"draining"`` (the server
        is shutting down and no longer accepts work — HTTP 503).
    """

    def __init__(self, message: str, *, reason: str = "queue_full"):
        super().__init__(message)
        self.reason = reason


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's deadline expired before the service could answer it."""


class StoreError(ReproError, RuntimeError):
    """The durable index store cannot satisfy a request.

    Raised for structural problems that are not data corruption: no
    checkpoint to recover from, a data directory that is not a store,
    an attempt to reuse a closed store.
    """


class StoreCorruptError(StoreError):
    """On-disk store state failed an integrity check.

    A checkpoint array whose CRC32 does not match its manifest entry, a
    write-ahead-log record whose checksum fails mid-log, or a recovered
    index whose document count disagrees with the manifest all raise
    this — the store refuses to serve silently wrong data.
    """


class ClusterError(ReproError, RuntimeError):
    """A multi-process cluster operation failed structurally.

    Raised for protocol violations (malformed or oversized wire frames,
    a shard plan that does not match the checkpoint it claims to cover),
    and for scatter-gather calls against a shard with no live worker.
    Worker *death* during a query is deliberately not an exception on
    the serving path — the router degrades to a ``partial=true``
    response instead (see :mod:`repro.cluster.router`).
    """


class ClusterConfigError(ClusterError, ValueError):
    """A cluster was asked for an impossible topology.

    Raised before any process is spawned or store touched: a replication
    factor below 1, or one that exceeds the worker budget (every range
    needs R *distinct* workers), or mutually exclusive serving modes
    (``--writable`` with ``--standby``).  Deliberately a ``ValueError``
    subclass and part of the :class:`ReproError` hierarchy so the CLI
    prints it as a one-line ``error:`` instead of a stack trace.
    """


class ClusterReadOnlyError(ClusterError):
    """A write was sent to a cluster with no primary writer.

    ``repro cluster serve`` without ``--writable`` pins one sealed
    checkpoint and refuses ``/add`` — writes must go through a writable
    cluster (``--writable``) or the store's single-process writer
    (``repro serve --data-dir``).  Maps to HTTP 403 so clients can
    distinguish "this tier does not take writes" from a malformed
    request (400) or an overloaded one (429); carries ``request_id``
    (see :class:`ReproError`) when raised client-side.
    """


class UnknownTenantError(ReproError, LookupError):
    """A request named a tenant the index registry does not host.

    Multi-tenant serving resolves every request through the
    :class:`~repro.tenancy.registry.IndexRegistry`; a tenant id that was
    never registered (or an ambiguous request that names no tenant on a
    multi-tenant server) is a routing failure, not an overload or a
    malformed body.  Maps to HTTP 404 with ``unknown_tenant: true`` in
    the payload so clients can distinguish it from an unknown route;
    carries ``request_id`` (see :class:`ReproError`) when raised
    client-side, plus the offending id on ``tenant``.
    """

    def __init__(self, message: str, *, tenant: str | None = None):
        super().__init__(message)
        self.tenant = tenant


class StoreLockedError(StoreError):
    """Another process holds the store's single-writer lock.

    Every read-write open of a data directory (``serve --data-dir``,
    ``store compact``) takes an exclusive lock; a second writer would
    truncate the live WAL tail or swap files under the owner, so it is
    refused instead.  Read-only surfaces (``store inspect``, ``store
    verify``, ``stats --data-dir``) never take the lock.
    """
