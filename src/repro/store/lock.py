"""Single-writer exclusion for a store data directory, with takeover fencing.

A :class:`~repro.store.durable.DurableIndexStore` owns its directory
exclusively while open: its :class:`~repro.store.wal.WriteAheadLog`
handle truncates torn tails on open and ``compact`` replaces the WAL
inode, both of which corrupt or orphan a concurrent writer's log.
:class:`StoreLock` makes that ownership explicit — an exclusive
``flock(2)`` on ``<data-dir>/LOCK`` held for the store's lifetime.

``flock`` locks die with their process, so a SIGKILLed server never
leaves a stale lock behind; the ``LOCK`` file itself persisting is
harmless (the next writer locks the same inode).  The lock is advisory:
read-only surfaces (``store inspect``, ``store verify``, ``stats
--data-dir``) deliberately never take it — they scan manifests and the
WAL file without opening a write handle.

The lock is also *adoptable with fencing*: every successful acquire
stamps a monotonically increasing **generation** into the lockfile.  A
standby writer that adopts a dead primary's store (see
:mod:`repro.cluster.standby`) acquires generation ``g+1``; if the old
primary was not dead but merely wedged — alive, flock lost to a racing
close/reopen, scheduler-stalled past its lease — its next seal calls
:meth:`check`, sees a generation newer than its own, and fences itself
with :class:`~repro.errors.StoreLockedError` instead of splitting the
brain with a second line of checkpoints.  The flock remains the actual
mutual exclusion; the generation is the tiebreaker for handles that
*believe* they hold it.
"""

from __future__ import annotations

import os
import pathlib

from repro.errors import StoreError, StoreLockedError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: exclusion unavailable
    fcntl = None

__all__ = ["LOCK_NAME", "StoreLock"]

#: Fixed lockfile name inside a store data directory.
LOCK_NAME = "LOCK"


def _read_generation(fd: int) -> int:
    """First integer in the lockfile — the current owner generation.

    Pre-fencing lockfiles held just a pid; parsing that pid as the
    generation is harmless (the next acquire writes pid+1 and stays
    monotonic, which is all fencing needs).
    """
    try:
        os.lseek(fd, 0, os.SEEK_SET)
        first = os.read(fd, 64).split()
        return int(first[0]) if first else 0
    except (OSError, ValueError):
        return 0


class StoreLock:
    """An exclusive, non-blocking ``flock`` on ``<data-dir>/LOCK``."""

    def __init__(self, path: pathlib.Path, fd: int | None, generation: int = 0):
        self.path = path
        self._fd = fd
        #: The owner generation this handle acquired — compared against
        #: the lockfile by :meth:`check` to detect takeover.
        self.generation = generation

    @classmethod
    def acquire(cls, data_dir: pathlib.Path) -> "StoreLock":
        """Take the directory's writer lock or raise :class:`StoreLockedError`.

        Never blocks: a held lock means a live server or maintenance
        command owns the store right now, and waiting for it would just
        trade corruption for a deadlock-prone queue.  A ``data_dir``
        that is not (and cannot become) a directory is a
        :class:`StoreError` naming it.
        """
        data_dir = pathlib.Path(data_dir)
        try:
            data_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise StoreError(
                f"{data_dir} is not a directory and cannot hold a store"
            ) from None
        path = data_dir / LOCK_NAME
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                raise StoreLockedError(
                    f"{data_dir} is locked by another process (a live "
                    "server or maintenance command owns this store); "
                    "read-only commands (store inspect/verify, stats "
                    "--data-dir) work without the lock"
                ) from None
        generation = _read_generation(fd) + 1
        try:  # the generation is the fence; the pid is diagnostics
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, f"{generation} {os.getpid()}\n".encode("ascii"))
            os.fsync(fd)
        except OSError:
            pass
        return cls(path, fd, generation)

    def check(self) -> bool:
        """Is this handle still the store's fencing owner?

        Re-reads the lockfile *by path*: a newer generation there means
        another writer acquired after us (a standby adopted what it
        judged a dead primary).  A handle that sees that must stop
        writing — its next checkpoint would interleave with the
        adopter's.  Cheap (one small read), called once per seal, never
        on the per-record append path.
        """
        if self._fd is None:
            return False
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return False
        try:
            return _read_generation(fd) == self.generation
        finally:
            os.close(fd)

    def release(self) -> None:
        """Drop the lock (idempotent); closing the fd releases the flock."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    @property
    def held(self) -> bool:
        """Whether this handle still owns the lock."""
        return self._fd is not None

    def __repr__(self) -> str:
        state = "held" if self.held else "released"
        return f"StoreLock({self.path}, {state}, gen={self.generation})"
