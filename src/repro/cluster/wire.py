"""Length-prefixed JSON framing, shared by router and workers.

One frame is ``[4B little-endian payload length][UTF-8 JSON object]``.
JSON keeps the protocol debuggable (``nc`` + eyeballs); control frames
(``ping``, ``info``, ``bump``, ``stats``, ``trace``) are plain JSON.
No pickling, ever: workers mmap their model from the checkpoint and
only small messages cross the wire.

Score frames carry NumPy arrays, not nested float lists: the router's
scaled ``(q, k)`` query batch as one float64 array, and a worker's
answer as one :data:`~repro.parallel.sharding.RANKED` record array
(``index <i8, score <f8``) per query.  An array travels as the WAL's
lossless codec writes it (:func:`repro.store.wal.encode_array`: an
object with ``"__ndarray__": true``, ``dtype``, ``shape`` and the
base64 of its raw little-endian bytes) — one array codec in the
repository, not two.  The wire accepts only that dense form and only
two dtypes: ``"<f8"`` and ``"ranked"`` (named explicitly, since the
record dtype's own ``dtype.str``, ``|V16``, drops its field names).
Anything else — a sparse ``indices`` form, another dtype, a shape the
bytes do not fill — is a :class:`~repro.errors.ClusterError`, as is
every other undecodable payload (bad UTF-8, bad JSON, nesting too
deep), so a reader never dies on an exception it does not expect.

Raw IEEE bytes are the property the parity guarantee rests on: a
query vector scattered to a worker and a score gathered back are
bit-identical to their in-process values — ``-0.0``, subnormals and
``±max`` included — so the router's merge reproduces the whole-model
search exactly.

Both flavours live here so they cannot drift: blocking helpers
(:func:`send_frame` / :func:`recv_frame`) for the threaded worker, and
asyncio helpers (:func:`write_frame` / :func:`read_frame`) for the
scatter-gather router, which alone imports :mod:`asyncio`: a worker
process never loads it.  A clean EOF *between* frames reads as ``None``
(peer hung up); an EOF *inside* a frame raises ``ConnectionError``
(peer died mid-message) — the router treats both as worker death, but
the distinction keeps error reports honest.  Under replication that
death report is what triggers sibling failover: every pending call on
the dead channel fails with ``ConnectionError`` at once, and the
router retries each affected range on another replica inside the same
request deadline (see :mod:`repro.cluster.router`).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ClusterError
from repro.parallel.sharding import RANKED
from repro.store.wal import decode_array, encode_array

if TYPE_CHECKING:  # the router's flavour; a worker's threads never load it
    import asyncio

__all__ = [
    "MAX_FRAME_BYTES",
    "BUMP_OP",
    "encode_frame",
    "send_frame",
    "recv_frame",
    "write_frame",
    "read_frame",
]

#: Control op broadcast by the fleet after sealing a new checkpoint:
#: ``{"op": BUMP_OP, "plan": <canonical ShardPlan JSON>, "served":
#: <the epoch the front end serves>}``.  A worker publishes through the
#: served epoch, hot-remaps the named checkpoint behind an atomic swap
#: and acks with its new epoch; the served epoch keeps answering until a
#: later bump names a newer one as served.
BUMP_OP = "bump"

#: Largest accepted frame payload; bounds per-connection memory and
#: turns a desynchronized stream (length bytes read mid-message) into a
#: loud error instead of a gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct("<I")

#: The array dtypes a frame may carry, by their name on the wire.
_DTYPES = {"<f8": np.dtype("<f8"), "ranked": RANKED}


def _array_default(obj):
    """``json.dumps`` hook: a wire ndarray becomes the WAL codec's dict."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )
    for name, dtype in _DTYPES.items():
        if obj.dtype == dtype:
            return {**encode_array(obj), "dtype": name}
    raise ClusterError(f"wire arrays are float64 or ranked, not {obj.dtype}")


def _array_hook(obj: dict):
    """``json.loads`` hook: the inverse of :func:`_array_default`."""
    if "__ndarray__" not in obj:
        return obj
    name = obj.get("dtype")
    dtype = _DTYPES.get(name) if isinstance(name, str) else None
    if dtype is None:
        raise ClusterError(f"wire arrays are {sorted(_DTYPES)}, not {name!r}")
    shape = obj.get("shape")
    if "indices" in obj or not isinstance(obj.get("data"), str):
        raise ClusterError("wire arrays must be in the dense form")
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise ClusterError(f"wire array shape {shape!r} is not a shape")
    try:
        return decode_array({**obj, "dtype": dtype})
    except ValueError as exc:  # bad base64, or bytes that miss the shape
        raise ClusterError(f"undecodable wire array: {exc}") from None


# Built once: ``json.dumps`` / ``json.loads`` with a hook build a fresh
# coder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_array_default)
_DECODER = json.JSONDecoder(object_hook=_array_hook)


def encode_frame(message: dict) -> bytes:
    """Serialize one message dict into a length-prefixed frame."""
    if not isinstance(message, dict):
        raise ClusterError("wire frames must be JSON objects")
    payload = _ENCODER.encode(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        message = _DECODER.decode(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # incl. bad UTF-8 and JSON
        raise ClusterError(
            f"frame payload is not valid JSON: {exc!r}"
        ) from None
    if not isinstance(message, dict):
        raise ClusterError("wire frames must be JSON objects")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ClusterError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES}); "
            "stream is corrupt or desynchronized"
        )


# --------------------------------------------------------------------- #
# blocking flavour (worker side)
# --------------------------------------------------------------------- #
def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if at_boundary and got == 0:
                return None
            raise ConnectionError(
                f"peer closed mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LEN.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    _check_length(length)
    payload = _recv_exact(sock, length, at_boundary=False)
    return _decode_payload(payload)


# --------------------------------------------------------------------- #
# asyncio flavour (router side)
# --------------------------------------------------------------------- #
async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(message))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    import asyncio  # loaded already: the caller runs an event loop

    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError(
            f"peer closed mid-frame ({len(exc.partial)} of {_LEN.size} "
            "header bytes)"
        )
    (length,) = _LEN.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError(
            f"peer closed mid-frame ({len(exc.partial)} of {length} bytes)"
        )
    return _decode_payload(payload)
