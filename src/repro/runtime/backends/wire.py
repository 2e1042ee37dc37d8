"""Wire protocol of the cluster backend: framed, chunked pickle messages.

One message on the wire is::

    [4-byte len][pickled meta][4-byte count][4-byte len][chunk]...

The *meta* is an arbitrary picklable object in which every numpy array
has been replaced by an ``_ArrayRef`` placeholder; the raw array bytes
follow the meta as separate length-prefixed **chunks** of at most
:data:`ARRAY_CHUNK_BYTES` each.  Chunking keeps any single read
bounded no matter how large the task's arrays are -- a multi-MB global
array streams across the socket in 256 KiB pieces instead of one
monolithic pickle blob.  A sender does not pay one system call per
piece, though: it hands the socket the header, the meta and the chunks
together, :data:`COALESCE_BYTES` at a time (one call for a typical task
frame).
The chunks are slices of the arrays' own buffers and the receiver
copies each straight into the array it restores, so an array is copied
once on each side.

The protocol is spelled once: the coordinator and the workers both
call :func:`send_message` and :func:`recv_message` on plain blocking
sockets (a worker's heartbeat thread shares its socket, so sends take
an optional lock; the coordinator bounds every call with the socket's
timeout).

Messages are pickled, so this protocol is for *trusted* transport only
(the coordinator binds to localhost by default and the workers are its
own forked children -- the same trust model as ``multiprocessing``).
"""

from __future__ import annotations

import contextlib
import pickle
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "ARRAY_CHUNK_BYTES",
    "COALESCE_BYTES",
    "MAX_META_BYTES",
    "WireError",
    "pack",
    "unpack",
    "send_message",
    "recv_message",
]

#: maximum size of one raw array chunk on the wire
ARRAY_CHUNK_BYTES = 256 * 1024

#: sanity bound on the pickled meta (arrays never travel inside it)
MAX_META_BYTES = 64 * 1024 * 1024

#: a sender hands the socket about this many bytes per call
COALESCE_BYTES = 1024 * 1024

_HEADER = struct.Struct("!I")


class WireError(RuntimeError):
    """A malformed or truncated message arrived on the wire."""


@dataclass(frozen=True)
class _ArrayRef:
    """Placeholder for one numpy array lifted out of the meta.

    ``first``/``count`` index into the message's flat chunk list; the
    array's buffer is the concatenation of those chunks.
    """

    first: int
    count: int
    shape: Tuple[int, ...]
    dtype: str


def pack(obj: Any) -> Tuple[bytes, List[memoryview]]:
    """Split ``obj`` into ``(pickled meta, raw array chunks)``.

    Recursively replaces every ``np.ndarray`` in dicts/lists/tuples with
    an ``_ArrayRef``; its chunks are ≤ :data:`ARRAY_CHUNK_BYTES` slices
    *of the (contiguous) array's own buffer* -- nothing is copied here,
    so the arrays must stay unchanged until the chunks are sent.
    """
    chunks: List[memoryview] = []

    def lift(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            first = len(chunks)
            if arr.nbytes:
                raw = memoryview(arr).cast("B")
                for off in range(0, arr.nbytes, ARRAY_CHUNK_BYTES):
                    chunks.append(raw[off : off + ARRAY_CHUNK_BYTES])
            return _ArrayRef(
                first=first,
                count=len(chunks) - first,
                shape=arr.shape,
                dtype=str(arr.dtype),
            )
        if isinstance(value, dict):
            return {k: lift(v) for k, v in value.items()}
        if isinstance(value, list):
            return [lift(v) for v in value]
        if isinstance(value, tuple):
            return tuple(lift(v) for v in value)
        return value

    meta = pickle.dumps(lift(obj), protocol=pickle.HIGHEST_PROTOCOL)
    return meta, chunks


def unpack(meta: bytes, chunks: List[Any]) -> Any:
    """Inverse of :func:`pack`: restore arrays from their chunk ranges.

    Each array is allocated once and its chunks copied straight into
    place -- the only copy on the receiving side; the result owns its
    memory.  Raises :class:`WireError` when the chunks of an array do
    not add up to its shape.
    """

    def lower(value: Any) -> Any:
        if isinstance(value, _ArrayRef):
            arr = np.empty(value.shape, dtype=np.dtype(value.dtype))
            flat = arr.reshape(-1).view(np.uint8)
            parts = chunks[value.first : value.first + value.count]
            total = sum(len(part) for part in parts)
            if total != flat.size:
                raise WireError(f"array of {flat.size} bytes arrived as {total}")
            off = 0
            for part in parts:
                flat[off : off + len(part)] = np.frombuffer(part, dtype=np.uint8)
                off += len(part)
            return arr
        if isinstance(value, dict):
            return {k: lower(v) for k, v in value.items()}
        if isinstance(value, list):
            return [lower(v) for v in value]
        if isinstance(value, tuple):
            return tuple(lower(v) for v in value)
        return value

    return lower(pickle.loads(meta))


def _batches(meta: bytes, chunks: List[memoryview]) -> Iterator[List[Any]]:
    """One message's bytes, in wire order, as a few buffer lists.

    Each list is written with one call; a list ends once it holds
    :data:`COALESCE_BYTES`, so however large the arrays are no more than
    that (plus one chunk) is joined or buffered at a time.  A task frame
    of a dozen 64 KiB arrays is one list.
    """
    batch: List[Any] = [_HEADER.pack(len(meta)), meta, _HEADER.pack(len(chunks))]
    size = len(meta)
    for chunk in chunks:
        if size >= COALESCE_BYTES:
            yield batch
            batch, size = [], 0
        batch += (_HEADER.pack(len(chunk)), chunk)
        size += len(chunk)
    yield batch


# ----------------------------------------------------------------------
# sending and receiving (coordinator and workers alike)
# ----------------------------------------------------------------------
def send_message(
    sock: socket.socket, obj: Any, lock: Optional[threading.Lock] = None
) -> None:
    """Frame and send one message (blocking, whole-message atomic).

    With ``lock`` (the worker's send lock), the heartbeat thread and the
    result path never interleave their frames.
    """
    with lock if lock is not None else contextlib.nullcontext():
        for batch in _batches(*pack(obj)):
            sock.sendall(b"".join(batch))


def _recv_exactly(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise EOFError("connection closed mid-message")
        got += k
    return buf


def recv_message(sock: socket.socket) -> Any:
    """Receive one framed message (blocking); raises ``EOFError`` on close."""
    (meta_len,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if meta_len > MAX_META_BYTES:
        raise WireError(f"message meta of {meta_len} bytes exceeds the sanity bound")
    meta = _recv_exactly(sock, meta_len)
    (count,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    chunks: List[bytes] = []
    for _ in range(count):
        (chunk_len,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
        if chunk_len > ARRAY_CHUNK_BYTES:
            raise WireError(
                f"array chunk of {chunk_len} bytes exceeds the "
                f"{ARRAY_CHUNK_BYTES}-byte chunk bound"
            )
        chunks.append(_recv_exactly(sock, chunk_len))
    return unpack(meta, chunks)

