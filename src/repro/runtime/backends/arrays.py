"""The data plane of the worker transports: every array ships once.

A worker transport moves the input arrays of each job to a worker and
the output arrays back.  Most of those bytes have already travelled: the
K stage tasks of a solver step read the same stage vectors, and every
output is read again by the tasks after it.  The two classes here let a
transport move each *array version* at most once per destination:

* :class:`ArrayLedger` (parent side, pool and cluster) remembers what
  has been shipped, keyed by the **identity of the** ``store`` **entry**
  -- not by content, hashing a step's inputs costs more than the step.
  Identity is a sound key because the ledger holds a reference to every
  array it knows (so an ``id`` is never reused while it is a key) and
  because the executor *replaces* ``store`` entries and never mutates
  them; the ledger asserts the latter by making each array read-only
  for as long as it holds it.
* :class:`Arena` (pool) is the shared memory behind it: a short list of
  chunks per process, bump-allocated, created when something does not
  fit and unlinked -- every one of them, by name -- when the run stops.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

__all__ = ["ArrayLedger", "Arena", "Traffic", "declared_bytes"]

#: arena offsets are multiples of this (cache line; any dtype is aligned)
_ALIGN = 64

#: ``(chunk name, byte offset, shape, dtype)`` -- how an array in the
#: arena travels in a job or result message
Descriptor = Tuple[str, int, Tuple[int, ...], str]

#: held around the tracker swap of :func:`_attach` and the create of
#: :meth:`Arena.grow`, so no chunk is created while ``register`` is a no-op
_TRACKER_LOCK = threading.Lock()


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def declared_bytes(graph) -> int:
    """Arena bytes that hold every array a run of ``graph`` declares.

    Each parameter of each task counted once (``elements`` float64
    values, padded to the arena alignment): an upper bound of both the
    live-ins the parent writes and the outputs any one worker writes,
    so a run whose bodies honour their declared sizes never grows its
    first chunk.  The bytes are address space, not memory -- a chunk's
    pages exist only once written.
    """
    return sum(
        _aligned(p.elements * 8) for t in graph.topological_order() for p in t.params
    )


class ArrayLedger:
    """What a transport has shipped, keyed by identity of the array.

    ``add(arr, handle)`` records that ``arr`` is available to workers
    under ``handle`` (an arena descriptor, a wire token) and freezes
    it; ``get(arr)`` returns the handle, or ``None`` for an array never
    seen.  :meth:`clear` forgets everything and thaws what ``add``
    froze, so the arrays of a finished run are writeable again.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[np.ndarray, bool, Any]] = {}

    def get(self, arr: np.ndarray) -> Optional[Any]:
        """The handle ``arr`` was added under, or ``None``."""
        entry = self._entries.get(id(arr))
        return None if entry is None else entry[2]

    def add(self, arr: np.ndarray, handle: Any) -> None:
        """Record ``arr`` under ``handle``; it is read-only from here on.

        A write to a held array would leave the workers' copy stale, so
        it raises at the offending statement instead.
        """
        thaw = bool(arr.flags.writeable)
        arr.flags.writeable = False
        self._entries[id(arr)] = (arr, thaw, handle)

    def clear(self) -> None:
        """Drop every entry, restoring the write flag ``add`` cleared."""
        for arr, thaw, _ in self._entries.values():
            if thaw:
                arr.flags.writeable = True
        self._entries.clear()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing chunk without re-registering it.

    With the ``fork`` start method parent and workers share one
    resource-tracker process whose per-name bookkeeping is a *set*:
    the safe protocol is exactly one register (the creator's) and one
    unregister (the final ``unlink``) per chunk.  Python 3.13 exposes
    ``track=False`` for this; on older versions the tracker's
    ``register`` is swapped for a no-op around the attach.  The swap is
    process-wide, so it holds ``_TRACKER_LOCK``, which
    :meth:`Arena.grow` holds around its create: a chunk another thread
    creates meanwhile is registered once the swap is undone.  Not
    guarded: a process that forks while another of its threads holds
    the lock hands the child a held copy, and the child's next attach
    or create waits for good.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on Python version
        with _TRACKER_LOCK:
            register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = register


class Arena:
    """One process's side of a run's shared-memory arena.

    The arena of a run is the set of chunks named ``<prefix><owner>-<k>``:
    ``owner`` is ``"p"`` for the parent and the worker id for a worker,
    ``k`` counts that owner's chunks from 0.  Every process allocates
    only in its own chunks (:meth:`put`, a bump pointer -- nothing is
    freed before the run ends, so no free list and no lock between
    processes) and reads anybody's (:meth:`view`), attaching a chunk
    the first time a descriptor names it.  A chunk is ``chunk_bytes``
    long, or as long as the array that did not fit.

    Ownership follows the single-owner protocol of :func:`_attach`: the
    creator registers a chunk with the resource tracker, everybody else
    attaches untracked, and the parent unlinks every chunk exactly once
    in :meth:`destroy`.  Because the names are deterministic the parent
    finds chunks it was never told about (a worker that died between
    creating one and reporting it), and the tracker removes them all if
    the parent itself is killed.
    """

    def __init__(self, prefix: str, owner: str, chunk_bytes: int) -> None:
        self.prefix = prefix
        self.owner = owner
        self.chunk_bytes = max(chunk_bytes, _ALIGN)
        self._open: Dict[str, shared_memory.SharedMemory] = {}
        self._tail: Optional[shared_memory.SharedMemory] = None
        self._created = 0
        self._offset = 0

    @staticmethod
    def new_prefix() -> str:
        """A chunk-name prefix no other run on this machine uses."""
        return f"repro-{os.getpid():x}-{os.urandom(4).hex()}-"

    def grow(self, nbytes: int = 0) -> None:
        """Create this owner's next chunk, long enough for ``nbytes``.

        :meth:`put` calls it when an array does not fit; a worker calls
        it once before its first job, while it has nothing else to do.
        """
        with _TRACKER_LOCK:
            self._tail = shared_memory.SharedMemory(
                name=f"{self.prefix}{self.owner}-{self._created}",
                create=True,
                size=max(self.chunk_bytes, nbytes),
            )
        self._open[self._tail.name] = self._tail
        self._created += 1
        self._offset = 0

    def put(self, arr: np.ndarray) -> Descriptor:
        """Copy ``arr`` into this process's chunks; returns its descriptor."""
        arr = np.ascontiguousarray(arr)
        if self._tail is None or self._offset + arr.nbytes > self._tail.size:
            self.grow(arr.nbytes)
        offset = self._offset
        if arr.nbytes:
            np.ndarray(arr.shape, arr.dtype, self._tail.buf, offset)[...] = arr
        self._offset = offset + _aligned(arr.nbytes)
        return (self._tail.name, offset, arr.shape, arr.dtype.str)

    def view(self, desc: Descriptor) -> np.ndarray:
        """The array ``desc`` names, as a read-only view of the arena.

        No copy: the view is valid until this process closes the arena
        (a worker does when its run ends; the parent copies what it
        keeps).
        """
        name, offset, shape, dtype = desc
        shm = self._open.get(name)
        if shm is None:
            shm = self._open[name] = _attach(name)
        out = np.ndarray(shape, np.dtype(dtype), shm.buf, offset)
        out.flags.writeable = False
        return out

    def close(self) -> None:
        """Detach every chunk this process has open."""
        for shm in self._open.values():
            try:
                shm.close()
            except BufferError:  # a body kept a view; the mapping dies with us
                pass
        self._open = {}
        self._tail = None

    def destroy(self, owners: Iterable[str]) -> None:
        """Detach, then unlink every chunk of the run (parent only).

        ``owners`` are the owner tags to sweep; each owner's chunks are
        numbered without gaps, so the sweep stops at the first missing
        name.
        """
        self.close()
        for owner in owners:
            k = 0
            while True:
                try:
                    shm = _attach(f"{self.prefix}{owner}-{k}")
                except FileNotFoundError:
                    break
                shm.close()
                shm.unlink()
                k += 1


class Traffic:
    """Running totals of what a transport moved, and what it did not.

    ``to_workers`` / ``to_parent`` are array bytes shipped each way,
    ``reused`` counts the job inputs that travelled as a descriptor or
    token because the destination already had the bytes.  The
    transports count; :meth:`publish` writes the three
    ``backend_*_total`` gauges from the driver thread.
    """

    __slots__ = ("to_workers", "to_parent", "reused")

    def __init__(self) -> None:
        self.to_workers = self.to_parent = self.reused = 0

    def publish(self, publish) -> None:
        """Write the totals through ``publish(gauge, value, **labels)``."""
        publish("backend_bytes_shipped_total", self.to_workers, direction="to_workers")
        publish("backend_bytes_shipped_total", self.to_parent, direction="to_parent")
        publish("backend_arrays_reused_total", self.reused)
