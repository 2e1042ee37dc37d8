"""Content-addressed on-disk storage of task outputs.

A :class:`CheckpointStore` is the bulk-data side of the run journal: the
journal records *which* tasks completed and the digests of their
outputs, the store holds the arrays themselves as ``<digest>.npy`` files
under one directory.  Storage is content-addressed, so re-running a
deterministic task is a no-op write (same digest, file already present)
and two runs of the same program share their checkpoints.

Digests are SHA-256 over dtype, shape and raw bytes -- two arrays with
equal digests are bit-identical, which is what the kill-resume
determinism guarantee is built on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Tuple

import numpy as np

from .files import publish

__all__ = ["array_digest", "json_digest", "CheckpointStore"]


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 digest of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype.str).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def json_digest(obj: Any) -> str:
    """SHA-256 digest of a JSON-serialisable structure.

    The object is rendered canonically (sorted keys, no whitespace,
    non-JSON leaves stringified), so two structurally equal values always
    produce the same digest -- the content-addressing used by the run
    registry to key program/topology/options descriptions.
    """
    payload = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class CheckpointStore:
    """Directory of content-addressed ``.npy`` checkpoint files."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: bytes physically written by this instance (repeat puts of the
        #: same content cost nothing)
        self.bytes_written = 0

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.npy"

    def put(self, arr: np.ndarray) -> Tuple[str, int]:
        """Store ``arr``; returns ``(digest, nbytes)``.

        The file is created by :func:`repro.recovery.files.publish`, so
        a crash mid-write never leaves a truncated checkpoint under its
        final name and a digest already stored is not written again.
        """
        digest = array_digest(arr)
        nbytes = int(np.asarray(arr).nbytes)
        if publish(
            self._path(digest), lambda fh: np.save(fh, np.ascontiguousarray(arr))
        ):
            self.bytes_written += nbytes
        return digest, nbytes

    def get(self, digest: str) -> np.ndarray:
        """Load the array stored under ``digest``; verifies the content."""
        path = self._path(digest)
        if not path.exists():
            raise KeyError(f"no checkpoint for digest {digest[:12]}...")
        arr = np.load(path)
        if array_digest(arr) != digest:
            raise ValueError(
                f"checkpoint {path.name} is corrupt: content does not match "
                "its digest"
            )
        return arr
