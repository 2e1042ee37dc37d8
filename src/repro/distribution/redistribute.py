"""Functional data re-distribution between M-task groups.

This is the *executable* counterpart of the re-distribution cost model:
given the per-rank chunks of an array under a source distribution, produce
the per-rank chunks under a target distribution, together with the exact
number of elements that logically moved between ranks.  It is the
reference ``tests/test_redistribute.py`` checks the analytic transfer
matrices of :func:`~repro.distribution.transfer_counts` against; the
functional runtime (:mod:`repro.runtime`) charges those matrices and moves
no chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .distribution import Distribution1D, transfer_counts

__all__ = ["RedistributionResult", "split", "assemble", "redistribute"]


@dataclass(frozen=True)
class RedistributionResult:
    """Chunks after re-distribution plus accounting information."""

    chunks: List[np.ndarray]
    #: element-transfer matrix, ``moved[i, j]`` = elements from source rank
    #: ``i`` to target rank ``j`` (diagonal of a same-group identity
    #: re-distribution would be local copies).
    moved: np.ndarray

    @property
    def total_elements_moved(self) -> int:
        return int(self.moved.sum())


def split(array: np.ndarray, dist: Distribution1D) -> List[np.ndarray]:
    """Split a global 1-D array into per-rank local chunks under ``dist``."""
    if array.ndim != 1:
        raise ValueError("split expects a one-dimensional array")
    if len(array) != dist.size:
        raise ValueError(f"array has {len(array)} elements, distribution {dist.size}")
    return [array[dist.local_indices(r)] for r in range(dist.nprocs)]


def assemble(chunks: Sequence[np.ndarray], dist: Distribution1D) -> np.ndarray:
    """Inverse of :func:`split`: reconstruct the global array."""
    if len(chunks) != dist.nprocs:
        raise ValueError(f"expected {dist.nprocs} chunks, got {len(chunks)}")
    if dist.is_replicated:
        out = np.asarray(chunks[0]).copy()
        for r, c in enumerate(chunks):
            if len(c) != dist.size:
                raise ValueError(f"replicated chunk {r} has wrong length {len(c)}")
        return out
    dtype = chunks[0].dtype if chunks else float
    out = np.empty(dist.size, dtype=dtype)
    for r, chunk in enumerate(chunks):
        idx = dist.local_indices(r)
        if len(chunk) != len(idx):
            raise ValueError(
                f"chunk of rank {r} has {len(chunk)} elements, expected {len(idx)}"
            )
        out[idx] = chunk
    return out


def redistribute(
    chunks: Sequence[np.ndarray],
    src: Distribution1D,
    dst: Distribution1D,
) -> RedistributionResult:
    """Re-distribute per-rank chunks from ``src`` to ``dst`` layout.

    The implementation routes through the assembled global array, which is
    semantically the identity an MPI implementation must realise with
    point-to-point messages; the returned ``moved`` matrix reports the
    logical message sizes an implementation would send (diagonal entries
    are rank-local and free on a real machine when both groups share
    cores).
    """
    if src.size != dst.size:
        raise ValueError("source and target distributions cover different sizes")
    global_arr = assemble(chunks, src)
    new_chunks = split(global_arr, dst) if not dst.is_replicated else [
        global_arr.copy() for _ in range(dst.nprocs)
    ]
    moved = transfer_counts(src, dst)
    return RedistributionResult(chunks=new_chunks, moved=moved)
