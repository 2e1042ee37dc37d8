"""Data distributions of M-task parameters.

The CM-task model annotates every input/output parameter of an M-task with
a *data distribution type* describing how the elements are spread over the
cores executing the task (Section 2.1).  The paper's compiler also admits
multi-dimensional processor meshes; every parameter of the programs
reproduced here is one-dimensional, so this module implements the
one-dimensional family:

* :class:`BlockCyclic` -- one-dimensional block-cyclic with block size
  ``b`` over ``p`` ranks; ``owner(i) = (i // b) mod p``.  ``b = 1`` is the
  cyclic distribution, ``b = ceil(n/p)`` the block distribution.
* :class:`Replicated` -- every rank holds the full array.

Distributions are *logical*: they know rank indices ``0..p-1`` within a
task's group, never physical cores.  The mapping step decides which
physical core backs which rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

__all__ = [
    "Distribution1D",
    "BlockCyclic",
    "block",
    "cyclic",
    "Replicated",
    "transfer_counts",
]


class Distribution1D:
    """Interface of one-dimensional distributions of ``size`` elements
    over ``nprocs`` ranks."""

    size: int
    nprocs: int

    @property
    def is_replicated(self) -> bool:
        return False

    def owners(self) -> np.ndarray:
        """``owners()[i]`` is the rank owning global element ``i``.

        Undefined for replicated distributions (every rank owns all).
        """
        raise NotImplementedError

    def local_indices(self, rank: int) -> np.ndarray:
        """Global indices owned by ``rank``, in increasing order."""
        raise NotImplementedError

    def local_size(self, rank: int) -> int:
        """Number of elements owned by ``rank``."""
        return len(self.local_indices(rank))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")


@dataclass(frozen=True)
class BlockCyclic(Distribution1D):
    """Block-cyclic distribution: blocks of ``block_size`` contiguous
    elements dealt to ranks round-robin."""

    size: int
    nprocs: int
    block_size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")

    def owners(self) -> np.ndarray:
        """Owning rank of every global index."""
        return (np.arange(self.size) // self.block_size) % self.nprocs

    def local_indices(self, rank: int) -> np.ndarray:
        """Global indices owned by ``rank``."""
        self._check_rank(rank)
        idx = np.arange(self.size)
        return idx[(idx // self.block_size) % self.nprocs == rank]

    def local_size(self, rank: int) -> int:
        """Number of elements owned by ``rank`` (closed form)."""
        self._check_rank(rank)
        full_rounds, rem = divmod(self.size, self.block_size * self.nprocs)
        count = full_rounds * self.block_size
        # remainder: partial round of blocks
        start = rank * self.block_size
        count += min(max(rem - start, 0), self.block_size)
        return count


def block(size: int, nprocs: int) -> BlockCyclic:
    """Plain block distribution (one contiguous chunk per rank)."""
    return BlockCyclic(size, nprocs, max(1, ceil(size / nprocs)))


def cyclic(size: int, nprocs: int) -> BlockCyclic:
    """Cyclic distribution (element ``i`` on rank ``i mod p``)."""
    return BlockCyclic(size, nprocs, 1)


@dataclass(frozen=True)
class Replicated(Distribution1D):
    """Every rank stores the complete array (the ``replic`` type of the
    specification language, Fig. 3)."""

    size: int
    nprocs: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")

    @property
    def is_replicated(self) -> bool:
        return True

    def owners(self) -> np.ndarray:
        """Replicated data has no unique owner; raises ``TypeError``."""
        raise TypeError("a replicated distribution has no unique owners")

    def local_indices(self, rank: int) -> np.ndarray:
        """Every rank holds all indices."""
        self._check_rank(rank)
        return np.arange(self.size)

    def local_size(self, rank: int) -> int:
        """Every rank holds all elements."""
        self._check_rank(rank)
        return self.size


def transfer_counts(src: Distribution1D, dst: Distribution1D) -> np.ndarray:
    """Element-transfer matrix between two 1-D distributions.

    Returns an integer matrix ``C`` of shape ``(src.nprocs, dst.nprocs)``
    where ``C[i, j]`` is the number of elements rank ``j`` of the target
    needs that are owned by rank ``i`` of the source.  Whether a transfer
    is free because both ranks live on the same physical core is a mapping
    question answered by :mod:`repro.comm.redistribution`.

    Replication is handled as follows:

    * replicated source: every target rank can obtain its part from *any*
      source rank; by convention we charge it to source rank
      ``j mod src.nprocs`` (balanced fan-out).
    * replicated target: every target rank needs the full array, split
      over the owning source ranks (an allgather-like pattern).

    Two :class:`BlockCyclic` layouts cost ``O(n/b_src + n/b_dst)`` (the
    number of ownership runs), not ``O(n)``.
    """
    if src.size != dst.size:
        raise ValueError(
            f"distributions cover different sizes: {src.size} vs {dst.size}"
        )
    qs, qd = src.nprocs, dst.nprocs
    counts = np.zeros((qs, qd), dtype=np.int64)
    if src.size == 0:
        return counts

    if src.is_replicated and dst.is_replicated:
        return counts  # every target rank copies locally / from its twin

    if src.is_replicated:
        for j in range(qd):
            counts[j % qs, j] = dst.local_size(j)
        return counts

    if dst.is_replicated:
        for i in range(qs):
            counts[i, :] = src.local_size(i)
        return counts

    # Ownership is constant between consecutive block boundaries of
    # either side, so one (source owner, target owner) pair and a length
    # per such run gives the matrix without visiting single elements.
    # (A boundary both sides share appears twice; its second copy starts
    # a run of length zero.)
    starts = np.concatenate(
        [np.arange(0, src.size, src.block_size), np.arange(0, dst.size, dst.block_size)]
    )
    starts.sort(kind="stable")  # two sorted runs: a linear merge
    lengths = np.diff(starts, append=src.size)
    pair = (starts // src.block_size) % qs * qd + (starts // dst.block_size) % qd
    # float64 weights hold integer sums exactly below 2**53 elements
    binc = np.bincount(pair, weights=lengths, minlength=qs * qd)
    return binc.astype(np.int64).reshape(qs, qd)
