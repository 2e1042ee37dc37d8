"""Data distributions of M-task parameters.

The CM-task model annotates every input/output parameter of an M-task with
a *data distribution type* describing how the elements are spread over the
cores executing the task (Section 2.1).  The compiler supports arbitrary
block-cyclic distributions over multi-dimensional processor meshes plus
replication; this module implements exactly that family:

* :class:`BlockCyclic` -- one-dimensional block-cyclic with block size
  ``b`` over ``p`` ranks; ``owner(i) = (i // b) mod p``.  ``b = 1`` is the
  cyclic distribution, ``b = ceil(n/p)`` the block distribution.
* :class:`Replicated` -- every rank holds the full array.
* :class:`MeshDistribution` -- Cartesian product of per-dimension 1-D
  distributions over a processor mesh.

Distributions are *logical*: they know rank indices ``0..p-1`` within a
task's group, never physical cores.  The mapping step decides which
physical core backs which rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod
from typing import Tuple

import numpy as np

__all__ = [
    "Distribution1D",
    "BlockCyclic",
    "block",
    "cyclic",
    "Replicated",
    "MeshDistribution",
    "transfer_counts",
    "mesh_transfer_counts",
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

    @property
    def is_block(self) -> bool:
        """True when this degenerates to the plain block distribution."""
        return self.block_size >= ceil(self.size / self.nprocs) and self.size > 0

    @property
    def is_cyclic(self) -> bool:
        return self.block_size == 1


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


@dataclass(frozen=True)
class MeshDistribution:
    """Multi-dimensional distribution over a processor mesh.

    ``dims[k]`` distributes axis ``k`` of an array of shape ``shape`` over
    ``mesh[k]`` mesh coordinates; the owning rank of a multi-index is the
    row-major ravel of the per-axis owner coordinates.
    """

    shape: Tuple[int, ...]
    mesh: Tuple[int, ...]
    dims: Tuple[Distribution1D, ...]

    def __post_init__(self) -> None:
        if len(self.shape) != len(self.mesh) or len(self.shape) != len(self.dims):
            raise ValueError("shape, mesh and dims must have equal length")
        for k, (n, p, d) in enumerate(zip(self.shape, self.mesh, self.dims)):
            if d.size != n or d.nprocs != p:
                raise ValueError(
                    f"axis {k}: distribution covers {d.size} elements on "
                    f"{d.nprocs} ranks, expected {n} on {p}"
                )

    @property
    def size(self) -> int:
        return prod(self.shape)

    @property
    def nprocs(self) -> int:
        return prod(self.mesh)

    @property
    def is_replicated(self) -> bool:
        return all(d.is_replicated for d in self.dims)

    def owners(self) -> np.ndarray:
        """Flat array (row-major over the data shape) of owning ranks."""
        if self.is_replicated:
            raise TypeError("a replicated distribution has no unique owners")
        coords = [d.owners() for d in self.dims]
        grids = np.meshgrid(*coords, indexing="ij")
        flat = np.ravel_multi_index([g for g in grids], self.mesh)
        return flat.reshape(-1)

    def local_size(self, rank: int) -> int:
        """Number of elements owned by ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
        coord = np.unravel_index(rank, self.mesh)
        return prod(d.local_size(c) for d, c in zip(self.dims, coord))


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


def mesh_transfer_counts(src: MeshDistribution, dst: MeshDistribution) -> np.ndarray:
    """Element-transfer matrix between two mesh distributions.

    Both distributions must cover the same array shape (the meshes may
    differ).  Because the owner function factorises over the axes and
    local index sets are Cartesian products, the multi-dimensional
    transfer matrix is the Kronecker product of the per-axis matrices
    (ranks are row-major ravels of the mesh coordinates).
    """
    if src.shape != dst.shape:
        raise ValueError(
            f"distributions cover different shapes: {src.shape} vs {dst.shape}"
        )
    result = np.array([[1]], dtype=np.int64)
    for d_src, d_dst in zip(src.dims, dst.dims):
        if d_src.is_replicated and d_dst.is_replicated:
            # a fully replicated axis contributes its whole extent along
            # the co-located coordinate pair (the flat both-replicated
            # convention of zero movement would zero out the product)
            factor = np.zeros((d_src.nprocs, d_dst.nprocs), dtype=np.int64)
            for j in range(d_dst.nprocs):
                factor[j % d_src.nprocs, j] = d_dst.local_size(j)
        else:
            factor = transfer_counts(d_src, d_dst)
        result = np.kron(result, factor)
    return result
