"""Functional re-distribution of numpy data: the oracle for
:func:`repro.distribution.transfer_counts`.

:func:`redistribute` below moves the per-rank chunks of an array from a
source to a target distribution through the assembled global array and
counts, element by element, which source rank each target rank's
elements come from.  The analytic transfer matrix the cost model and the
runtime charge must equal that count.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import (
    BlockCyclic,
    Distribution1D,
    Replicated,
    block,
    transfer_counts,
)


def cyclic(size: int, nprocs: int) -> BlockCyclic:
    """Cyclic distribution (element ``i`` on rank ``i mod p``)."""
    return BlockCyclic(size, nprocs, 1)


def owners(dist: BlockCyclic) -> np.ndarray:
    """Owning rank of every global index."""
    return (np.arange(dist.size) // dist.block_size) % dist.nprocs


def local_indices(dist: Distribution1D, rank: int) -> np.ndarray:
    """Global indices ``rank`` holds, in increasing order."""
    idx = np.arange(dist.size)
    return idx if dist.is_replicated else idx[owners(dist) == rank]


@dataclass(frozen=True)
class RedistributionResult:
    """Chunks after re-distribution plus the element-transfer matrix
    (``moved[i, j]`` = elements from source rank ``i`` to target rank ``j``)."""

    chunks: List[np.ndarray]
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
    return [array[local_indices(dist, r)] for r in range(dist.nprocs)]


def assemble(chunks: Sequence[np.ndarray], dist: Distribution1D) -> np.ndarray:
    """Inverse of :func:`split`: reconstruct the global array."""
    if len(chunks) != dist.nprocs:
        raise ValueError(f"expected {dist.nprocs} chunks, got {len(chunks)}")
    out = np.empty(dist.size, dtype=chunks[0].dtype if chunks else float)
    for r, chunk in enumerate(chunks):
        idx = local_indices(dist, r)
        if len(chunk) != len(idx):
            raise ValueError(
                f"chunk of rank {r} has {len(chunk)} elements, expected {len(idx)}"
            )
        out[idx] = chunk
    return out


def redistribute(
    chunks: Sequence[np.ndarray], src: Distribution1D, dst: Distribution1D
) -> RedistributionResult:
    """Re-distribute per-rank chunks from ``src`` to ``dst``.

    ``moved`` follows the conventions :func:`transfer_counts` documents:
    a replicated source serves target rank ``j`` from source rank
    ``j mod src.nprocs``; replicated to replicated moves nothing.
    """
    if src.size != dst.size:
        raise ValueError("source and target distributions cover different sizes")
    global_arr = assemble(chunks, src)
    moved = np.zeros((src.nprocs, dst.nprocs), dtype=np.int64)
    if not (src.is_replicated and dst.is_replicated):
        for j in range(dst.nprocs):
            idx = local_indices(dst, j)
            held_by = np.full(len(idx), j % src.nprocs) if src.is_replicated else owners(src)[idx]
            moved[:, j] = np.bincount(held_by, minlength=src.nprocs)
    return RedistributionResult(chunks=split(global_arr, dst), moved=moved)


class TestSplitAssemble:
    def test_roundtrip_block(self):
        arr = np.arange(13.0)
        d = block(13, 4)
        np.testing.assert_array_equal(assemble(split(arr, d), d), arr)

    def test_roundtrip_cyclic(self):
        arr = np.arange(10.0) * 2
        d = cyclic(10, 3)
        np.testing.assert_array_equal(assemble(split(arr, d), d), arr)

    def test_split_replicated(self):
        arr = np.arange(5.0)
        d = Replicated(5, 3)
        chunks = split(arr, d)
        assert len(chunks) == 3
        for c in chunks:
            np.testing.assert_array_equal(c, arr)

    def test_split_validates(self):
        with pytest.raises(ValueError):
            split(np.zeros(5), block(6, 2))
        with pytest.raises(ValueError):
            split(np.zeros((2, 2)), block(4, 2))

    def test_assemble_validates_chunks(self):
        d = block(6, 2)
        with pytest.raises(ValueError):
            assemble([np.zeros(3)], d)
        with pytest.raises(ValueError):
            assemble([np.zeros(2), np.zeros(3)], d)


class TestRedistribute:
    def test_block_to_cyclic_preserves_data(self):
        arr = np.arange(12.0)
        src, dst = block(12, 3), cyclic(12, 4)
        res = redistribute(split(arr, src), src, dst)
        np.testing.assert_array_equal(assemble(res.chunks, dst), arr)

    def test_moved_matches_transfer_counts(self):
        src, dst = block(20, 4), cyclic(20, 4)
        res = redistribute(split(np.arange(20.0), src), src, dst)
        np.testing.assert_array_equal(res.moved, transfer_counts(src, dst))

    def test_to_replicated(self):
        arr = np.arange(6.0)
        src, dst = block(6, 2), Replicated(6, 3)
        res = redistribute(split(arr, src), src, dst)
        assert len(res.chunks) == 3
        for c in res.chunks:
            np.testing.assert_array_equal(c, arr)

    def test_identity_moves_only_diagonal(self):
        src = block(10, 2)
        res = redistribute(split(np.arange(10.0), src), src, src)
        off_diag = res.moved.sum() - np.trace(res.moved)
        assert off_diag == 0

    @given(
        n=st.integers(1, 80),
        ps=st.integers(1, 6),
        pd=st.integers(1, 6),
        bs=st.integers(1, 9),
        bd=st.integers(1, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_redistribution_is_lossless(self, n, ps, pd, bs, bd):
        arr = np.random.default_rng(0).standard_normal(n)
        src = BlockCyclic(n, ps, bs)
        dst = BlockCyclic(n, pd, bd)
        res = redistribute(split(arr, src), src, dst)
        np.testing.assert_array_equal(assemble(res.chunks, dst), arr)
        assert res.total_elements_moved == n
        np.testing.assert_array_equal(res.moved, transfer_counts(src, dst))
