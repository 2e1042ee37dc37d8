"""Tests for data distributions, including property-based invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import (
    BlockCyclic,
    Replicated,
    block,
    cyclic,
    transfer_counts,
)

sizes = st.integers(min_value=0, max_value=200)
procs = st.integers(min_value=1, max_value=16)
blocks = st.integers(min_value=1, max_value=32)


class TestBlockCyclic:
    def test_block_distribution_contiguous(self):
        d = block(10, 3)
        np.testing.assert_array_equal(d.local_indices(0), [0, 1, 2, 3])
        np.testing.assert_array_equal(d.local_indices(1), [4, 5, 6, 7])
        np.testing.assert_array_equal(d.local_indices(2), [8, 9])
        assert d.block_size == 4

    def test_cyclic_distribution(self):
        d = cyclic(7, 3)
        np.testing.assert_array_equal(d.local_indices(1), [1, 4])
        assert d.block_size == 1
        np.testing.assert_array_equal(d.owners(), [0, 1, 2, 0, 1, 2, 0])

    def test_blockcyclic_owner_formula(self):
        d = BlockCyclic(12, 2, 3)
        np.testing.assert_array_equal(d.owners(), [0] * 3 + [1] * 3 + [0] * 3 + [1] * 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BlockCyclic(-1, 2, 1)
        with pytest.raises(ValueError):
            BlockCyclic(4, 0, 1)
        with pytest.raises(ValueError):
            BlockCyclic(4, 2, 0)
        with pytest.raises(ValueError):
            block(4, 2).local_indices(2)

    @given(n=sizes, p=procs, b=blocks)
    @settings(max_examples=60, deadline=None)
    def test_local_sizes_partition_everything(self, n, p, b):
        d = BlockCyclic(n, p, b)
        assert sum(d.local_size(r) for r in range(p)) == n

    @given(n=sizes, p=procs, b=blocks)
    @settings(max_examples=60, deadline=None)
    def test_local_size_matches_indices(self, n, p, b):
        d = BlockCyclic(n, p, b)
        for r in range(p):
            assert d.local_size(r) == len(d.local_indices(r))

    @given(n=st.integers(1, 200), p=procs, b=blocks)
    @settings(max_examples=60, deadline=None)
    def test_owners_consistent_with_local_indices(self, n, p, b):
        d = BlockCyclic(n, p, b)
        owners = d.owners()
        for r in range(p):
            assert np.all(owners[d.local_indices(r)] == r)

    @given(n=st.integers(1, 100), p=procs)
    @settings(max_examples=40, deadline=None)
    def test_block_sizes_balanced(self, n, p):
        d = block(n, p)
        ls = [d.local_size(r) for r in range(p)]
        assert max(ls) - min(ls) <= int(np.ceil(n / p))


class TestReplicated:
    def test_everyone_owns_everything(self):
        d = Replicated(5, 3)
        for r in range(3):
            assert d.local_size(r) == 5
        assert d.is_replicated

    def test_owners_undefined(self):
        with pytest.raises(TypeError):
            Replicated(5, 3).owners()


class TestTransferCounts:
    def test_identity_is_diagonal(self):
        d = block(12, 4)
        c = transfer_counts(d, d)
        assert np.all(c == np.diag(np.diag(c)))
        assert c.sum() == 12

    def test_block_to_cyclic_row_col_sums(self):
        src, dst = block(20, 4), cyclic(20, 5)
        c = transfer_counts(src, dst)
        np.testing.assert_array_equal(c.sum(axis=1), [src.local_size(r) for r in range(4)])
        np.testing.assert_array_equal(c.sum(axis=0), [dst.local_size(r) for r in range(5)])

    def test_replicated_source_balanced(self):
        src, dst = Replicated(12, 3), block(12, 4)
        c = transfer_counts(src, dst)
        np.testing.assert_array_equal(c.sum(axis=0), [3, 3, 3, 3])

    def test_replicated_target_is_allgather_like(self):
        src, dst = block(12, 3), Replicated(12, 2)
        c = transfer_counts(src, dst)
        assert np.all(c == 4)  # each source rank feeds its 4 elements to both

    def test_both_replicated_free(self):
        c = transfer_counts(Replicated(10, 2), Replicated(10, 3))
        assert c.sum() == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transfer_counts(block(10, 2), block(11, 2))

    @given(
        n=st.integers(1, 120),
        ps=st.integers(1, 8),
        pd=st.integers(1, 8),
        bs=st.integers(1, 16),
        bd=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_conserve_elements(self, n, ps, pd, bs, bd):
        src = BlockCyclic(n, ps, bs)
        dst = BlockCyclic(n, pd, bd)
        c = transfer_counts(src, dst)
        assert c.shape == (ps, pd)
        assert c.sum() == n
        assert np.all(c >= 0)


    @given(
        n=st.integers(0, 200),
        ps=procs,
        pd=procs,
        # blocks larger than the array, more ranks than blocks, the block
        # and cyclic layouts and every mix of them
        bs=st.one_of(st.just(None), st.integers(1, 250)),
        bd=st.one_of(st.just(None), st.integers(1, 250)),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_length_counts_equal_per_element_oracle(self, n, ps, pd, bs, bd):
        src = block(n, ps) if bs is None else BlockCyclic(n, ps, bs)
        dst = block(n, pd) if bd is None else BlockCyclic(n, pd, bd)
        c = transfer_counts(src, dst)
        oracle = np.bincount(
            src.owners() * pd + dst.owners(), minlength=ps * pd
        ).reshape(ps, pd)
        assert c.dtype == np.int64
        np.testing.assert_array_equal(c, oracle)
        np.testing.assert_array_equal(c.sum(axis=1), [src.local_size(r) for r in range(ps)])
        np.testing.assert_array_equal(c.sum(axis=0), [dst.local_size(r) for r in range(pd)])

    def test_cost_follows_runs_not_elements(self):
        # 10^9 elements in 16 + 64 ownership runs
        n = 10**9
        c = transfer_counts(block(n, 16), block(n, 64))
        assert c.sum() == n
        assert np.count_nonzero(c) <= 16 + 64

