"""Tests for the M-task cost model (Section 3.1)."""

import pytest

from repro.cluster import generic_cluster
from repro.core import (
    AccessMode,
    CollectiveSpec,
    CostModel,
    DataFlow,
    DistributionSpec,
    MTask,
    Parameter,
)


@pytest.fixture
def plat():
    return generic_cluster(nodes=8, procs_per_node=2, cores_per_proc=2)


@pytest.fixture
def cost(plat):
    return CostModel(plat)


class TestComputation:
    def test_linear_speedup(self, cost):
        t = MTask("a", work=1e9)
        assert cost.tcomp(t, 2) == pytest.approx(cost.tcomp(t, 1) / 2)
        assert cost.tcomp(t, 32) == pytest.approx(cost.tcomp(t, 1) / 32)

    def test_sequential_time_uses_efficiency(self, plat):
        t = MTask("a", work=1e9)
        full = CostModel(plat, compute_efficiency=1.0)
        half = CostModel(plat, compute_efficiency=0.5)
        assert half.sequential_time(t) == pytest.approx(2 * full.sequential_time(t))

    def test_invalid_efficiency(self, plat):
        with pytest.raises(ValueError):
            CostModel(plat, compute_efficiency=0.0)
        with pytest.raises(ValueError):
            CostModel(plat, compute_efficiency=1.5)

    def test_invalid_q(self, cost):
        with pytest.raises(ValueError):
            cost.tcomp(MTask("a", work=1.0), 0)


class TestSymbolicCost:
    def test_tsymb_includes_comm(self, cost):
        t_quiet = MTask("q", work=1e8)
        t_chatty = MTask("c", work=1e8, comm=(CollectiveSpec("allgather", 1 << 18),))
        assert cost.tsymb(t_chatty, 8) > cost.tsymb(t_quiet, 8)

    def test_group_scope_scales_with_q(self, cost):
        t = MTask("c", comm=(CollectiveSpec("allgather", 1 << 14),))
        assert cost.tcomm_symbolic(t, 16) > cost.tcomm_symbolic(t, 4)
        assert cost.tcomm_symbolic(t, 1) == 0.0

    def test_global_scope_independent_of_q(self, cost):
        t = MTask("c", comm=(CollectiveSpec("allgather", 1 << 14, scope="global"),))
        assert cost.tcomm_symbolic(t, 4) == pytest.approx(cost.tcomm_symbolic(t, 16))

    def test_task_parallel_only_skipped_at_full_width(self, cost, plat):
        t = MTask(
            "c",
            comm=(CollectiveSpec("bcast", 1 << 14, scope="global", task_parallel_only=True),),
        )
        P = plat.total_cores
        assert cost.tcomm_symbolic(t, P) == 0.0
        assert cost.tcomm_symbolic(t, P // 4) > 0.0

    def test_orthogonal_scope_vanishes_for_one_group(self, cost, plat):
        t = MTask("c", comm=(CollectiveSpec("allgather", 1 << 14, scope="orthogonal"),))
        assert cost.tcomm_symbolic(t, plat.total_cores) == 0.0
        assert cost.tcomm_symbolic(t, plat.total_cores // 4) > 0.0


class TestMappedCost:
    def test_consecutive_beats_scattered(self, cost, plat):
        t = MTask("c", comm=(CollectiveSpec("allgather", 1 << 20),))
        cores = plat.machine.cores()
        cons = cores[:16]
        scat = tuple(sorted(cores, key=lambda c: (c.proc, c.core, c.node)))[:16]
        assert cost.tcomm_mapped(t, cons) < cost.tcomm_mapped(t, scat)

    def test_orthogonal_needs_peers(self, cost, plat):
        t = MTask("c", comm=(CollectiveSpec("allgather", 1 << 16, scope="orthogonal"),))
        cores = plat.machine.cores()
        g0, g1 = cores[:8], cores[8:16]
        assert cost.tcomm_mapped(t, g0) == 0.0  # no peers known
        assert cost.tcomm_mapped(t, g0, peer_groups=[g0, g1]) > 0.0

    def test_orthogonal_unequal_groups_truncate(self, cost, plat):
        t = MTask("c", comm=(CollectiveSpec("allgather", 1 << 16, scope="orthogonal"),))
        cores = plat.machine.cores()
        g0, g1 = cores[:8], cores[8:12]  # widths 8 and 4
        assert cost.tcomm_mapped(t, g0, peer_groups=[g0, g1]) > 0.0

    def test_global_task_parallel_only_uses_program_flag(self, cost, plat):
        t = MTask(
            "c",
            comm=(CollectiveSpec("bcast", 1 << 16, scope="global", task_parallel_only=True),),
        )
        cores = plat.machine.cores()
        # full-width task inside a task-parallel program still pays
        assert cost.tcomm_mapped(t, cores, task_parallel_program=True) > 0.0
        assert cost.tcomm_mapped(t, cores, task_parallel_program=False) == 0.0


class TestRedistribution:
    def test_same_cores_same_dist_is_free(self, cost, plat):
        cores = plat.machine.cores()[:4]
        flows = [DataFlow("x", 1000, src_dist=DistributionSpec("block"),
                          dst_dist=DistributionSpec("block"))]
        assert cost.redistribution_time(flows, cores, cores) == 0.0

    def test_disjoint_groups_pay(self, cost, plat):
        cores = plat.machine.cores()
        flows = [DataFlow("x", 1000, src_dist=DistributionSpec("block"),
                          dst_dist=DistributionSpec("block"))]
        assert cost.redistribution_time(flows, cores[:4], cores[4:8]) > 0.0

    def test_replic_to_replic_free(self, cost, plat):
        cores = plat.machine.cores()
        flows = [DataFlow("x", 1000)]
        assert cost.redistribution_time(flows, cores[:4], cores[4:8]) == 0.0

    def test_cross_node_costs_more(self, cost, plat):
        cores = plat.machine.cores()
        flows = [DataFlow("x", 100000, src_dist=DistributionSpec("block"),
                          dst_dist=DistributionSpec("block"))]
        same_node = cost.redistribution_time(flows, cores[:2], cores[2:4])
        cross = cost.redistribution_time(flows, cores[:2], cores[8:10])
        assert cross > same_node

    def test_symbolic_redistribution_positive(self, cost):
        flows = [DataFlow("x", 1000, src_dist=DistributionSpec("block"),
                          dst_dist=DistributionSpec("cyclic"))]
        assert cost.redistribution_time_symbolic(flows, 4, 8) > 0.0
        # replic -> replic is free symbolically too
        assert cost.redistribution_time_symbolic([DataFlow("x", 1000)], 4, 8) == 0.0
