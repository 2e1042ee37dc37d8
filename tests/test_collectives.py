"""Tests for collective cost models and communication patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CoreId, Machine, chic, generic_cluster
from repro.comm import collective_time, collective_time_symbolic, orthogonal_sets
from repro.comm.collectives import _OPS, _rank_rounds
from repro.comm.contention import node_counts


@pytest.fixture
def plat():
    return generic_cluster(nodes=8, procs_per_node=2, cores_per_proc=2)


def group_of(plat, n, scattered=False):
    cores = plat.machine.cores()
    if not scattered:
        return list(cores[:n])
    per_node = plat.machine.cores_per_node(0)
    # one core per node round robin
    ordered = sorted(cores, key=lambda c: (c.proc, c.core, c.node))
    return list(ordered[:n])


class TestRounds:
    def test_ring_edges_cover_all_ranks(self):
        ((senders, receivers),) = _rank_rounds("allgather", 3)
        assert senders.tolist() == [0, 1, 2]
        assert receivers.tolist() == [1, 2, 0]

    def test_binomial_rounds_reach_everyone(self):
        rounds = _rank_rounds("bcast", 7)
        assert len(rounds) == 3  # ceil(log2 7)
        reached = {0}
        for senders, receivers in rounds:
            for u, v in zip(senders.tolist(), receivers.tolist()):
                assert u in reached
                reached.add(v)
        assert reached == set(range(7))

    def test_alltoall_rounds_pair_everyone(self):
        rounds = _rank_rounds("alltoall", 4)
        assert len(rounds) == 3
        sent = {(u, v) for s, r in rounds for u, v in zip(s.tolist(), r.tolist())}
        assert len(sent) == 12  # every ordered pair once


class TestCollectiveCosts:
    def test_single_core_is_free(self, plat):
        m, n = plat.machine, plat.network
        c = [CoreId(0, 0, 0)]
        for op in ("allgather", "bcast", "allreduce", "scatter", "gather", "alltoall", "barrier"):
            assert collective_time(op, m, n, [c], 1e6) == 0.0

    def test_monotone_in_message_size(self, plat):
        m, n = plat.machine, plat.network
        g = group_of(plat, 8)
        for op in ("allgather", "bcast", "allreduce", "alltoall", "scatter"):
            t1 = collective_time(op, m, n, [g], 1e4)
            t2 = collective_time(op, m, n, [g], 1e6)
            assert t2 > t1

    def test_consecutive_cheaper_than_scattered_allgather(self, plat):
        m, n = plat.machine, plat.network
        cons = group_of(plat, 16)
        scat = group_of(plat, 16, scattered=True)
        big = 1 << 20
        assert collective_time("allgather", m, n, [cons], big) < collective_time(
            "allgather", m, n, [scat], big
        )

    def test_allreduce_is_two_allgathers(self, plat):
        m, n = plat.machine, plat.network
        g = group_of(plat, 8)
        assert collective_time("allreduce", m, n, [g], 1e5) == pytest.approx(
            2 * collective_time("allgather", m, n, [g], 1e5)
        )

    def test_gather_equals_scatter(self, plat):
        m, n = plat.machine, plat.network
        g = group_of(plat, 8)
        assert collective_time("gather", m, n, [g], 1e5) == pytest.approx(
            collective_time("scatter", m, n, [g], 1e5)
        )

    def test_ptp_levels(self, plat):
        m, n = plat.machine, plat.network
        a = CoreId(0, 0, 0)
        assert collective_time("ptp", m, n, [[a, CoreId(0, 0, 1)]], 1e6) < collective_time(
            "ptp", m, n, [[a, CoreId(1, 0, 0)]], 1e6
        )

    def test_barrier_latency_only(self, plat):
        m, n = plat.machine, plat.network
        g = group_of(plat, 8)
        assert collective_time("barrier", m, n, [g], 0.0) == collective_time(
            "barrier", m, n, [g], 1e9
        )
        assert collective_time("barrier", m, n, [g], 0.0) > 0

    def test_unknown_op_rejected(self, plat):
        with pytest.raises(ValueError):
            collective_time("gossip", plat.machine, plat.network, [group_of(plat, 4)], 1)


class TestMultiGroup:
    def test_concurrent_groups_contend(self, plat):
        m, n = plat.machine, plat.network
        cores = plat.machine.cores()
        # scattered-style groups: every group spans all nodes
        g1 = [c for c in cores if c.proc == 0 and c.core == 0]
        g2 = [c for c in cores if c.proc == 0 and c.core == 1]
        alone = collective_time("allgather", m, n, [g1], 1 << 20)
        both = collective_time("allgather", m, n, [g1, g2], 1 << 20)
        assert both > alone

    def test_empty(self, plat):
        assert collective_time("allgather", plat.machine, plat.network, [], 1e5) == 0.0


class TestSymbolic:
    def test_symbolic_upper_bounds_contention_free_mapped(self, plat):
        """Tsymb charges the slowest level, so it bounds any placement that
        does not suffer NIC contention (here: a single-node group)."""
        m, n = plat.machine, plat.network
        g = group_of(plat, 4)  # exactly one node
        assert len({c.node for c in g}) == 1
        for op in ("allgather", "bcast", "allreduce", "scatter", "alltoall"):
            sym = collective_time_symbolic(op, n, 4, 1 << 18)
            mapped = collective_time(op, m, n, [g], 1 << 18)
            assert sym >= mapped * 0.999

    def test_symbolic_q1_free(self, plat):
        assert collective_time_symbolic("allgather", plat.network, 1, 1e6) == 0.0

    def test_symbolic_unknown_op(self, plat):
        with pytest.raises(ValueError):
            collective_time_symbolic("gossip", plat.network, 4, 1.0)


#: four nodes of unequal shape under CHiC's link parameters
HET = Machine("het", ((2, 2), (4,), (1, 3, 2), (2, 2)), 1e9)
HET_CORES = HET.cores()


def shared_load(op, groups):
    """NIC load of the round of every group that loads the NICs while all
    of them run ``op`` at once (Fig. 14 right)."""
    shared = {"allgather": 0, "alltoall": 0, "bcast": -1, "reduce": -1}.get(op)
    senders, receivers = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for g in groups:
        if shared is not None and len(g) > 1:
            s, r = _rank_rounds(op, len(g))[shared]
            senders.append(HET.core_index(g)[s])
            receivers.append(HET.core_index(g)[r])
    return node_counts(HET, np.concatenate(senders), np.concatenate(receivers))


class TestMultiGroupKernel:
    @given(
        op=st.sampled_from(_OPS),
        groups=st.lists(
            # unequal sizes, one-member groups, a core in two groups or
            # behind two ranks of one group
            st.lists(st.sampled_from(HET_CORES), min_size=1, max_size=9),
            min_size=2,
            max_size=6,
        ),
        nbytes=st.sampled_from([0.0, 8.0, 12345.0, 1e6 / 3, 3e7]),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_slowest_group_under_the_shared_context(self, op, groups, nbytes):
        net = chic().network
        load = shared_load(op, groups)
        want = max(collective_time(op, HET, net, [g], nbytes, load) for g in groups)
        assert collective_time(op, HET, net, groups, nbytes) == want

    def test_no_groups_and_unknown_op(self):
        net = chic().network
        assert collective_time("allgather", HET, net, [], 1e6) == 0.0
        assert collective_time("allgather", HET, net, [HET_CORES[:1]], 1e6) == 0.0
        with pytest.raises(ValueError, match="unknown collective"):
            collective_time("gossip", HET, net, [HET_CORES[:2]], 1e6)


class TestPatterns:
    def test_orthogonal_sets_shape(self):
        groups = [
            [CoreId(0, 0, 0), CoreId(0, 0, 1)],
            [CoreId(1, 0, 0), CoreId(1, 0, 1)],
        ]
        sets = orthogonal_sets(groups)
        assert sets == [
            [CoreId(0, 0, 0), CoreId(1, 0, 0)],
            [CoreId(0, 0, 1), CoreId(1, 0, 1)],
        ]

    def test_orthogonal_locality_order_sorts(self):
        groups = [
            [CoreId(1, 0, 0), CoreId(1, 0, 1)],
            [CoreId(0, 0, 0), CoreId(0, 0, 1)],
        ]
        sets = orthogonal_sets(groups)
        assert sets[0][0] == CoreId(0, 0, 0)

    def test_orthogonal_requires_equal_sizes(self):
        with pytest.raises(ValueError):
            orthogonal_sets([[CoreId(0, 0, 0)], [CoreId(1, 0, 0), CoreId(1, 0, 1)]])
