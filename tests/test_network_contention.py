"""Tests for link models and NIC contention."""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CoreId,
    HierarchicalNetwork,
    LinkLevel,
    Machine,
    chic,
    generic_cluster,
)
from repro.cluster.architecture import LEVEL_NETWORK
from repro.comm import collective_time, redistribution_messages, redistribution_time
from repro.comm.contention import edge_costs, node_counts
from repro.distribution import BlockCyclic, Replicated, transfer_counts


def simple_setup():
    plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
    return plat.machine, plat.network


def message_cost(machine, net, a, b, nbytes, out=None, inc=None):
    """``edge_costs`` of one message from core ``a`` to core ``b`` under
    per-node NIC loads ``{node: count}`` (none: every count is one)."""
    nodes = machine.num_nodes
    out_count, in_count = np.ones(nodes, dtype=np.intp), np.ones(nodes, dtype=np.intp)
    for node, k in (out or {}).items():
        out_count[node] = k
    for node, k in (inc or {}).items():
        in_count[node] = k
    u, v = machine.core_index([a]), machine.core_index([b])
    return float(edge_costs(machine, net, u, v, nbytes, out_count, in_count)[0])


def two_node_network(link):
    """Two one-core nodes connected by ``link``."""
    fast = LinkLevel("fast", 0.0, 1e12)
    return Machine("pair", ((1,), (1,)), 1e9), HierarchicalNetwork((fast, fast, link))


class TestLinkLevel:
    def test_ptp_time_linear_in_size(self):
        machine, net = two_node_network(LinkLevel("l", latency=1e-6, bandwidth=1e9))
        a, b = machine.cores()
        assert message_cost(machine, net, a, b, 0) == pytest.approx(1e-6)
        assert message_cost(machine, net, a, b, 1e9) == pytest.approx(1.000001)

    def test_beta_is_inverse_bandwidth(self):
        link = LinkLevel("l", 0.0, 2e9)
        assert link.beta == pytest.approx(0.5e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkLevel("l", -1e-6, 1e9)
        with pytest.raises(ValueError):
            LinkLevel("l", 1e-6, 0)


class TestHierarchicalNetwork:
    def test_nic_defaults_to_internode_bandwidth(self):
        net = HierarchicalNetwork(
            (LinkLevel("a", 0, 4e9), LinkLevel("b", 0, 2e9), LinkLevel("c", 0, 1e9))
        )
        assert net.nic_bandwidth == pytest.approx(1e9)

    def test_level_bounds(self):
        _, net = simple_setup()
        with pytest.raises(ValueError):
            net.level(3)
        with pytest.raises(ValueError):
            net.alpha(-1)

    def test_contention_scales_bandwidth_only(self):
        machine, net = simple_setup()
        a, b = CoreId(0, 0, 0), CoreId(1, 0, 0)
        t1 = message_cost(machine, net, a, b, 1e6)
        t2 = message_cost(machine, net, a, b, 1e6, out={0: 2})
        assert t2 - net.alpha(2) == pytest.approx(2 * (t1 - net.alpha(2)))


class TestContention:
    def test_self_message_is_free(self):
        machine, net = simple_setup()
        c = CoreId(0, 0, 0)
        assert message_cost(machine, net, c, c, 1e6) == 0.0

    def test_intra_node_ignores_nic(self):
        machine, net = simple_setup()
        a, b = CoreId(0, 0, 0), CoreId(0, 1, 0)
        free = message_cost(machine, net, a, b, 1e6)
        loaded = message_cost(machine, net, a, b, 1e6, out={0: 100}, inc={0: 100})
        assert loaded == pytest.approx(free)

    def test_inter_node_shares_nic(self):
        machine, net = simple_setup()
        a, b = CoreId(0, 0, 0), CoreId(1, 0, 0)
        base = message_cost(machine, net, a, b, 1e6)
        loaded = message_cost(machine, net, a, b, 1e6, out={0: 4})
        assert loaded > base
        # 4 concurrent senders -> ~4x the bandwidth term
        alpha = net.alpha(2)
        assert (loaded - alpha) == pytest.approx(4 * (base - alpha), rel=0.01)

    def test_receiver_side_contention_counts(self):
        machine, net = simple_setup()
        a, b = CoreId(0, 0, 0), CoreId(1, 0, 0)
        base = message_cost(machine, net, a, b, 1e6)
        assert message_cost(machine, net, a, b, 1e6, inc={1: 3}) > base

    def test_build_context_counts_internode_edges_only(self):
        machine, _ = simple_setup()
        edges = [
            (CoreId(0, 0, 0), CoreId(1, 0, 0)),  # inter
            (CoreId(0, 0, 0), CoreId(0, 1, 0)),  # intra node
            (CoreId(2, 0, 0), CoreId(1, 0, 1)),  # inter
        ]
        out, inc = node_counts(
            machine,
            machine.core_index([u for u, _ in edges]),
            machine.core_index([v for _, v in edges]),
        )
        assert out.tolist() == [1, 0, 1, 0]
        assert inc.tolist() == [0, 2, 0, 0]

    def test_build_context_aggregates_concurrent_lists(self):
        machine, _ = simple_setup()
        # two concurrent rounds are counted as one edge array
        e1 = [(CoreId(0, 0, 0), CoreId(1, 0, 0))]
        e2 = [(CoreId(0, 0, 1), CoreId(2, 0, 0))]
        out, _ = node_counts(
            machine,
            machine.core_index([u for u, _ in e1 + e2]),
            machine.core_index([v for _, v in e1 + e2]),
        )
        assert out[0] == 2

    def test_round_cost_is_max_edge(self):
        machine, net = simple_setup()
        # ring a -> b (intra-socket) -> c (inter-node) -> a (inter-node):
        # both rounds last as long as the inter-node edge
        a, b, c = CoreId(0, 0, 0), CoreId(0, 0, 1), CoreId(3, 0, 0)
        expensive = message_cost(machine, net, b, c, 1e5)
        assert expensive > message_cost(machine, net, a, b, 1e5)
        assert collective_time("allgather", machine, net, [[a, b, c]], 3e5) == pytest.approx(
            2 * expensive
        )

    def test_round_cost_empty(self):
        machine, net = simple_setup()
        assert collective_time("allgather", machine, net, [[CoreId(0, 0, 0)]], 1e5) == 0.0


# ----------------------------------------------------------------------
# array kernel == scalar definition, bit for bit
# ----------------------------------------------------------------------
#: four nodes of unequal shape under CHiC's link parameters
HET = Machine("het", ((2, 2), (4,), (1, 3, 2), (2, 2)), 1e9)
NET = chic().network
HET_CORES = HET.cores()

core_picks = st.integers(0, len(HET_CORES) - 1)
node_loads = st.lists(st.integers(0, 9), min_size=HET.num_nodes, max_size=HET.num_nodes)


def edge_cost(u, v, nbytes, out_count, in_count):
    """One message by definition: the Hockney time of its link level, an
    inter-node message shares the NICs, a self-message is free."""
    if u == v:
        return 0.0
    lvl = HET.comm_level(u, v)
    link = NET.level(lvl)
    if lvl < LEVEL_NETWORK:
        return link.latency + nbytes * link.beta
    per_byte = max(
        link.beta,
        max(1, out_count[u.node]) / NET.nic_bandwidth,
        max(1, in_count[v.node]) / NET.nic_bandwidth,
    )
    return link.latency + nbytes * per_byte


def counts_by_loop(edges):
    """Inter-node edges leaving and entering every node, edge by edge."""
    out = Counter(u.node for u, v in edges if u.node != v.node)
    inc = Counter(v.node for u, v in edges if u.node != v.node)
    return [out[n] for n in range(HET.num_nodes)], [inc[n] for n in range(HET.num_nodes)]


@st.composite
def layouts(draw, n):
    """A 1-D distribution of ``n`` elements and the cores behind its ranks."""
    q = draw(st.integers(1, 9))
    dist = draw(
        st.one_of(
            st.builds(BlockCyclic, st.just(n), st.just(q), st.integers(1, 40)),
            st.just(Replicated(n, q)),
        )
    )
    where = draw(st.sampled_from(["anywhere", "distinct", "one node"]))
    if where == "distinct":
        picks = draw(st.permutations(range(len(HET_CORES))))[:q]
    elif where == "one node":  # no inter-node edge at all
        picks = draw(st.lists(st.integers(4, 7), min_size=q, max_size=q))
    else:  # several ranks may share a physical core
        picks = draw(st.lists(core_picks, min_size=q, max_size=q))
    return dist, [HET_CORES[i] for i in picks]


def messages_by_loop(src_cores, dst_cores, src_dist, dst_dist, itemsize):
    """Cell-by-cell walk over the transfer matrix (the definition)."""
    counts = transfer_counts(src_dist, dst_dist)
    messages = {}
    for i, j in np.argwhere(counts > 0):
        u, v = src_cores[i], dst_cores[j]
        if u != v:
            messages[(u, v)] = messages.get((u, v), 0) + int(counts[i, j]) * itemsize
    return messages


def redistribution_time_by_loop(src_cores, dst_cores, src_dist, dst_dist, itemsize):
    """Message-by-message reference built on the scalar ``edge_cost``."""
    messages = messages_by_loop(src_cores, dst_cores, src_dist, dst_dist, itemsize)
    if not messages:
        return 0.0
    out_cores, in_cores = defaultdict(set), defaultdict(set)
    for u, v in messages:
        if u.node != v.node:
            out_cores[u.node].add(u)
            in_cores[v.node].add(v)
    out_count = {n: len(c) for n, c in out_cores.items()}
    in_count = {n: len(c) for n, c in in_cores.items()}
    send, recv = defaultdict(float), defaultdict(float)
    for (u, v), nbytes in messages.items():
        t = edge_cost(u, v, nbytes, defaultdict(int, out_count), defaultdict(int, in_count))
        send[u] += t
        recv[v] += t
    return max(max(send.values()), max(recv.values()))


class TestArrayKernel:
    @given(
        edges=st.lists(st.tuples(core_picks, core_picks), min_size=1, max_size=30),
        nbytes=st.sampled_from([0.0, 8.0, 12345.0, 1e6 / 3]),
        out=node_loads,
        inc=node_loads,
    )
    @settings(max_examples=150, deadline=None)
    def test_edge_costs_equal_scalar_edge_cost(self, edges, nbytes, out, inc):
        u = np.array([a for a, _ in edges])
        v = np.array([b for _, b in edges])
        out_count = np.maximum(np.array(out, dtype=np.intp), 1)
        in_count = np.maximum(np.array(inc, dtype=np.intp), 1)
        got = edge_costs(HET, NET, u, v, nbytes, out_count, in_count)
        want = [edge_cost(HET_CORES[a], HET_CORES[b], nbytes, out, inc) for a, b in edges]
        assert got.tolist() == want

    @given(edge_lists=st.lists(st.lists(st.tuples(core_picks, core_picks), max_size=12), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_node_counts_equal_build_context(self, edge_lists):
        flat = [e for edges in edge_lists for e in edges]
        out, inc = node_counts(
            HET,
            np.array([a for a, _ in flat], dtype=np.intp),
            np.array([b for _, b in flat], dtype=np.intp),
        )
        assert (out.tolist(), inc.tolist()) == counts_by_loop(
            [(HET_CORES[a], HET_CORES[b]) for a, b in flat]
        )

    @given(
        data=st.data(),
        n=st.sampled_from([0, 1, 7, 100, 1000]),
        itemsize=st.sampled_from([1, 8]),
    )
    @settings(max_examples=300, deadline=None)
    def test_redistribution_equals_message_loop(self, data, n, itemsize):
        src_dist, src_cores = data.draw(layouts(n))
        dst_dist, dst_cores = data.draw(layouts(n))
        args = (src_cores, dst_cores, src_dist, dst_dist, itemsize)
        assert redistribution_messages(*args) == messages_by_loop(*args)
        # same merged messages in the same first-seen order ...
        assert list(redistribution_messages(*args)) == list(messages_by_loop(*args))
        # ... so the per-core busy sums round identically
        assert redistribution_time(HET, NET, *args) == redistribution_time_by_loop(*args)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="source has 2 cores"):
            redistribution_time(
                HET, NET, HET_CORES[:2], HET_CORES[:3], Replicated(4, 3), Replicated(4, 3)
            )

    def test_simulator_phase_counts_sum_to_the_ring_context(self):
        # the simulator adds up per-task counts instead of re-walking the
        # rings of every concurrent task; both give the same NIC load
        from repro.core import CollectiveSpec, MTask
        from repro.sim.executor import _phase_counts

        talk = MTask("talk", work=1.0, comm=(CollectiveSpec("allgather", 8.0),))
        quiet = MTask("quiet", work=1.0)
        placed = [
            (talk, HET_CORES[0:6]),
            (talk, HET_CORES[3:13]),
            (talk, HET_CORES[13:14]),
            (quiet, HET_CORES[2:11]),
        ]
        counts = [_phase_counts(HET, t, cores) for t, cores in placed]
        summed = sum(c[0] for c in counts).tolist(), sum(c[1] for c in counts).tolist()
        rings = [
            (cores[i], cores[(i + 1) % len(cores)])
            for t, cores in placed
            if t.comm and len(cores) > 1
            for i in range(len(cores))
        ]
        assert summed == counts_by_loop(rings)

