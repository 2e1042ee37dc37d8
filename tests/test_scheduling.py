"""Tests for chain contraction, layering, LPT assignment and the
layer-based scheduling algorithm."""

import pytest

from repro.cluster import generic_cluster
from repro.core import CollectiveSpec, CostModel, MTask, TaskGraph
from repro.scheduling import (
    LayerBasedScheduler,
    adjust_group_sizes,
    build_layers,
    contract_chains,
    data_parallel_scheduler,
    equal_partition,
    find_linear_chains,
    fixed_group_scheduler,
    layer_index,
    symbolic_timeline,
)

from tests.test_schedule_scale import lpt_assign


def chain_graph(lengths):
    """Independent chains of given lengths between a source and a sink."""
    g = TaskGraph()
    src = g.add_task(MTask("src", work=1.0))
    sink = g.add_task(MTask("sink", work=1.0))
    chains = []
    for ci, L in enumerate(lengths):
        prev = src
        members = []
        for j in range(L):
            t = g.add_task(MTask(f"c{ci}_{j}", work=10.0))
            g.add_dependency(prev, t)
            prev = t
            members.append(t)
        g.add_dependency(prev, sink)
        chains.append(members)
    return g, src, sink, chains


class TestChains:
    def test_finds_maximal_chains(self):
        g, src, sink, chains = chain_graph([3, 2, 1])
        found = find_linear_chains(g)
        found_names = sorted(tuple(t.name for t in c) for c in found)
        assert ("c0_0", "c0_1", "c0_2") in found_names
        assert ("c1_0", "c1_1") in found_names
        # length-1 chains are not chains
        assert all(len(c) >= 2 for c in found)

    def test_contraction_preserves_work_and_comm(self):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=5, comm=(CollectiveSpec("allgather", 10),)))
        b = g.add_task(MTask("b", work=7, comm=(CollectiveSpec("bcast", 20),)))
        g.add_dependency(a, b)
        cg, exp = contract_chains(g)
        assert len(cg) == 1
        node = next(iter(cg))
        assert node.work == pytest.approx(12)
        assert len(node.comm) == 2
        assert exp[node] == [a, b]

    def test_contraction_respects_moldability(self):
        g = TaskGraph()
        a = g.add_task(MTask("a", min_procs=2, max_procs=16))
        b = g.add_task(MTask("b", min_procs=4, max_procs=8))
        g.add_dependency(a, b)
        cg, _ = contract_chains(g)
        node = next(iter(cg))
        assert node.min_procs == 4
        assert node.max_procs == 8

    def test_contracted_graph_edge_rewiring(self):
        g, src, sink, chains = chain_graph([3, 2])
        cg, exp = contract_chains(g)
        # src and sink survive; chains replaced
        names = {t.name for t in cg}
        assert "src" in names and "sink" in names
        assert len(cg) == 4  # src, sink, two chain nodes
        cg.validate()

    def test_no_chains_identity(self):
        g = TaskGraph()
        a, b, c = (g.add_task(MTask(n)) for n in "abc")
        g.add_dependency(a, b)
        g.add_dependency(a, c)
        cg, exp = contract_chains(g)
        assert len(cg) == 3
        assert exp == {}

    def test_diamond_not_a_chain(self):
        g = TaskGraph()
        a, b, c, d = (g.add_task(MTask(n)) for n in "abcd")
        g.add_dependency(a, b)
        g.add_dependency(a, c)
        g.add_dependency(b, d)
        g.add_dependency(c, d)
        assert find_linear_chains(g) == []


class TestLayers:
    def test_layers_are_independent(self):
        g, src, sink, chains = chain_graph([3, 2, 1])
        for layer in build_layers(g):
            for i, a in enumerate(layer):
                for b in layer[i + 1:]:
                    assert b not in g.descendants(a) and a not in g.descendants(b)

    def test_layer_ordering_respects_deps(self):
        g, src, sink, _ = chain_graph([2])
        idx = layer_index(g)
        for u, v, _f in g.edges():
            assert idx[u] < idx[v]

    def test_epol_shape(self):
        """After contraction the EPOL step graph has [1, R, 1]-ish layers."""
        g, src, sink, chains = chain_graph([1, 2, 3, 4])
        cg, _ = contract_chains(g)
        widths = [len(l) for l in build_layers(cg)]
        assert widths == [1, 4, 1]

    def test_empty(self):
        assert build_layers(TaskGraph()) == []


class TestAssignment:
    def test_equal_partition(self):
        assert equal_partition(10, 3) == [4, 3, 3]
        assert equal_partition(8, 4) == [2, 2, 2, 2]
        with pytest.raises(ValueError):
            equal_partition(2, 3)
        with pytest.raises(ValueError):
            equal_partition(4, 0)

    def test_lpt_balances(self):
        tasks = [MTask(f"t{i}", work=w) for i, w in enumerate([7, 5, 4, 3, 1])]
        groups = lpt_assign(tasks, lambda t: t.work, 2)
        loads = [sum(t.work for t in g) for g in groups]
        assert max(loads) == 10  # optimal for this instance

    def test_lpt_deterministic(self):
        tasks = [MTask(f"t{i}", work=3.0) for i in range(6)]
        g1 = lpt_assign(tasks, lambda t: t.work, 3)
        g2 = lpt_assign(tasks, lambda t: t.work, 3)
        assert [[t.name for t in g] for g in g1] == [[t.name for t in g] for g in g2]

    def test_adjust_proportional(self):
        g1 = [MTask("a", work=30.0)]
        g2 = [MTask("b", work=10.0)]
        sizes = adjust_group_sizes([g1, g2], lambda t: t.work, 8)
        assert sizes == [6, 2]
        assert sum(sizes) == 8

    def test_adjust_keeps_floors(self):
        g1 = [MTask("a", work=100.0)]
        g2 = [MTask("b", work=1.0, min_procs=2)]
        sizes = adjust_group_sizes([g1, g2], lambda t: t.work, 8)
        assert sizes[1] >= 2
        assert sum(sizes) == 8

    def test_adjust_zero_work_equal_split(self):
        groups = [[MTask("a")], [MTask("b")]]
        assert adjust_group_sizes(groups, lambda t: 0.0, 4) == [2, 2]

    def test_adjust_infeasible(self):
        groups = [[MTask("a", min_procs=3)], [MTask("b", min_procs=3)]]
        with pytest.raises(ValueError):
            adjust_group_sizes(groups, lambda t: 1.0, 4)


@pytest.fixture
def cost():
    return CostModel(generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2))


class TestLayerBasedScheduler:
    def epol_like(self):
        return chain_graph([1, 2, 3, 4])[0]

    def test_schedules_all_tasks(self, cost):
        g = self.epol_like()
        sched = LayerBasedScheduler(cost).schedule(g).layered
        assert sorted(t.name for t in sched.all_original_tasks()) == sorted(
            t.name for t in g
        )

    def test_group_sizes_sum_to_P(self, cost):
        sched = LayerBasedScheduler(cost).schedule(self.epol_like()).layered
        for layer in sched.layers:
            assert sum(layer.group_sizes) == cost.platform.total_cores

    def test_compute_bound_prefers_balanced_pairs(self, cost):
        """With compute-dominated chains of lengths 1..4, pairing (1,4),
        (2,3) on two groups is the balanced choice."""
        g = self.epol_like()
        sched = fixed_group_scheduler(cost, 2).schedule(g).layered
        mid = sched.layers[1]
        works = sorted(sum(t.work for t in grp) for grp in mid.groups)
        assert works == [50.0, 50.0]

    def test_adjustment_resizes(self, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=3e9))
        b = g.add_task(MTask("b", work=1e9))
        sched = fixed_group_scheduler(cost, 2, adjust=True).schedule(g).layered
        layer = sched.layers[0]
        heavy = next(i for i, grp in enumerate(layer.groups) if a in grp)
        assert layer.group_sizes[heavy] > layer.group_sizes[1 - heavy]

    def test_dp_baseline_single_group(self, cost):
        sched = data_parallel_scheduler(cost).schedule(self.epol_like()).layered
        assert all(layer.num_groups == 1 for layer in sched.layers)

    def test_max_task_parallel(self, cost):
        # as many concurrent groups as the layer has tasks
        most = LayerBasedScheduler(cost, candidate_groups=[cost.platform.total_cores])
        sched = most.schedule(self.epol_like()).layered
        mid = sched.layers[1]
        assert mid.num_groups == 4

    def test_min_procs_infeasibility(self, cost):
        g = TaskGraph()
        g.add_task(MTask("a", min_procs=1000))
        with pytest.raises(ValueError):
            LayerBasedScheduler(cost).schedule(g)

    def test_candidate_clamping(self, cost):
        # a single-task layer with fixed g=4 must still schedule
        g = TaskGraph()
        g.add_task(MTask("only", work=1e9))
        sched = fixed_group_scheduler(cost, 4).schedule(g).layered
        assert sched.layers[0].num_groups == 1

    def test_roundrobin_ablation_not_better(self, cost):
        g = self.epol_like()
        lpt = LayerBasedScheduler(cost, assignment="lpt").schedule(g).layered
        rr = LayerBasedScheduler(cost, assignment="roundrobin").schedule(g).layered
        t_lpt = symbolic_timeline(lpt, cost).makespan
        t_rr = symbolic_timeline(rr, cost).makespan
        assert t_lpt <= t_rr * 1.0001

    def test_symbolic_timeline_valid(self, cost):
        g = self.epol_like()
        sched = LayerBasedScheduler(cost).schedule(g).layered
        tl = symbolic_timeline(sched, cost)
        tl.validate()
        assert tl.makespan > 0
        assert len(tl) == len(g)

    def test_invalid_assignment_name(self, cost):
        with pytest.raises(ValueError):
            LayerBasedScheduler(cost, assignment="random")
