"""Tests for mapping strategies and the mapping function F_W."""

import pytest

from repro.cluster import CoreId, Machine, generic_cluster
from repro.core import (
    CostModel,
    Layer,
    LayeredSchedule,
    MTask,
    Placement,
    Schedule,
    ScheduledTask,
    TaskGraph,
)
from repro.mapping import (
    consecutive,
    map_layer,
    mixed,
    place_layered,
    place_timeline,
    scattered,
    strategy_by_name,
)


@pytest.fixture
def machine():
    return Machine.homogeneous("t", nodes=4, procs_per_node=2, cores_per_proc=2, core_flops=1e9)


class TestStrategies:
    def test_sequences_are_permutations(self, machine):
        all_cores = set(machine.cores())
        for strat in (consecutive(), scattered(), mixed(2), mixed(3)):
            seq = strat.sequence(machine)
            assert set(seq) == all_cores
            assert len(seq) == machine.total_cores

    def test_consecutive_is_node_major(self, machine):
        seq = consecutive().sequence(machine)
        assert seq == tuple(sorted(seq))
        assert [c.node for c in seq[:4]] == [0, 0, 0, 0]

    def test_scattered_is_position_major(self, machine):
        seq = scattered().sequence(machine)
        assert [c.node for c in seq[:4]] == [0, 1, 2, 3]

    def test_mixed_blocks_of_d(self, machine):
        seq = mixed(2).sequence(machine)
        # first 2 cores from node 0, next 2 from node 1, ...
        assert [c.node for c in seq[:8]] == [0, 0, 1, 1, 2, 2, 3, 3]
        # the two cores of a block are consecutive on their node
        assert seq[0].proc == seq[1].proc

    def test_mixed_degenerate_cases(self, machine):
        assert mixed(1).sequence(machine) == scattered().sequence(machine)
        per_node = machine.cores_per_node(0)
        assert mixed(per_node).sequence(machine) == consecutive().sequence(machine)

    def test_mixed_validation(self):
        with pytest.raises(ValueError):
            mixed(0)

    def test_strategy_by_name(self):
        assert strategy_by_name("consecutive").name == "consecutive"
        assert strategy_by_name("scattered").name == "scattered"
        assert strategy_by_name("mixed:4").name == "mixed(d=4)"
        with pytest.raises(ValueError):
            strategy_by_name("diagonal")


class TestMapLayer:
    def test_groups_disjoint_and_sized(self, machine):
        tasks = [MTask(f"t{i}") for i in range(4)]
        layer = Layer(groups=[[t] for t in tasks], group_sizes=[4, 4, 4, 4])
        groups = map_layer(layer, machine, consecutive())
        assert [len(g) for g in groups] == [4, 4, 4, 4]
        flat = [c for g in groups for c in g]
        assert len(set(flat)) == 16

    def test_consecutive_groups_node_aligned(self, machine):
        tasks = [MTask(f"t{i}") for i in range(4)]
        layer = Layer(groups=[[t] for t in tasks], group_sizes=[4, 4, 4, 4])
        groups = map_layer(layer, machine, consecutive())
        for g in groups:
            assert len({c.node for c in g}) == 1  # one node per group

    def test_scattered_groups_spread(self, machine):
        tasks = [MTask(f"t{i}") for i in range(4)]
        layer = Layer(groups=[[t] for t in tasks], group_sizes=[4, 4, 4, 4])
        groups = map_layer(layer, machine, scattered())
        for g in groups:
            assert len({c.node for c in g}) == 4  # all nodes touched

    def test_size_mismatch_rejected(self, machine):
        layer = Layer(groups=[[MTask("a")]], group_sizes=[8])
        with pytest.raises(ValueError):
            map_layer(layer, machine, consecutive())


class TestPlacement:
    def test_place_layered(self, machine):
        a, b, c = MTask("a", work=1), MTask("b", work=1), MTask("c", work=1)
        sched = LayeredSchedule(
            nprocs=16,
            layers=[
                Layer(groups=[[a]], group_sizes=[16]),
                Layer(groups=[[b], [c]], group_sizes=[8, 8]),
            ],
        )
        pl = place_layered(sched, machine, consecutive())
        assert len(pl.cores_of(a)) == 16
        assert len(pl.cores_of(b)) == 8
        assert set(pl.cores_of(b)).isdisjoint(pl.cores_of(c))
        assert pl.priority[a] < pl.priority[b]
        assert pl.all_cores == consecutive().sequence(machine)

    def test_place_layered_expands_chains(self, machine):
        m1, m2 = MTask("m1"), MTask("m2")
        chain = MTask("chain", meta={"chain_members": [m1, m2]})
        sched = LayeredSchedule(
            nprocs=16,
            layers=[Layer(groups=[[chain]], group_sizes=[16])],
            expansion={chain: [m1, m2]},
        )
        pl = place_layered(sched, machine, consecutive())
        assert pl.cores_of(m1) == pl.cores_of(m2)
        assert pl.priority[m1] < pl.priority[m2]

    def test_place_layered_respects_max_procs(self, machine):
        t = MTask("capped", max_procs=4)
        sched = LayeredSchedule(
            nprocs=16, layers=[Layer(groups=[[t]], group_sizes=[16])]
        )
        pl = place_layered(sched, machine, consecutive())
        assert len(pl.cores_of(t)) == 4

    def test_place_timeline(self, machine):
        t = MTask("t")
        s = Schedule(16, [ScheduledTask(t, 0.0, 1.0, (0, 1, 2, 3))])
        pl = place_timeline(s, machine, scattered())
        seq = scattered().sequence(machine)
        assert pl.cores_of(t) == tuple(seq[i] for i in range(4))

    def test_validate_rejects_duplicate_core_in_shared_tuple(self, machine):
        """One duplicate-check per distinct core tuple must still see a
        bad tuple that many tasks share (and a second, healthy tuple
        object must not be mistaken for an already-checked one)."""
        seq = consecutive().sequence(machine)
        good, bad = seq[:4], seq[4:7] + seq[4:5]
        tasks = [MTask(f"t{i}") for i in range(6)]
        graph = TaskGraph("shared")
        graph.add_tasks(tasks)
        Placement({t: good for t in tasks}).validate(graph)
        cores = {t: good for t in tasks[:3]} | {t: bad for t in tasks[3:]}
        with pytest.raises(ValueError, match="'t3' mapped to duplicate cores"):
            Placement(cores).validate(graph)
        # width limits are still checked per task, not per tuple
        capped = MTask("capped", max_procs=2)
        graph.add_task(capped)
        with pytest.raises(ValueError, match="'capped' mapped to 4 cores"):
            Placement({**{t: good for t in tasks}, capped: good}).validate(graph)

    def test_wrong_machine_size(self, machine):
        t = MTask("t")
        sched = LayeredSchedule(nprocs=8, layers=[Layer(groups=[[t]], group_sizes=[8])])
        with pytest.raises(ValueError):
            place_layered(sched, machine, consecutive())


class TestScheduleContainer:
    def test_overlap_detection(self):
        a, b = MTask("a"), MTask("b")
        s = Schedule(4)
        s.add(ScheduledTask(a, 0.0, 2.0, (0, 1)))
        s.add(ScheduledTask(b, 1.0, 3.0, (1, 2)))
        with pytest.raises(ValueError):
            s.validate()

    def test_double_schedule_rejected(self):
        a = MTask("a")
        s = Schedule(4)
        s.add(ScheduledTask(a, 0.0, 1.0, (0,)))
        with pytest.raises(ValueError):
            s.add(ScheduledTask(a, 2.0, 3.0, (0,)))

    def test_core_out_of_range(self):
        s = Schedule(2)
        with pytest.raises(ValueError):
            s.add(ScheduledTask(MTask("a"), 0.0, 1.0, (5,)))

    def test_metrics(self):
        a, b = MTask("a"), MTask("b")
        s = Schedule(2)
        s.add(ScheduledTask(a, 0.0, 1.0, (0,)))
        s.add(ScheduledTask(b, 0.0, 1.0, (1,)))
        assert s.makespan == 1.0

    def test_gantt_renders(self):
        a = MTask("a")
        s = Schedule(2, [ScheduledTask(a, 0.0, 1.0, (0, 1))])
        lines = s.gantt_lines(width=20)
        assert len(lines) == 2
        assert "A" in lines[0]
