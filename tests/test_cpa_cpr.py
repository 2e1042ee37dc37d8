"""Tests for the CPA/CPR baselines and the shared list scheduler."""

import pytest

from repro.cluster import generic_cluster
from repro.core import CollectiveSpec, CostModel, MTask, TaskGraph
from repro.scheduling import CPAScheduler, CPRScheduler, bottom_levels, list_schedule


@pytest.fixture
def cost():
    return CostModel(generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2))


def fork_join(k=4, work=4e9):
    g = TaskGraph()
    src = g.add_task(MTask("src", work=1e8))
    sink = g.add_task(MTask("sink", work=1e8))
    mids = []
    for i in range(k):
        t = g.add_task(MTask(f"m{i}", work=work,
                             comm=(CollectiveSpec("allgather", 10000),)))
        g.add_dependency(src, t)
        g.add_dependency(t, sink)
        mids.append(t)
    return g, mids


class TestListSchedule:
    def test_valid_schedule(self, cost):
        g, _ = fork_join()
        alloc = {t: 2 for t in g}
        s = list_schedule(g, alloc, cost)
        s.validate(g)
        assert len(s) == len(g)

    def test_respects_allocation(self, cost):
        g, _ = fork_join()
        alloc = {t: 3 for t in g}
        s = list_schedule(g, alloc, cost)
        assert all(len(e.cores) == 3 for e in s.entries)

    def test_bad_allocation_rejected(self, cost):
        g, _ = fork_join()
        alloc = {t: 10**6 for t in g}
        with pytest.raises(ValueError):
            list_schedule(g, alloc, cost)

    def test_bottom_levels_decrease_along_edges(self, cost):
        g, _ = fork_join()
        times = {t: 1.0 for t in g}
        bl = bottom_levels(g, times)
        for u, v, _f in g.edges():
            assert bl[u] > bl[v]

    def test_parallel_when_room(self, cost):
        g, mids = fork_join(k=4)
        alloc = {t: 4 for t in g}  # 4 tasks x 4 cores = 16 = P
        s = list_schedule(g, alloc, cost)
        starts = {s[t].start for t in mids}
        assert len(starts) == 1  # all four start together

    def test_serialises_when_oversubscribed(self, cost):
        g, mids = fork_join(k=4)
        alloc = {t: 16 for t in g}
        s = list_schedule(g, alloc, cost)
        starts = sorted(s[t].start for t in mids)
        assert starts[0] < starts[-1]


class TestCPA:
    def test_allocation_within_bounds(self, cost):
        g, _ = fork_join()
        alloc = CPAScheduler(cost).allocate(g)
        P = cost.platform.total_cores
        assert all(1 <= q <= P for q in alloc.values())

    def test_overallocates_symmetric_fork(self, cost):
        """CPA's signature failure mode (Fig. 13): the sum of the
        allocations of independent symmetric tasks exceeds P."""
        g, mids = fork_join(k=4)
        alloc = CPAScheduler(cost).allocate(g)
        assert sum(alloc[t] for t in mids) > cost.platform.total_cores

    def test_schedule_is_valid(self, cost):
        g, _ = fork_join()
        s = CPAScheduler(cost).schedule(g).timeline
        s.validate(g)

    def test_granularity_coarsens(self, cost):
        g, _ = fork_join()
        fine = CPAScheduler(cost, granularity=1).allocate(g)
        coarse = CPAScheduler(cost, granularity=4).allocate(g)
        assert set(fine) == set(coarse)

    def test_respects_max_procs(self, cost):
        g = TaskGraph()
        g.add_task(MTask("capped", work=1e12, max_procs=2))
        alloc = CPAScheduler(cost).allocate(g)
        assert list(alloc.values())[0] <= 2


class TestCPR:
    def test_improves_over_unit_allocation(self, cost):
        g, _ = fork_join()
        unit = list_schedule(g, {t: 1 for t in g}, cost)
        best, alloc = CPRScheduler(cost).schedule_with_allocation(g)
        assert best.makespan < unit.makespan

    def test_crosses_symmetric_plateau(self, cost):
        """The secondary objective lets CPR widen symmetric stages and
        reach the balanced (task-parallel) allocation."""
        g, mids = fork_join(k=4)
        best, alloc = CPRScheduler(cost).schedule_with_allocation(g)
        assert all(alloc[t] == 4 for t in mids)
        best.validate(g)

    def test_never_exceeds_increment_budget(self, cost):
        g, _ = fork_join()
        s = CPRScheduler(cost, max_increments=3).schedule(g).timeline
        s.validate(g)

    def test_granularity(self, cost):
        g, _ = fork_join()
        s = CPRScheduler(cost, granularity=4).schedule(g).timeline
        s.validate(g)

    def test_matches_layer_based_for_pabm_shape(self, cost):
        """For the PABM-like symmetric fork, CPR and the layer-based
        scheduler agree (the paper's Fig. 13 left observation)."""
        from repro.mapping import consecutive, place_layered, place_timeline
        from repro.scheduling import fixed_group_scheduler
        from repro.sim import simulate

        g, _ = fork_join(k=4)
        plat = cost.platform
        layered = fixed_group_scheduler(cost, 4).schedule(g).layered
        p1 = place_layered(layered, plat.machine, consecutive())
        t1 = simulate(g, p1, cost).makespan
        cpr = CPRScheduler(cost).schedule(g).timeline
        p2 = place_timeline(cpr, plat.machine, consecutive())
        t2 = simulate(g, p2, cost).makespan
        assert t2 == pytest.approx(t1, rel=0.05)
