"""Tests for the pattern-level cost helpers and trace rendering."""

import pytest

from repro.cluster import generic_cluster
from repro.comm import global_time, group_time, orthogonal_time
from repro.core import CostModel, MTask, TaskGraph
from repro.mapping import consecutive, place_layered
from repro.obs.gantt import render_trace
from repro.scheduling import fixed_group_scheduler
from repro.sim import simulate


@pytest.fixture
def plat():
    return generic_cluster(nodes=8, procs_per_node=2, cores_per_proc=2)


def consecutive_groups(plat, g):
    cores = plat.machine.cores()
    size = len(cores) // g
    return [list(cores[i * size : (i + 1) * size]) for i in range(g)]


class TestPatternCosts:
    def test_global_equals_single_group(self, plat):
        m, n = plat.machine, plat.network
        cores = list(plat.machine.cores())
        t = global_time("allgather", m, n, cores, 1 << 20)
        assert t > 0

    def test_concurrent_groups_cost_at_least_sequential_max(self, plat):
        m, n = plat.machine, plat.network
        groups = consecutive_groups(plat, 4)
        conc = group_time("allgather", m, n, groups, 1 << 20, concurrent=True)
        solo = group_time("allgather", m, n, groups, 1 << 20, concurrent=False)
        assert conc >= solo

    def test_orthogonal_grows_with_volume(self, plat):
        m, n = plat.machine, plat.network
        groups = consecutive_groups(plat, 4)
        small = orthogonal_time("allgather", m, n, groups, 1 << 12)
        big = orthogonal_time("allgather", m, n, groups, 1 << 20)
        assert 0 < small < big

    def test_orthogonal_scattered_groups_are_local(self, plat):
        """When the groups are scattered, the orthogonal sets become
        node-local and nearly free."""
        m, n = plat.machine, plat.network
        cores = plat.machine.cores()
        scat = sorted(cores, key=lambda c: (c.proc, c.core, c.node))
        size = len(cores) // 4
        scattered_groups = [list(scat[i * size : (i + 1) * size]) for i in range(4)]
        cons_groups = consecutive_groups(plat, 4)
        t_scat = orthogonal_time("allgather", m, n, scattered_groups, 1 << 18)
        t_cons = orthogonal_time("allgather", m, n, cons_groups, 1 << 18)
        assert t_scat < t_cons


class TestTraceGantt:
    @pytest.fixture
    def trace(self, plat):
        cost = CostModel(plat)
        g = TaskGraph()
        for i in range(4):
            g.add_task(MTask(f"s{i}", work=2e9))
        sched = fixed_group_scheduler(cost, 4).schedule(g).layered
        return simulate(g, place_layered(sched, plat.machine, consecutive()), cost)

    @staticmethod
    def rows(trace, by):
        """The chart rows below the two axis lines, without the legend."""
        return render_trace(trace, width=40, by=by, legend=False).splitlines()[2:]

    def test_by_node(self, trace, plat):
        lines = self.rows(trace, "node")
        assert len(lines) == plat.machine.num_nodes
        letters = {ch.upper() for line in lines for ch in line.split("|")[1] if ch.isalpha()}
        assert len(letters) == 4  # four concurrent tasks visible

    def test_by_core(self, trace, plat):
        assert len(self.rows(trace, "core")) == plat.machine.total_cores

    def test_empty_trace(self, plat):
        from repro.sim.trace import ExecutionTrace

        assert self.rows(ExecutionTrace(plat.machine), "node") == []
