"""Tests for M-tasks, parameters, collective specs and task graphs."""

import pytest

from repro.core import (
    AccessMode,
    CollectiveSpec,
    DataFlow,
    DistributionSpec,
    MTask,
    Parameter,
    TaskGraph,
)

from tests.test_graph_storage import copy_graph


def make_task(name, work=1.0, out=None, inp=None):
    params = []
    for v in inp or []:
        params.append(Parameter(v, AccessMode.IN, 10))
    for v in out or []:
        params.append(Parameter(v, AccessMode.OUT, 10))
    return MTask(name, work=work, params=tuple(params))


class TestAccessMode:
    def test_reads_writes(self):
        assert AccessMode.IN.reads and not AccessMode.IN.writes
        assert AccessMode.OUT.writes and not AccessMode.OUT.reads
        assert AccessMode.INOUT.reads and AccessMode.INOUT.writes


class TestDistributionSpec:
    def test_instantiate_kinds(self):
        assert DistributionSpec("replic").instantiate(10, 3).is_replicated
        d = DistributionSpec("block").instantiate(10, 3)
        assert d.block_size == 4
        assert DistributionSpec("cyclic").instantiate(10, 3).block_size == 1
        assert DistributionSpec("blockcyclic", 2).instantiate(10, 3).block_size == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec("weird")
        with pytest.raises(ValueError):
            DistributionSpec("blockcyclic")


class TestCollectiveSpec:
    def test_defaults(self):
        c = CollectiveSpec("allgather", 100)
        assert c.scope == "group"
        assert c.total_bytes == 800

    def test_validation(self):
        with pytest.raises(ValueError):
            CollectiveSpec("sendrecv", 10)
        with pytest.raises(ValueError):
            CollectiveSpec("bcast", -1)
        with pytest.raises(ValueError):
            CollectiveSpec("bcast", 1, itemsize=0)
        with pytest.raises(ValueError):
            CollectiveSpec("bcast", 1, count=-1)
        with pytest.raises(ValueError):
            CollectiveSpec("bcast", 1, scope="diagonal")


class TestMTask:
    def test_param_lookup(self):
        t = make_task("a", inp=["x"], out=["y"])
        assert t.param("x").mode == AccessMode.IN
        with pytest.raises(KeyError):
            t.param("z")
        assert [p.name for p in t.inputs] == ["x"]
        assert [p.name for p in t.outputs] == ["y"]

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError):
            MTask("a", params=(Parameter("x", AccessMode.IN, 1), Parameter("x", AccessMode.OUT, 1)))

    def test_moldability(self):
        t = MTask("a", min_procs=2, max_procs=8)
        assert not t.feasible_procs(1)
        assert t.feasible_procs(5)
        assert not t.feasible_procs(9)
        assert t.clamp_procs(100) == 8
        with pytest.raises(ValueError):
            t.clamp_procs(1)
        with pytest.raises(ValueError):
            MTask("b", min_procs=4, max_procs=2)
        with pytest.raises(ValueError):
            MTask("c", work=-1)

    def test_identity_semantics(self):
        a, b = MTask("same"), MTask("same")
        assert a != b
        assert len({a, b}) == 2


class TestTaskGraph:
    def test_add_and_lookup(self):
        g = TaskGraph()
        t = g.add_task(make_task("a"))
        assert list(g) == [t]
        assert t in g and make_task("b") not in g

    def test_duplicate_names_rejected(self):
        g = TaskGraph()
        g.add_task(make_task("a"))
        with pytest.raises(ValueError):
            g.add_task(make_task("a"))

    def test_connect_by_parameter_names(self):
        g = TaskGraph()
        a = make_task("a", out=["x", "q"])
        b = make_task("b", inp=["x"])
        flows = g.connect(a, b)
        assert len(flows) == 1
        assert flows[0].var == "x"
        assert g.flows(a, b)[0].elements == 10

    def test_connect_requires_match(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.connect(make_task("a", out=["x"]), make_task("b", inp=["y"]))

    def test_connect_size_mismatch(self):
        g = TaskGraph()
        a = MTask("a", params=(Parameter("x", AccessMode.OUT, 5),))
        b = MTask("b", params=(Parameter("x", AccessMode.IN, 6),))
        with pytest.raises(ValueError):
            g.connect(a, b)

    def test_cycle_rejected(self):
        g = TaskGraph()
        a, b = make_task("a"), make_task("b")
        g.add_dependency(a, b)
        with pytest.raises(ValueError):
            g.add_dependency(b, a)
        with pytest.raises(ValueError):
            g.add_dependency(a, a)

    def diamond(self):
        g = TaskGraph()
        s, t1, t2, e = (make_task(n, work=w) for n, w in
                        [("s", 1), ("t1", 2), ("t2", 5), ("e", 1)])
        g.add_dependency(s, t1)
        g.add_dependency(s, t2)
        g.add_dependency(t1, e)
        g.add_dependency(t2, e)
        return g, (s, t1, t2, e)

    def test_topology_queries(self):
        g, (s, t1, t2, e) = self.diamond()
        assert g.sinks() == (e,)
        assert set(g.successors(s)) == {t1, t2}
        assert set(g.predecessors(e)) == {t1, t2}
        order = g.topological_order()
        assert order.index(s) < order.index(t1) < order.index(e)

    def test_independence(self):
        g, (s, t1, t2, e) = self.diamond()
        assert t2 not in g.descendants(t1) and t1 not in g.descendants(t2)
        assert e in g.descendants(s)
        assert t1 not in g.descendants(t1)

    def test_ancestors_descendants(self):
        g, (s, t1, t2, e) = self.diamond()
        assert {t for t in g if e in g.descendants(t)} == {s, t1, t2}
        assert g.descendants(s) == {t1, t2, e}

    def test_critical_path(self):
        g, (s, t1, t2, e) = self.diamond()
        times = {t: t.work for t in g}
        assert g.critical_path_length(times) == pytest.approx(7.0)
        assert g.critical_path(times) == [s, t2, e]

    def test_total_work(self):
        g, _ = self.diamond()
        assert g.total_work() == pytest.approx(9.0)

    def test_copy_is_independent(self):
        g, (s, *_rest) = self.diamond()
        h = copy_graph(g)
        h.add_task(make_task("new"))
        assert len(h) == len(g) + 1

    def test_validate_flags_bad_flow(self):
        g = TaskGraph()
        a, b = make_task("a"), make_task("b")
        g.add_dependency(a, b, [DataFlow("x", 5)])
        g.validate()
        g.add_dependency(a, b, [DataFlow("y", 5, itemsize=8)])
        assert len(g.flows(a, b)) == 2

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.topological_order() == []
        assert g.critical_path_length({}) == 0.0
        assert g.critical_path({}) == []
