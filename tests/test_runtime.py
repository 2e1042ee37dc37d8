"""Tests for the functional SPMD runtime."""

import numpy as np
import pytest

from repro.core import AccessMode, DistributionSpec, MTask, Parameter, TaskGraph
from repro.runtime import RuntimeContext, run_program
from repro.runtime.executor import GROUP_SIZE


def task(name, inp=(), out=(), func=None, dist="replic", elements=4, env=None):
    params = tuple(
        Parameter(v, AccessMode.IN, elements, dist=DistributionSpec(dist)) for v in inp
    ) + tuple(
        Parameter(v, AccessMode.OUT, elements, dist=DistributionSpec(dist)) for v in out
    )
    return MTask(name, params=params, func=func, meta={"env": env or {}})


class TestRunProgram:
    def test_dataflow_through_graph(self):
        g = TaskGraph()

        def double(ctx, values):
            return {"y": values["x"] * 2}

        def add_one(ctx, values):
            return {"z": values["y"] + 1}

        a = g.add_task(task("a", inp=["x"], out=["y"], func=double))
        b = g.add_task(task("b", inp=["y"], out=["z"], func=add_one))
        g.connect(a, b)
        res = run_program(g, {"x": np.arange(4.0)})
        np.testing.assert_array_equal(res["z"], np.arange(4.0) * 2 + 1)
        assert res.stats.tasks_executed == 2

    def test_missing_input_raises(self):
        g = TaskGraph()
        g.add_task(task("a", inp=["nope"], out=["y"], func=lambda c, v: {"y": v["nope"]}))
        with pytest.raises(KeyError):
            run_program(g, {})

    def test_missing_output_raises(self):
        g = TaskGraph()
        g.add_task(task("a", out=["y", "z"], func=lambda c, v: {"y": np.zeros(4)}))
        with pytest.raises(ValueError):
            run_program(g, {})

    def test_extra_output_raises(self):
        g = TaskGraph()
        g.add_task(task("a", out=["y"], func=lambda c, v: {"y": np.zeros(4), "w": np.ones(4)}))
        with pytest.raises(ValueError):
            run_program(g, {})

    def test_wrong_size_output_raises(self):
        g = TaskGraph()
        g.add_task(task("a", out=["y"], func=lambda c, v: {"y": np.zeros(7)}))
        with pytest.raises(ValueError):
            run_program(g, {})

    def test_non_dict_return_raises(self):
        g = TaskGraph()
        g.add_task(task("a", out=["y"], func=lambda c, v: np.zeros(4)))
        with pytest.raises(TypeError):
            run_program(g, {})

    def test_funcless_task_is_noop(self):
        g = TaskGraph()
        g.add_task(task("structural", inp=["x"]))
        res = run_program(g, {"x": np.ones(4)})
        assert res.stats.tasks_executed == 0

    def test_env_reaches_context(self):
        seen = {}

        def body(ctx, values):
            seen["i"] = ctx.env["i"]
            seen["q"] = ctx.group_size
            return {"y": np.zeros(4)}

        g = TaskGraph()
        g.add_task(task("a", out=["y"], func=body, env={"i": 7}))
        run_program(g, {})
        assert seen == {"i": 7, "q": GROUP_SIZE}

    def test_redistribution_accounting(self):
        g = TaskGraph()
        a = g.add_task(task("a", out=["y"], func=lambda c, v: {"y": np.arange(8.0)},
                            dist="block", elements=8))
        b = g.add_task(task("b", inp=["y"], out=["z"], func=lambda c, v: {"z": v["y"]},
                            dist="cyclic", elements=8))
        g.connect(a, b)
        res = run_program(g, {})
        # block(8,4) -> cyclic(8,4): only elements 0 and 7 keep their owner
        assert GROUP_SIZE == 4
        assert res.stats.redistributed_bytes == 6 * 8

    def test_collective_log_aggregation(self):
        def chatty(ctx, values):
            ctx.allgather(100)
            ctx.allgather(100)
            ctx.bcast(10)
            return {"y": np.zeros(4)}

        g = TaskGraph()
        g.add_task(task("a", out=["y"], func=chatty))
        res = run_program(g, {})
        assert res.stats.collective_counts() == {"allgather": 2, "bcast": 1}


class TestRuntimeContext:
    def test_counts_by_op(self):
        ctx = RuntimeContext("t", 4)
        ctx.allgather(10)
        ctx.record("allreduce", 10)
        ctx.allgather(20)
        assert ctx.counts_by_op() == {"allgather": 2, "allreduce": 1}

    def test_records_are_structured(self):
        ctx = RuntimeContext("t", 4)
        ctx.record("bcast", 50, itemsize=4)
        rec = ctx.log[0]
        assert rec.op == "bcast" and rec.total_elements == 50 and rec.itemsize == 4
