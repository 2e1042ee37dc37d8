"""Tests for the experiment harness helpers."""

import pytest

from repro.cluster import generic_cluster
from repro.core import CostModel
from repro.experiments.common import (
    ExperimentResult,
    Series,
    paper_group_count,
    sequential_step_time,
    simulate_ode_step,
)
from repro.mapping import consecutive
from repro.ode import MethodConfig, step_graph

from tests.test_experiment_shapes import best_label_at, min_index
from tests.test_ode_solvers import linear_test_problem


@pytest.fixture(scope="module")
def problem():
    return linear_test_problem(64)


@pytest.fixture(scope="module")
def plat():
    return generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)


class TestHelpers:
    def test_paper_group_counts(self):
        assert paper_group_count(MethodConfig("epol", K=8)) == 4
        assert paper_group_count(MethodConfig("irk", K=4, m=3)) == 4
        assert paper_group_count(MethodConfig("pabm", K=8, m=2)) == 8

    def test_sequential_step_time_excludes_structural(self, problem, plat):
        cost = CostModel(plat)
        graph = step_graph(problem, MethodConfig("pab", K=4))
        t = sequential_step_time(graph, cost)
        direct = sum(
            cost.sequential_time(x) for x in graph if not x.meta.get("structural")
        )
        assert t == pytest.approx(direct)
        assert t > 0

    def test_simulate_ode_step_versions(self, problem, plat):
        cfg = MethodConfig("pab", K=4)
        tp = simulate_ode_step(problem, cfg, plat, consecutive(), "tp")
        dp = simulate_ode_step(problem, cfg, plat, consecutive(), "dp")
        assert tp.makespan > 0 and dp.makespan > 0
        with pytest.raises(ValueError):
            simulate_ode_step(problem, cfg, plat, consecutive(), "sideways")

    def test_simulate_ode_step_custom_groups(self, problem, plat):
        cfg = MethodConfig("pab", K=4)
        t2 = simulate_ode_step(problem, cfg, plat, consecutive(), "tp", groups=2)
        assert t2.makespan > 0

    def test_series_min_index(self):
        s = Series("a", [3.0, 1.0, 2.0])
        assert min_index(s) == 1

    def test_best_label_modes(self):
        res = ExperimentResult(title="t", xlabel="x", x=[1])
        res.add("slow", [2.0])
        res.add("fast", [1.0])
        assert best_label_at(res, 0) == "fast"
        assert best_label_at(res, 0, higher_is_better=True) == "slow"

    def test_table_str_contains_everything(self):
        res = ExperimentResult(title="My Title", xlabel="cores", x=[8, 16])
        res.add("only", [0.5, 0.25])
        text = res.table_str()
        assert "My Title" in text and "only" in text and "16" in text
