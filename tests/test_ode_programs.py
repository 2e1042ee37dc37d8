"""Tests for the solver M-task programs: structure, Table 1 counts, and
functional equivalence with the sequential solvers."""

import numpy as np
import pytest

from repro.cluster import chic
from repro.core import CostModel
from repro.ode import (
    MethodConfig,
    ODE_METHODS,
    PAPER_CONFIGS,
    bruss2d,
    build_ode_program,
    counts_from_step_graph,
    functional_step,
    integrate_functional,
    reference_solution,
    relative_error,
    schroed,
    solve_epol,
    solve_irk,
    solve_pab,
    solve_pabm,
    step_graph,
    table1_expected,
)
from repro.experiments.common import paper_group_count
from repro.runtime import run_program
from repro.scheduling import (
    LayerBasedScheduler,
    build_layers,
    contract_chains,
    fixed_group_scheduler,
)

from tests.test_ode_solvers import linear_test_problem


@pytest.fixture(scope="module")
def lin():
    return linear_test_problem(6)


@pytest.fixture(scope="module")
def cost():
    return CostModel(chic(16))


CONFIGS = {
    "epol": MethodConfig("epol", K=8),
    "irk": MethodConfig("irk", K=4, m=7),
    "diirk": MethodConfig("diirk", K=4, m=3, I=2),
    "pab": MethodConfig("pab", K=8),
    "pabm": MethodConfig("pabm", K=8, m=2),
}


class TestMethodConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MethodConfig("runge", K=2)
        with pytest.raises(ValueError):
            MethodConfig("irk", K=0)

    def test_defaults(self):
        for m in ODE_METHODS:
            cfg = PAPER_CONFIGS[m]
            assert cfg.method == m
            assert cfg.K >= 1


class TestStepGraphStructure:
    @pytest.mark.parametrize("method", ODE_METHODS)
    def test_contracted_layers_are_one_K_one(self, method, lin):
        cfg = CONFIGS[method]
        g = step_graph(lin, cfg)
        cg, _ = contract_chains(g)
        widths = [len(l) for l in build_layers(cg)]
        # start, K independent stage chains, combine/advance (+stop chain)
        assert widths[1] == cfg.K
        assert widths[0] == 1

    def test_epol_micro_step_counts(self, lin):
        cfg = CONFIGS["epol"]
        g = step_graph(lin, cfg)
        steps = [t for t in g if t.name.startswith("step")]
        R = cfg.K
        assert len(steps) == R * (R + 1) // 2

    def test_work_positive_everywhere(self, lin):
        for method in ODE_METHODS:
            g = step_graph(lin, CONFIGS[method])
            for t in g:
                if not t.meta.get("structural"):
                    assert t.work > 0, f"{method}:{t.name}"


class TestTable1:
    @pytest.mark.parametrize(
        "method,functional",
        [pytest.param(m, False, id=m) for m in ODE_METHODS]
        + [pytest.param(m, True, id=f"{m}-functional") for m in ODE_METHODS],
    )
    def test_data_parallel_counts(self, method, functional):
        """The cost graph and the executable graph both carry Table 1's
        data-parallel collectives (a schedule of either prices them)."""
        problem = schroed(64)  # dense: Table 1's DIIRK row is stated for
        cfg = CONFIGS[method]  # the dense elimination
        g = step_graph(problem, cfg, functional)
        assert counts_from_step_graph(g, groups=1) == table1_expected(
            cfg, problem.n, "dp"
        )

    @pytest.mark.parametrize("method", ODE_METHODS)
    def test_task_parallel_counts(self, method, cost):
        problem = schroed(64)
        cfg = CONFIGS[method]
        g = step_graph(problem, cfg)
        sched = fixed_group_scheduler(cost, paper_group_count(cfg)).schedule(g).layered
        assert counts_from_step_graph(g, schedule=sched) == table1_expected(
            cfg, problem.n, "tp"
        )

    def test_requires_schedule_for_tp(self, lin):
        g = step_graph(lin, CONFIGS["pab"])
        with pytest.raises(ValueError):
            counts_from_step_graph(g, groups=4)

    def test_expected_rejects_bad_version(self):
        with pytest.raises(ValueError):
            table1_expected(CONFIGS["pab"], 100, "both")


class TestFunctionalEquivalence:
    """The functional M-task programs reproduce the sequential solvers
    bit-for-bit (same arithmetic, different orchestration)."""

    def test_epol(self, lin):
        cfg = MethodConfig("epol", K=4, t_end=1.0, h=0.05)
        fi = integrate_functional(lin, cfg)
        seq = solve_epol(lin, 1.0, 0.05, R=4)
        np.testing.assert_allclose(fi.y, seq.y, rtol=0, atol=1e-14)
        assert fi.steps == seq.steps

    def test_irk(self, lin):
        cfg = MethodConfig("irk", K=3, m=5, t_end=1.0, h=0.05)
        fi = integrate_functional(lin, cfg)
        seq = solve_irk(lin, 1.0, 0.05, K=3, m=5)
        np.testing.assert_allclose(fi.y, seq.y, rtol=0, atol=1e-14)

    def test_pab(self, lin):
        cfg = MethodConfig("pab", K=4, t_end=1.0, h=0.05)
        fi = integrate_functional(lin, cfg)
        seq = solve_pab(lin, 1.0, 0.05, K=4)
        np.testing.assert_allclose(fi.y, seq.y, rtol=0, atol=1e-14)

    def test_pabm(self, lin):
        cfg = MethodConfig("pabm", K=4, m=2, t_end=1.0, h=0.05)
        fi = integrate_functional(lin, cfg)
        seq = solve_pabm(lin, 1.0, 0.05, K=4, m=2)
        np.testing.assert_allclose(fi.y, seq.y, rtol=0, atol=1e-14)

    def test_diirk_converges(self, lin):
        cfg = MethodConfig("diirk", K=2, m=6, t_end=1.0, h=0.05)
        fi = integrate_functional(lin, cfg)
        ref = reference_solution(lin, 1.0)
        assert relative_error(fi.y, ref) < 1e-5

    def test_epol_on_bruss2d(self):
        p = bruss2d(6)
        cfg = MethodConfig("epol", K=3, t_end=1.0, h=0.05)
        fi = integrate_functional(p, cfg)
        seq = solve_epol(p, 1.0, 0.05, R=3)
        np.testing.assert_allclose(fi.y, seq.y, rtol=0, atol=1e-12)

    def test_collectives_logged(self, lin):
        cfg = MethodConfig("epol", K=4, t_end=1.0, h=0.25)
        fi = integrate_functional(lin, cfg)
        # per step: R(R+1)/2 = 10 allgathers + 1 bcast, 4 steps
        assert fi.collective_counts["allgather"] == 40
        assert fi.collective_counts["bcast"] == 4


class TestSchedulingOfPrograms:
    @pytest.mark.parametrize("method", ODE_METHODS)
    def test_auto_scheduler_handles_every_method(self, method, cost, lin):
        g = step_graph(bruss2d(16), CONFIGS[method])
        sched = LayerBasedScheduler(cost).schedule(g).layered
        assert sched.num_layers >= 3
        names_scheduled = sorted(t.name for t in sched.all_original_tasks())
        assert names_scheduled == sorted(t.name for t in g)


class TestAdaptiveFunctionalEPOL:
    """The functional EPOL program keeps its step size: the step graph
    repeats identically, so ``combine`` hands ``h`` on unchanged."""

    def test_fixed_step_unchanged_without_tol(self, lin):
        cfg = MethodConfig("epol", K=4, t_end=1.0, h=0.05)
        fi = integrate_functional(lin, cfg)
        assert fi.steps == 20


class TestFunctionalTimeBound:
    """The programs loop ``while (t < Tend)`` with ``Tend = ceil(t_end)``;
    the integration also stops once ``t`` reaches ``t_end``, within the
    tolerance of the sequential solvers' ``integrate_fixed``."""

    def test_fractional_t_end_stops_there(self):
        p = bruss2d(6)
        half = integrate_functional(p, MethodConfig("irk", K=3, m=2, t_end=0.5, h=0.05))
        _, _, body, store = functional_step(p, MethodConfig("irk", K=3, m=2, t_end=1.0, h=0.05))
        for _ in range(10):
            store.update(run_program(body, store).variables)
        assert half.steps == 10 and half.t == pytest.approx(0.5, abs=1e-14)
        assert half.t == float(store["t"][0])
        assert half.y.tobytes() == store["eta"].tobytes()

    def test_integer_t_end_unchanged(self):
        full = integrate_functional(bruss2d(6), MethodConfig("irk", K=3, m=2, t_end=1.0, h=0.05))
        assert full.steps == 20 and full.t == 1.0000000000000002

    def test_step_count_matches_the_sequential_solver(self, lin):
        """Ten steps of 0.1 sum to 0.9999999999999999 < 1: the program's
        own condition would take an eleventh step to t = 1.1."""
        fi = integrate_functional(lin, MethodConfig("irk", K=3, m=5, t_end=1.0, h=0.1))
        seq = solve_irk(lin, 1.0, 0.1, K=3, m=5)
        assert fi.steps == seq.steps == 10 and fi.t == seq.t
        np.testing.assert_allclose(fi.y, seq.y, rtol=0, atol=1e-14)
