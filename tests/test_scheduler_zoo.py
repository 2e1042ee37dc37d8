"""Property and regression tests of the shoot-out scheduler zoo.

The competitor schedulers (AMTHA, moldable dual approximation) must
produce :func:`repro.core.schedule.validate`-clean results on random
moldable DAGs and on every adversarial scenario, and the paper's
g-search must never be beaten by more than the documented tripwire
factor on its home ODE workloads.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import generic_cluster
from repro.cluster.platforms import chic
from repro.core import CollectiveSpec, CostModel, MTask, TaskGraph
from repro.core.schedule import validate
from repro.experiments.shootout import ZOO
from repro.graphs import REGIMES, adversarial_suite
from repro.ode import MethodConfig, bruss2d, step_graph
from repro.pipeline import SchedulingPipeline
from repro.sim.executor import SimulationOptions
from repro.scheduling import SCHEDULERS, AMTHAScheduler, MoldableLayerScheduler

#: the documented tripwire: on home ODE workloads g-search may lose to a
#: zoo competitor by at most this factor (measured headroom: g-search
#: currently never loses at all; see EXPERIMENTS.md)
GSEARCH_TRIPWIRE_FACTOR = 1.1


@st.composite
def moldable_dag(draw):
    """A random layered DAG of 2..10 moldable tasks with bounds."""
    n = draw(st.integers(2, 10))
    tasks = []
    g = TaskGraph()
    for i in range(n):
        work = draw(st.floats(1e6, 1e9))
        min_p = draw(st.integers(1, 4))
        max_p = draw(st.one_of(st.none(), st.integers(min_p, 16)))
        comm = (
            (CollectiveSpec("allgather", draw(st.integers(1, 50_000))),)
            if draw(st.booleans())
            else ()
        )
        t = MTask(f"t{i}", work=work, comm=comm, min_procs=min_p, max_procs=max_p)
        g.add_task(t)
        tasks.append(t)
    for j in range(1, n):
        npred = draw(st.integers(0, min(3, j)))
        preds = draw(
            st.lists(
                st.integers(0, j - 1), min_size=npred, max_size=npred, unique=True
            )
        )
        for p in preds:
            g.add_dependency(tasks[p], tasks[j])
    return g


@pytest.fixture(scope="module")
def plat():
    """16 symbolic cores, enough for every generated ``min_procs``."""
    return generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)


class TestZooProperties:
    """Hypothesis sweep: both competitors stay validate()-clean."""

    @given(g=moldable_dag())
    @settings(max_examples=25, deadline=None)
    def test_amtha_validates_on_random_dags(self, g):
        plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        result = AMTHAScheduler(CostModel(plat)).schedule(g)
        validate(result.timeline, plat, g)
        assert set(result.allocation) == set(g)

    @given(g=moldable_dag())
    @settings(max_examples=25, deadline=None)
    def test_moldable_validates_on_random_dags(self, g):
        plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        result = MoldableLayerScheduler(CostModel(plat)).schedule(g)
        validate(result.timeline, plat, g)
        assert set(result.allocation) == set(g)

    @given(g=moldable_dag())
    @settings(max_examples=15, deadline=None)
    def test_allotments_respect_moldability_bounds(self, g):
        plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        for scheduler in (
            AMTHAScheduler(CostModel(plat)),
            MoldableLayerScheduler(CostModel(plat)),
        ):
            result = scheduler.schedule(g)
            for t, q in result.allocation.items():
                assert t.min_procs <= q
                assert q <= (t.max_procs or plat.total_cores)


class TestZooOnAdversarialSuite:
    """Every zoo scheduler survives every (non-scale) adversarial
    scenario through the full pipeline; the scale regime is covered by
    the shoot-out harness itself."""

    @pytest.fixture(scope="class")
    def suite(self):
        suite = adversarial_suite(0, quick=True)
        suite.pop("scale")
        return suite

    @pytest.mark.parametrize("name", list(ZOO))
    def test_scheduler_survives_suite(self, name, suite):
        from repro.faults import parse_faults_spec

        for scenarios in suite.values():
            for scenario in scenarios:
                cost = CostModel(scenario.platform_obj())
                faults = (
                    parse_faults_spec(scenario.fault_spec)
                    if scenario.fault_spec
                    else None
                )
                assert not scenario.big  # CPA runs at its default granularity
                pipe = SchedulingPipeline(
                    SCHEDULERS[name](cost),
                    options=SimulationOptions(faults=faults),
                )
                result = pipe.run(scenario.graph)
                assert math.isfinite(result.trace.makespan), scenario.name
                assert result.trace.makespan >= 0.0, scenario.name

    def test_suite_is_deterministic(self):
        a = adversarial_suite(3, quick=True)
        b = adversarial_suite(3, quick=True)
        for regime in a:
            names_a = [s.name for s in a[regime]]
            names_b = [s.name for s in b[regime]]
            assert names_a == names_b
            for sa, sb in zip(a[regime], b[regime]):
                assert len(sa.graph) == len(sb.graph)
                assert sorted(t.name for t in sa.graph) == sorted(
                    t.name for t in sb.graph
                )

    def test_suite_covers_every_regime(self):
        suite = adversarial_suite(0, quick=True)
        assert set(suite) == set(REGIMES)
        assert all(suite[r] for r in REGIMES)


class TestGsearchTripwire:
    """Regression tripwire: on home ODE workloads the paper's g-search
    must never lose to a zoo competitor by more than
    :data:`GSEARCH_TRIPWIRE_FACTOR`."""

    @pytest.mark.parametrize(
        "method,kwargs,cores",
        [("irk", dict(K=4, m=3), 64), ("pab", dict(K=8), 32)],
    )
    def test_gsearch_not_beaten_on_home_workloads(self, method, kwargs, cores):
        g = step_graph(bruss2d(120), MethodConfig(method, **kwargs))
        plat = chic().with_cores(cores)
        spans = {}
        for name in ZOO:
            result = SchedulingPipeline(SCHEDULERS[name](CostModel(plat))).run(g)
            spans[name] = result.trace.makespan
        best_other = min(v for k, v in spans.items() if k != "gsearch")
        assert spans["gsearch"] <= best_other * GSEARCH_TRIPWIRE_FACTOR, spans
