"""End-to-end tests of the instrumented scheduling pipeline.

The headline guarantee: for every ODE solver figure the pipeline's
simulated makespan is *identical* to the old hand-wired call chain
(schedule -> place -> simulate), layered and timeline artefacts alike.
On top of that: the memoized cost evaluator must actually pay off during
the g-search, every scheduler's output must pass validation, and the
deprecated raw-artefact accesses must fail with actionable messages.
"""

import pytest

from repro.cluster import chic, generic_cluster
from repro.core import CachedCostEvaluator, CostModel, MTask, TaskGraph, validate
from repro.core.schedule import Layer, LayeredSchedule
from repro.experiments.common import ode_pipeline, paper_group_count
from repro.mapping import consecutive, place_layered, place_timeline, scattered
from repro.obs import Instrumentation
from repro.ode import MethodConfig, schroed, step_graph
from repro.pipeline import PipelineResult, SchedulingPipeline
from repro.scheduling import (
    CPAScheduler,
    CPRScheduler,
    DynamicScheduler,
    LayerBasedScheduler,
    SCHEDULERS,
    SchedulingResult,
    contract_chains,
    data_parallel_scheduler,
    fixed_group_scheduler,
)
from repro.sim import simulate

CONFIGS = {
    "irk": MethodConfig("irk", K=4, m=3),
    "diirk": MethodConfig("diirk", K=4, m=3, I=2),
    "epol": MethodConfig("epol", K=8),
    "pab": MethodConfig("pab", K=8),
    "pabm": MethodConfig("pabm", K=8, m=2),
}


@pytest.fixture(scope="module")
def platform():
    return chic().with_cores(64)


@pytest.fixture(scope="module")
def problem():
    return schroed(64)


def small_graph():
    g = TaskGraph()
    a = g.add_task(MTask("a", work=1e9))
    b = g.add_task(MTask("b", work=2e9))
    c = g.add_task(MTask("c", work=2e9))
    d = g.add_task(MTask("d", work=1e9))
    g.add_dependency(a, b)
    g.add_dependency(a, c)
    g.add_dependency(b, d)
    g.add_dependency(c, d)
    return g


class TestPipelineMatchesManualChain:
    """Fig 13-16 equivalence: same makespans as the old call chains."""

    @pytest.mark.parametrize("method", sorted(CONFIGS))
    def test_task_parallel_ode_step(self, method, problem, platform):
        cfg = CONFIGS[method]
        # old hand-wired chain
        cost = CostModel(platform)
        graph = step_graph(problem, cfg)
        sched = fixed_group_scheduler(cost, paper_group_count(cfg)).schedule(graph)
        placement = place_layered(sched.layered, platform.machine, consecutive())
        manual = simulate(graph, placement, cost).makespan
        # pipeline
        piped = ode_pipeline(problem, cfg, platform, consecutive()).trace.makespan
        assert piped == manual

    @pytest.mark.parametrize("method", ["irk", "epol"])
    def test_data_parallel_ode_step(self, method, problem, platform):
        cfg = CONFIGS[method]
        cost = CostModel(platform)
        graph = step_graph(problem, cfg)
        sched = data_parallel_scheduler(cost).schedule(graph)
        placement = place_layered(sched.layered, platform.machine, consecutive())
        manual = simulate(graph, placement, cost).makespan
        piped = ode_pipeline(
            problem, cfg, platform, consecutive(), version="dp"
        ).trace.makespan
        assert piped == manual

    @pytest.mark.parametrize("scheduler_cls", [CPAScheduler, CPRScheduler])
    def test_timeline_schedulers_with_contraction(
        self, scheduler_cls, problem, platform
    ):
        """The pipeline's contraction stage reproduces fig13's explicit
        contract_chains + expanded-placement wiring exactly."""
        cfg = CONFIGS["epol"]
        graph = step_graph(problem, cfg)
        # old hand-wired chain
        cost = CostModel(platform)
        contracted, expansion = contract_chains(graph)
        result = scheduler_cls(cost).schedule(contracted)
        placement = place_timeline(
            result.timeline, platform.machine, consecutive(), expansion=expansion
        )
        manual = simulate(graph, placement, cost).makespan
        # pipeline
        pipe = SchedulingPipeline(scheduler_cls(CostModel(platform)))
        assert pipe.run(graph).trace.makespan == manual

    def test_strategy_is_respected(self, problem, platform):
        cfg = CONFIGS["pab"]
        res_c = ode_pipeline(problem, cfg, platform, consecutive())
        res_s = ode_pipeline(problem, cfg, platform, scattered())
        assert res_c.meta["strategy"] != res_s.meta["strategy"]
        assert res_c.trace.makespan != res_s.trace.makespan


class TestCostCachePayoff:
    def test_gsearch_hit_rate(self, problem, platform):
        """Acceptance: the g-search's Tsymb probes are answered by
        vectorized batch tables, not per-call scalar evaluations; the
        scalar cache still covers the remaining (simulation-side) calls."""
        graph = step_graph(problem, CONFIGS["pabm"])
        pipe = SchedulingPipeline(LayerBasedScheduler(CostModel(platform)))
        res = pipe.run(graph)
        assert res.cache is not None
        # batch cells far outnumber the scalar Tsymb evaluations that
        # remain (makespan prediction / simulation)
        assert res.cache.total_batched > 0
        assert res.cache.batched["tsymb"] >= 2 * res.cache.misses["tsymb"]
        # repeated scalar probes still memoize
        assert res.cache.total_hits > 0
        assert res.cache.evaluation_reduction > 1.0
        assert res.obs.counter("cache.hits") == res.cache.total_hits

    def test_cache_opt_out(self, platform):
        """There is no opting out: a bare cost model is wrapped once and
        the run reports its statistics; a cached one is not re-wrapped."""
        res = SchedulingPipeline(LayerBasedScheduler(CostModel(platform))).run(
            small_graph()
        )
        assert isinstance(res.cost, CachedCostEvaluator)
        assert res.cache is res.cost.stats and res.cache.requests > 0
        assert res.trace is not None
        cached = CachedCostEvaluator(CostModel(platform))
        pipe = SchedulingPipeline(LayerBasedScheduler(cached))
        assert pipe.scheduler.cost is cached
        assert pipe.run(small_graph()).cost is cached

    def test_cached_and_uncached_pipelines_agree(self, problem, platform):
        """The cached pipeline and the hand-wired stage chain on a bare
        cost model simulate the same makespan."""
        graph = step_graph(problem, CONFIGS["diirk"])
        on = SchedulingPipeline(LayerBasedScheduler(CostModel(platform)))
        cost = CostModel(platform)
        sched = LayerBasedScheduler(cost).schedule(graph)
        placement = place_layered(sched.layered, platform.machine, consecutive())
        off = simulate(graph, placement, cost).makespan
        assert on.run(graph).trace.makespan == off


ALL_SCHEDULERS = {
    "layer-based": lambda cost: LayerBasedScheduler(cost),
    "fixed-2": lambda cost: fixed_group_scheduler(cost, 2),
    "data-parallel": lambda cost: data_parallel_scheduler(cost),
    "cpa": lambda cost: CPAScheduler(cost),
    "cpr": lambda cost: CPRScheduler(cost),
    "dynamic": lambda cost: DynamicScheduler(cost),
}


class TestValidationStage:
    @pytest.mark.parametrize("name", sorted(ALL_SCHEDULERS))
    def test_every_scheduler_passes_validation(self, name):
        plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        pipe = SchedulingPipeline(ALL_SCHEDULERS[name](CostModel(plat)))
        res = pipe.run(small_graph())
        assert "validate" in [s.name for s in res.obs.spans]
        assert res.makespan > 0

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_every_table_scheduler_passes_validation(self, name):
        plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        kw = {"g": 2} if name == "tp" else {}
        pipe = SchedulingPipeline(SCHEDULERS[name](CostModel(plat), **kw))
        res = pipe.run(small_graph())
        assert "validate" in [s.name for s in res.obs.spans]
        assert res.makespan > 0

    def test_validate_rejects_dependents_in_one_layer(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        b = g.add_task(MTask("b", work=1e9))
        g.add_dependency(a, b)
        bad = LayeredSchedule(
            nprocs=8, layers=[Layer(groups=[[a], [b]], group_sizes=[4, 4])]
        )
        with pytest.raises(ValueError, match="share layer"):
            validate(bad, plat, graph=g)

    def test_validate_long_contracted_chain(self):
        """Every edge of a contracted chain is a same-layer edge; each is
        resolved with two lookups, not a search through the chain."""

        class ScanCountingList(list):
            """A member list that counts the passes made over it."""

            scans = 0

            def __iter__(self):
                ScanCountingList.scans += 1
                return super().__iter__()

            def __contains__(self, item):
                ScanCountingList.scans += 1
                return super().__contains__(item)

            def index(self, *args):
                ScanCountingList.scans += 1
                return super().index(*args)

        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        g = TaskGraph()
        members = [g.add_task(MTask(f"c{i}", work=1e6)) for i in range(3000)]
        for u, v in zip(members, members[1:]):
            g.add_dependency(u, v)
        stray = g.add_task(MTask("stray", work=1e6))
        node = MTask("chain", work=3e9)
        chain = ScanCountingList(members)
        sched = LayeredSchedule(
            nprocs=8,
            layers=[Layer(groups=[[node], [stray]], group_sizes=[4, 4])],
            expansion={node: chain},
        )
        validate(sched, plat, graph=g)
        # a constant number of passes over the 3 000 members (the width
        # check and the position index), not one search per chain edge
        assert 1 <= ScanCountingList.scans <= 4
        # a sideways edge out of the chain stays in the layer: still illegal
        g.add_dependency(members[1500], stray)
        with pytest.raises(ValueError, match="share layer 0 outside"):
            validate(sched, plat, graph=g)

    def test_validate_rejects_chain_order_violation(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        b = g.add_task(MTask("b", work=1e9))
        g.add_dependency(a, b)
        node = MTask("chain", work=2e9)
        bad = LayeredSchedule(
            nprocs=8,
            layers=[Layer(groups=[[node]], group_sizes=[8])],
            expansion={node: [b, a]},
        )
        with pytest.raises(ValueError, match="share layer"):
            validate(bad, plat, graph=g)

    def test_validate_rejects_min_procs_violation(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        t = MTask("wide", work=1e9, min_procs=8)
        bad = LayeredSchedule(
            nprocs=8, layers=[Layer(groups=[[t], []], group_sizes=[4, 4])]
        )
        with pytest.raises(ValueError, match="needs >= 8"):
            validate(bad, plat)

    def test_validate_rejects_backwards_edge(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        b = g.add_task(MTask("b", work=1e9))
        g.add_dependency(a, b)
        bad = LayeredSchedule(
            nprocs=8,
            layers=[
                Layer(groups=[[b]], group_sizes=[8]),
                Layer(groups=[[a]], group_sizes=[8]),
            ],
        )
        with pytest.raises(ValueError, match="precedence"):
            validate(bad, plat, graph=g)

    @pytest.mark.parametrize("sizes", [[300, -44], [256, 0]])
    def test_validate_rejects_a_size_that_is_not_positive(self, sizes):
        """Sizes changed after construction can sum to the core count and
        still not partition it: ``[300, -44]`` holds a group wider than
        the platform, ``[256, 0]`` an empty one."""
        plat = chic().with_cores(256)
        a, b = MTask("a", work=1e9), MTask("b", work=1e9)
        layer = Layer(groups=[[a, b], []], group_sizes=[128, 128])
        sched = LayeredSchedule(nprocs=256, layers=[layer])
        validate(sched, plat)
        layer.group_sizes = sizes
        with pytest.raises(ValueError, match="must all be positive"):
            validate(sched, plat)

    def test_validate_rejects_wrong_core_count(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        sched = LayeredSchedule(nprocs=4, layers=[])
        with pytest.raises(ValueError, match="4"):
            validate(sched, plat)


class TestMisuseGuards:
    def res(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        return LayerBasedScheduler(CostModel(plat)).schedule(small_graph())

    def test_core_validate_rejects_result(self):
        plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
        with pytest.raises(TypeError, match="SchedulingResult"):
            validate(self.res(), plat)

    def test_result_requires_exactly_one_artefact(self):
        with pytest.raises(ValueError):
            SchedulingResult(nprocs=8)
        lay = self.res().layered
        from repro.core.schedule import Schedule

        with pytest.raises(ValueError):
            SchedulingResult(nprocs=8, layered=lay, timeline=Schedule(8))
        # a layered result is priced from its table's rows
        with pytest.raises(ValueError, match="needs its TaskTable"):
            SchedulingResult(nprocs=8, layered=lay)


class TestPipelineResult:
    def test_diagnostics_and_export(self, problem, platform):
        obs = Instrumentation()
        res = ode_pipeline(problem, CONFIGS["irk"], platform, consecutive(), obs=obs)
        assert res.obs is obs
        names = [s.name for s in obs.spans]
        for stage in ("pipeline", "schedule", "map", "validate", "simulate"):
            assert stage in names, f"missing span {stage}"
        stages = res.stage_seconds()
        assert {"schedule", "map", "validate", "simulate"} <= set(stages)
        assert obs.records_of("scheduling")
        assert "cache" in res.report()

    def test_dynamic_scheduler_yields_trace_kind(self):
        plat = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        res = SchedulingPipeline(DynamicScheduler(CostModel(plat))).run(small_graph())
        assert res.scheduling.kind == "trace"
        assert res.placement is None
        assert res.trace is not None and res.trace.makespan > 0

    def test_simulate_false_stops_after_mapping(self, platform):
        pipe = SchedulingPipeline(
            LayerBasedScheduler(CostModel(platform)), simulate=False
        )
        res = pipe.run(small_graph())
        assert res.trace is None
        assert res.placement is not None
        assert res.makespan == res.predicted_makespan > 0

    def test_run_pipeline_convenience(self, platform):
        res = SchedulingPipeline(LayerBasedScheduler(CostModel(platform))).run(
            small_graph()
        )
        assert isinstance(res, PipelineResult)
        assert res.trace.makespan > 0

    def test_predicted_vs_simulated_same_order(self, problem, platform):
        res = ode_pipeline(problem, CONFIGS["pab"], platform, consecutive())
        assert res.predicted_makespan > 0
