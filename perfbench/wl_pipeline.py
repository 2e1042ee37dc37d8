"""The two in-process pipeline workloads: ``ode-pipeline`` and ``dag-scale``.

Both time the same operation -- build a task graph, then one
``SchedulingPipeline.run`` on a fresh cost evaluator -- on inputs chosen
to load opposite halves of the pipeline:

* ``ode-pipeline`` is the paper's own evaluation (five solver steps on
  BRUSS2D, CHiC with 256 cores).  Graphs have 11-39 tasks, so the
  scheduler is idle (1-3 ms) and the simulator's re-distribution pricing
  (``sim`` -> ``comm`` -> ``distribution``) does most of the work.
* ``dag-scale`` is its mirror image: synthetic graphs of thousands of
  tasks, simulation off, so graph construction, chain contraction,
  layering, the g-probe loop, mapping and validation do all the work.
  ``layered`` and ``chain`` use the scheduler in opposite ways (wide
  layers and many probes vs. one layer and everything in contraction and
  validation), so a g-search gain that costs the contraction path shows.

The traced run re-executes each operation stage by stage from here --
the program gets no new span or switch -- and hands ``schedule`` /
``simulate`` a timing proxy as their ``cost`` argument.
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc
from typing import Any, Dict, List, Sequence

import check
from harness import Tracer, Workload, lower_quartile, peak_rss_mb, timed_sweeps

CORES = 256

#: traced stages that make up ``SchedulingPipeline.run`` (name -> metric)
RUN_STAGES = {
    "scheduling.schedule": "scheduling.schedule_ms",
    "scheduling.predict": "scheduling.predict_ms",
    "mapping.place": "mapping.place_ms",
    "core.validate": "core.validate_ms",
    "sim.simulate": "sim.simulate_ms",
}
#: stage replays that split a stage further (outside the traced operation)
REPLAY_STAGES = {
    "scheduling.contract": "scheduling.contract_ms",
    "scheduling.layers": "scheduling.layers_ms",
    "scheduling.gsearch": "scheduling.gsearch_ms",
    "core.graph.build": "core.graph.build_ms",
    "distribution.transfer_counts": "distribution.transfer_counts_ms",
}


class CostProxy:
    """Benchmark-side timing proxy around a ``CostModel``.

    Sits *inside* the pipeline's ``CachedCostEvaluator`` (as the wrapped
    model), so it sees and times exactly the real evaluations -- cache
    hits never reach it.  Everything not timed delegates untouched.
    """

    TIMED = ("tsymb_table", "tcomp_mapped", "tcomm_mapped", "redistribution_time")

    def __init__(self, model) -> None:
        self.model = model
        self.seconds: Dict[str, float] = dict.fromkeys(self.TIMED, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(self.TIMED, 0)
        #: arguments of every real re-distribution evaluation, for replay
        self.redistributions: List[tuple] = []

    def _timed(self, name: str, *args):
        t0 = time.perf_counter()
        try:
            return getattr(self.model, name)(*args)
        finally:
            self.seconds[name] += time.perf_counter() - t0
            self.calls[name] += 1

    def tsymb_table(self, tasks, widths):
        return self._timed("tsymb_table", tasks, widths)

    def tcomp_mapped(self, task, cores):
        return self._timed("tcomp_mapped", task, cores)

    def tcomm_mapped(self, task, cores, ctx=None, peer_groups=None, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.model.tcomm_mapped(task, cores, ctx, peer_groups, **kwargs)
        finally:
            self.seconds["tcomm_mapped"] += time.perf_counter() - t0
            self.calls["tcomm_mapped"] += 1

    def redistribution_time(self, flows, src_cores, dst_cores):
        self.redistributions.append((flows, src_cores, dst_cores))
        return self._timed("redistribution_time", flows, src_cores, dst_cores)

    def __getattr__(self, name: str):
        return getattr(self.model, name)


class PipelineWorkload(Workload):
    """Shared machinery; the two subclasses supply cases and inputs."""

    name = ""
    simulate = True
    #: span name / layer of the graph-producing call
    graph_span = ""
    cases: Sequence[str] = ()

    # -- supplied by subclasses ----------------------------------------
    def configure(self, seed: int, quick: bool) -> None:
        raise NotImplementedError

    def make_graph(self, case: str):
        raise NotImplementedError

    def make_scheduler(self, case: str, cost):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def setup(self, seed: int, quick: bool) -> None:
        from repro.cluster import chic

        self.seed, self.quick = seed, quick
        self.platform = chic().with_cores(CORES)
        self.configure(seed, quick)
        order = list(self.cases)
        random.Random(seed).shuffle(order)
        self.order = order
        self.expected = check.expected_facts(self.name, seed, quick)
        #: per case (messages, bytes) of its re-distributions, traced run only
        self._message_counts: Dict[str, tuple] = {}
        for case in self.order:  # warm-up: imports, code paths, allocator
            self._verify(case, self._operation(case))
        self.forget_clean_setup()

    # ------------------------------------------------------------------
    def _run(self, case: str, graph):
        """One ``SchedulingPipeline.run`` on a fresh cost evaluator."""
        from repro.core import CostModel
        from repro.pipeline import SchedulingPipeline

        scheduler = self.make_scheduler(case, CostModel(self.platform))
        return SchedulingPipeline(scheduler, simulate=self.simulate).run(graph)

    def _operation(self, case: str):
        graph = self.make_graph(case)
        return graph, self._run(case, graph)

    def _facts(self, case: str, graph, result) -> Dict[str, Any]:
        stats = result.scheduling.stats
        return {
            f"{case}.makespan": check.fact(float(result.makespan)),
            f"{case}.tasks": len(graph),
            f"{case}.layers": int(stats["layers"]),
            f"{case}.gsearch_probes": int(stats["gsearch_probes"]),
            f"{case}.contracted_chains": int(stats["contracted_chains"]),
        }

    def _verify(self, case: str, outcome) -> None:
        graph, result = outcome
        problems = check.check_schedule(
            result, self.platform, graph, result.cost, result.makespan
        )
        facts = self._facts(case, graph, result)
        if not all(k in self.facts for k in facts):
            problems += check.compare_facts(facts, self.expected)
            self.facts.update(facts)
        else:  # the operation is deterministic: every repeat must agree
            problems += check.compare_facts(facts, self.facts)
        self.record(case, problems)

    def pinned_facts(self, seed: int) -> Dict[str, Any]:
        from repro.cluster import chic

        self.platform = chic().with_cores(CORES)
        self.configure(seed, quick=False)
        out: Dict[str, Any] = {}
        for case in self.cases:
            out.update(self._facts(case, *self._operation(case)))
        return out

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, Any]:
        loop = timed_sweeps(self.order, self._operation, seconds, verify=self._verify)
        return {
            **loop,
            **self.tally(),
            "ops_per_sweep": len(self.order),
            "callers": 1,
            "peak_rss_mb": peak_rss_mb(),
        }

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer) -> Dict[str, Any]:
        one_call: Dict[str, List[float]] = {c: [] for c in self.order}
        run_ms: Dict[str, List[float]] = {c: [] for c in self.order}
        analysis_ms: Dict[str, List[float]] = {c: [] for c in self.order}
        counts: Dict[str, Dict[str, float]] = {}
        heap_mb = 0.0
        deadline = time.perf_counter() + seconds
        sweeps = 0
        while True:
            for case in self.order:
                first = sweeps == 0
                if first:  # what the graph alone holds on the Python heap
                    gc.collect()
                    tracemalloc.start()
                    graph = self.make_graph(case)
                    heap_mb += tracemalloc.get_traced_memory()[0] / 2**20
                    tracemalloc.stop()
                    del graph
                self._one_call(case, one_call, run_ms, analysis_ms)
                counts[case] = self._staged(case, tracer, first)
            sweeps += 1
            if time.perf_counter() >= deadline or (self.quick and sweeps >= 2):
                break
        return self._per_layer(
            tracer, one_call, run_ms, analysis_ms, counts, heap_mb, sweeps
        )

    def _one_call(self, case, one_call, run_ms, analysis_ms) -> None:
        """The operation exactly as the timed run performs it."""
        gc.collect()
        t0 = time.perf_counter()
        graph = self.make_graph(case)
        t1 = time.perf_counter()
        result = self._run(case, graph)
        t2 = time.perf_counter()
        one_call[case].append((t2 - t0) * 1e3)
        run_ms[case].append((t2 - t1) * 1e3)
        if self.simulate:
            t3 = time.perf_counter()
            result.analysis()
            result.metrics()
            analysis_ms[case].append((time.perf_counter() - t3) * 1e3)
        self._verify(case, (graph, result))
        self._reference_makespan = result.makespan

    def _staged(self, case: str, tracer: Tracer, first: bool) -> Dict[str, float]:
        """The same operation, stage by stage, one span per call."""
        from repro.core import CachedCostEvaluator, CostModel
        from repro.core.graph import TaskGraph
        from repro.core.schedule import validate
        from repro.comm.redistribution import redistribution_messages
        from repro.distribution import transfer_counts
        from repro.mapping import consecutive, place_result
        from repro.obs import Instrumentation
        from repro.scheduling import build_layers, contract_chains
        from repro.sim.executor import SimulationOptions, simulate

        gc.collect()
        tracer.begin_op(case)
        proxy = CostProxy(CostModel(self.platform))
        cost = CachedCostEvaluator(proxy)
        obs = Instrumentation()
        with tracer.span("op", "perfbench"):
            with tracer.span(self.graph_span, self.graph_span.rsplit(".", 1)[0]):
                graph = self.make_graph(case)
            scheduler = self.make_scheduler(case, cost)
            with tracer.span("scheduling.schedule", "scheduling"):
                result = scheduler.schedule(graph, obs)
                tracer.add("core.cost.tsymb_table", "core.cost", proxy.seconds["tsymb_table"])
            with tracer.span("scheduling.predict", "scheduling"):
                makespan = result.predicted_makespan(cost)
            with tracer.span("mapping.place", "mapping"):
                placement = place_result(result, self.platform.machine, consecutive())
            with tracer.span("core.validate", "core.schedule"):
                validate(result.layered, self.platform, graph=graph)
                placement.validate(graph)
            if self.simulate:
                with tracer.span("sim.simulate", "sim"):
                    sim_trace = simulate(graph, placement, cost, SimulationOptions(), obs=obs)
                    tracer.add(
                        "comm.redistribution", "comm", proxy.seconds["redistribution_time"]
                    )
                    tracer.add(
                        "core.cost.time_mapped", "core.cost",
                        proxy.seconds["tcomp_mapped"] + proxy.seconds["tcomm_mapped"],
                    )
                makespan = sim_trace.makespan
        self.record(
            f"{case} staged",
            [] if makespan == self._reference_makespan else [
                f"makespan {makespan!r} differs from the one-call "
                f"makespan {self._reference_makespan!r}"
            ],
        )

        pairs = []
        for flows, src, dst in proxy.redistributions:
            for f in flows:
                pairs.append(
                    (
                        f.src_dist.instantiate(f.elements, len(src)),
                        f.dst_dist.instantiate(f.elements, len(dst)),
                        src, dst, f.itemsize,
                    )
                )
        with tracer.span("replay", "perfbench"):
            with tracer.span("scheduling.contract", "scheduling"):
                work_graph, _expansion = contract_chains(graph)
            with tracer.span("scheduling.layers", "scheduling"):
                raw_layers = build_layers(work_graph)
            fresh = self.make_scheduler(case, CachedCostEvaluator(CostModel(self.platform)))
            with tracer.span("scheduling.gsearch", "scheduling"):
                for tasks in raw_layers:
                    fresh.schedule_layer(tasks)
            with tracer.span("core.graph.build", "core.graph"):
                rebuilt = TaskGraph("perfbench/rebuild")
                rebuilt.add_tasks(graph)
                rebuilt.add_edges_bulk(graph.edges())
            with tracer.span("distribution.transfer_counts", "distribution"):
                for sd, dd, _src, _dst, _item in pairs:
                    transfer_counts(sd, dd)

        stats = cost.stats
        out = {
            "core.graph.tasks": len(graph),
            "core.graph.edges": graph.num_edges,
            "scheduling.layers": result.stats["layers"],
            "scheduling.contracted_chains": result.stats["contracted_chains"],
            "scheduling.gsearch_probes": result.stats["gsearch_probes"],
            "core.cost.batched_cells": stats.total_batched,
            "core.cost.evaluations": stats.total_misses,
            "core.cost.requests": stats.requests,
            "core.cost.time_mapped_calls": proxy.calls["tcomp_mapped"] + proxy.calls["tcomm_mapped"],
            "sim.passes": obs.counter("sim.passes"),
            "comm.redistribution_calls": proxy.calls["redistribution_time"],
            "distribution.pairs": len(pairs),
            "distribution.distinct_pairs": len({(sd, dd) for sd, dd, *_ in pairs}),
            "pipeline.makespan_s": makespan,
        }
        if first:  # deterministic; one replay is enough
            messages = [
                redistribution_messages(src, dst, sd, dd, item)
                for sd, dd, src, dst, item in pairs
            ]
            self._message_counts[case] = (
                sum(len(m) for m in messages),
                sum(sum(m.values()) for m in messages),
            )
        out["comm.redistribution_messages"], out["comm.redistribution_bytes"] = (
            self._message_counts[case]
        )
        return out

    def _per_layer(
        self, tracer, one_call, run_ms, analysis_ms, counts, heap_mb, sweeps
    ) -> Dict[str, Any]:
        def stage(name: str, case: str) -> float:
            samples = tracer.durations_ms(name, case)
            return lower_quartile(samples) if samples else 0.0

        def total(name: str) -> float:
            return sum(stage(name, c) for c in self.order)

        def count(name: str) -> float:
            return float(sum(counts[c][name] for c in self.order))

        metrics: Dict[str, float] = {}
        table: Dict[str, Dict[str, float]] = {}
        gap = 0.0
        for case in self.order:
            whole = lower_quartile(one_call[case])
            row = {"one_call_ms": whole, "run_ms": lower_quartile(run_ms[case])}
            row[self.graph_span] = stage(self.graph_span, case)
            for name in list(RUN_STAGES) + list(REPLAY_STAGES):
                row[name] = stage(name, case)
            attributed = row[self.graph_span] + sum(row[s] for s in RUN_STAGES)
            row["attributed_ms"] = attributed
            gap = max(gap, abs(whole - attributed) / whole)
            table[case] = row
            metrics[f"case.{case}.p25_ms"] = whole

        metrics[f"{self.graph_span}_ms"] = total(self.graph_span)
        for name, metric in {**RUN_STAGES, **REPLAY_STAGES}.items():
            metrics[metric] = total(name)
        metrics["scheduling.assembly_ms"] = metrics["scheduling.schedule_ms"] - (
            metrics["scheduling.contract_ms"]
            + metrics["scheduling.layers_ms"]
            + metrics["scheduling.gsearch_ms"]
        )
        metrics["core.cost.tsymb_table_ms"] = total("core.cost.tsymb_table")
        metrics["core.cost.time_mapped_ms"] = total("core.cost.time_mapped")
        metrics["comm.redistribution_ms"] = total("comm.redistribution")
        metrics["sim.self_ms"] = metrics["sim.simulate_ms"] - (
            metrics["comm.redistribution_ms"] + metrics["core.cost.time_mapped_ms"]
        )
        for name in (
            "core.graph.tasks", "core.graph.edges", "scheduling.layers",
            "scheduling.contracted_chains", "scheduling.gsearch_probes",
            "core.cost.batched_cells", "core.cost.evaluations",
            "core.cost.time_mapped_calls", "sim.passes",
            "comm.redistribution_calls", "comm.redistribution_messages",
            "comm.redistribution_bytes", "distribution.pairs",
            "distribution.distinct_pairs", "pipeline.makespan_s",
        ):
            metrics[name] = count(name)
        requests = count("core.cost.requests")
        metrics["core.cost.hit_rate"] = (
            (requests - metrics["core.cost.evaluations"]) / requests if requests else 0.0
        )
        metrics["scheduling.probes_per_layer"] = (
            metrics["scheduling.gsearch_probes"] / metrics["scheduling.layers"]
        )
        metrics["scheduling.tasks_per_s"] = (
            metrics["core.graph.tasks"] / (metrics["scheduling.schedule_ms"] / 1e3)
        )
        metrics["core.graph.heap_mb"] = heap_mb
        run_total = sum(lower_quartile(run_ms[c]) for c in self.order)
        metrics["pipeline.overhead_ms"] = run_total - sum(
            metrics[m] for m in RUN_STAGES.values()
        )
        if self.simulate:
            metrics["obs.analysis_ms"] = sum(lower_quartile(analysis_ms[c]) for c in self.order)
        else:  # the simulator and everything below it stayed idle
            for name in list(metrics):
                if name.startswith(("sim.", "comm.", "distribution.", "core.cost.time_mapped")):
                    del metrics[name]
        untraced = sum(lower_quartile(one_call[c]) for c in self.order)
        metrics["trace.overhead_share"] = (total("op") - untraced) / untraced
        metrics["trace.attribution_gap_share"] = gap
        metrics["trace.spans"] = float(len(tracer.spans))
        return {
            **self.tally(),
            "per_layer": metrics,
            "cases": table,
            "sweeps": sweeps,
        }


# ----------------------------------------------------------------------
class OdePipeline(PipelineWorkload):
    """The paper's five solver steps on BRUSS2D, CHiC with 256 cores."""

    name = "ode-pipeline"
    simulate = True
    graph_span = "ode.step_graph"
    cases = ("irk", "diirk", "epol", "pab", "pabm")

    def configure(self, seed: int, quick: bool) -> None:
        from repro.ode import MethodConfig

        self.cfgs = {
            "irk": MethodConfig("irk", K=4, m=7),
            "diirk": MethodConfig("diirk", K=4, m=3, I=2),
            "epol": MethodConfig("epol", K=8),
            "pab": MethodConfig("pab", K=8),
            "pabm": MethodConfig("pabm", K=8, m=2),
        }
        # The solver set is the paper's and stays fixed.  The seed moves
        # the grid size by at most 0.4 % (an operation's cost follows the
        # element count) and shuffles the order of the cases in a sweep.
        base = 60 if quick else 500
        self.grid = base + random.Random(seed).randint(-2, 2)

    def make_graph(self, case: str):
        from repro.ode import bruss2d, step_graph

        return step_graph(bruss2d(self.grid), self.cfgs[case])

    def make_scheduler(self, case: str, cost):
        from repro.experiments.common import paper_group_count
        from repro.scheduling import fixed_group_scheduler

        return fixed_group_scheduler(cost, paper_group_count(self.cfgs[case]))

    def sizes(self) -> Dict[str, Any]:
        return {"bruss2d_grid": self.grid, "cores": CORES, "cases": list(self.order)}


class DagScale(PipelineWorkload):
    """Synthetic DAG families at a few thousand tasks, simulation off."""

    name = "dag-scale"
    simulate = False
    graph_span = "graphs.synthesize"
    cases = ("chain", "forkjoin", "layered", "random")

    def configure(self, seed: int, quick: bool) -> None:
        # n = 2000 keeps a sweep near 1.2 s, so a run of a few seconds
        # still holds enough sweeps for a median.
        self.n = 300 if quick else 2000
        self.graph_seed = seed

    def make_graph(self, case: str):
        from repro.graphs import synthesize

        return synthesize(case, self.n, seed=self.graph_seed)

    def make_scheduler(self, case: str, cost):
        from repro.scheduling import LayerBasedScheduler

        return LayerBasedScheduler(cost)

    def sizes(self) -> Dict[str, Any]:
        return {"tasks_per_graph": self.n, "cores": CORES, "cases": list(self.order)}
