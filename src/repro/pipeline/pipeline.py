"""The instrumented scheduling→mapping→simulation pipeline.

Every experiment used to wire the stages by hand -- pick a scheduler,
branch on which artefact it returned, contract chains for the baselines,
expand placements, call the simulator -- and the ``T(M, q, mp)`` cost
model was re-evaluated from scratch at every ``g``-search probe.
:class:`SchedulingPipeline` replaces that with one composable object:

    contraction → scheduling (layer partitioning, g-search/LPT, group
    adjustment inside the scheduler) → mapping → validation → simulation

with a :class:`~repro.core.costmodel.CachedCostEvaluator` memoizing
symbolic cost probes across all stages and one
:class:`~repro.obs.Instrumentation` collecting per-stage spans, counters
and records.  The pipeline works with every
:class:`~repro.scheduling.base.Scheduler`: the layer-based algorithm,
the CPA/CPR baselines (chains are contracted in the pipeline's own
contraction stage, since those algorithms do not handle chains) and the
dynamic scheduler (whose dispatch already yields the final trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.costmodel import CachedCostEvaluator
from ..core.graph import TaskGraph
from ..core.schedule import validate as validate_schedule
from ..mapping.mapper import place_result
from ..mapping.strategies import MappingStrategy, consecutive
from ..obs import Instrumentation
from ..scheduling.base import Scheduler, SchedulingResult
from ..scheduling.chains import contract_chains
from ..sim.executor import SimulationOptions, simulate
from .result import PipelineResult

__all__ = ["SchedulingPipeline"]


@dataclass
class SchedulingPipeline:
    """Composable, observable scheduling→mapping→simulation pipeline.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.scheduling.base.Scheduler`; its ``cost`` model
        is wrapped once in a
        :class:`~repro.core.costmodel.CachedCostEvaluator`.  Schedulers
        without ``handles_contraction`` (CPA/CPR) get the
        chain-contracted graph; every schedule and placement is
        validated after the mapping stage.
    strategy:
        Mapping strategy for the physical placement stage.
    options:
        Simulation knobs (contention passes, re-distribution) and the
        one place fault options live: ``options.faults`` /
        ``options.retry`` / ``options.speculation``
        (:class:`~repro.sim.executor.SimulationOptions`) drive
        deterministic fault injection, retry costing and speculative
        straggler mitigation in the simulation stage.  When the fault
        plan carries a ``core_loss`` and the scheduler produced a
        layered schedule, a *reschedule* stage re-invokes the scheduler
        through a fresh pipeline on the reduced core count for the
        remaining layers and replaces the trace with the combined
        degraded one.  ``None`` (or a disabled plan / policy) keeps
        every stage bit-identical to the fault-free pipeline.
    simulate:
        Run the simulation stage; with ``False`` the pipeline stops
        after mapping + validation (``result.trace`` is ``None``).
    """

    scheduler: Scheduler
    strategy: MappingStrategy = field(default_factory=consecutive)
    options: SimulationOptions = field(default_factory=SimulationOptions)
    simulate: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.scheduler.cost, CachedCostEvaluator):
            self.scheduler.cost = CachedCostEvaluator(self.scheduler.cost)

    # ------------------------------------------------------------------
    @property
    def platform(self):
        return self.scheduler.cost.platform

    # ------------------------------------------------------------------
    def run(
        self, graph: TaskGraph, obs: Optional[Instrumentation] = None
    ) -> PipelineResult:
        """Run all stages on ``graph`` and return a :class:`PipelineResult`."""
        obs = obs if obs is not None else Instrumentation()
        cost = self.scheduler.cost
        options = self.options
        plan = options.faults
        if plan is not None and not plan.enabled:
            plan = None
        spec = options.speculation
        if spec is not None and not spec.enabled:
            spec = None
        reschedule = None
        with obs.span("pipeline", scheduler=self.scheduler.name):
            # -- stage: chain contraction (for chain-unaware schedulers)
            work_graph, expansion = graph, {}
            if not self.scheduler.handles_contraction:
                with obs.span("contract"):
                    work_graph, expansion = contract_chains(graph)
                obs.count("contract.chains", len(expansion))

            # -- stage: scheduling (layer partitioning, g-search, group
            #    adjustment happen inside the scheduler, on the same obs)
            result = self.scheduler.schedule(work_graph, obs)
            if expansion:
                merged = dict(result.expansion)
                merged.update({k: list(v) for k, v in expansion.items()})
                result.expansion = merged

            predicted = result.predicted_makespan(cost)
            obs.record(
                "scheduling",
                scheduler=result.scheduler,
                artefact=result.kind,
                predicted_makespan=predicted,
            )

            # -- stage: mapping
            placement = None
            if result.kind != "trace":
                with obs.span("map", strategy=self.strategy.name):
                    placement = place_result(
                        result, self.platform.machine, self.strategy
                    )

            # -- stage: validation
            with obs.span("validate"):
                self._check(result, placement, graph)

            # -- stage: simulation
            trace = result.trace
            if trace is None and self.simulate and placement is not None:
                trace = simulate(graph, placement, cost, options, obs=obs)

            # -- stage: reschedule on core loss
            if (
                plan is not None
                and plan.core_loss is not None
                and trace is not None
                and result.layered is not None
            ):
                from ..faults.reschedule import reschedule_on_core_loss

                loss = plan.core_loss
                with obs.span(
                    "reschedule", after_layer=loss.after_layer, nodes=loss.nodes
                ) as rs_span:
                    reschedule = reschedule_on_core_loss(
                        graph,
                        result.layered,
                        trace,
                        self.platform,
                        self.strategy,
                        loss,
                        scheduler=self.scheduler,
                        # the suffix keeps the injected failures but must not
                        # lose the same nodes again
                        options=replace(options, faults=replace(plan, core_loss=None)),
                        obs=obs,
                    )
                obs.observe("reschedule_seconds", rs_span.duration)
                obs.count("faults.core_losses")
                obs.record("reschedule", **reschedule.summary())
                trace = reschedule.trace

        stats = cost.stats
        obs.set_counter("cache.hits", stats.total_hits)
        obs.set_counter("cache.misses", stats.total_misses)
        obs.set_counter("cache.hit_rate", stats.hit_rate)
        obs.set_counter("cache.batched", stats.total_batched)
        obs.gauge("pipeline.predicted_makespan", predicted)
        if trace is not None:
            obs.gauge("pipeline.simulated_makespan", trace.makespan)
            obs.gauge("pipeline.utilization", trace.utilization())
        meta = {"strategy": self.strategy.name}
        if plan is not None:
            meta["faults"] = plan.to_dict()
        if spec is not None:
            meta["speculation"] = spec.to_dict()
        if reschedule is not None:
            meta["reschedule"] = reschedule.summary()
        return PipelineResult(
            graph=graph,
            scheduling=result,
            placement=placement,
            trace=trace,
            predicted_makespan=predicted,
            obs=obs,
            meta=meta,
            reschedule=reschedule,
            cost=cost,
        )

    # ------------------------------------------------------------------
    def _check(
        self,
        result: SchedulingResult,
        placement,
        graph: TaskGraph,
    ) -> None:
        if result.layered is not None:
            validate_schedule(result.layered, self.platform, graph=graph)
        elif result.timeline is not None:
            # a contracted timeline's nodes are absent from the original
            # graph, so the precedence check only applies uncontracted
            validate_schedule(
                result.timeline,
                self.platform,
                graph=None if result.expansion else graph,
            )
        if placement is not None:
            placement.validate(graph)
