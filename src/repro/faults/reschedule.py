"""Rescheduling the remaining layers after a permanent core loss.

When a :class:`~repro.faults.plan.CoreLoss` strikes between two layers of
a layered schedule, the layers already executed keep their trace, but
every remaining layer must be re-planned: the scheduler is re-invoked
through a fresh :class:`~repro.pipeline.SchedulingPipeline` on the
reduced symbolic core count, the mapping strategy re-pins the groups to
the surviving nodes, and the simulator predicts the degraded makespan of
the combined prefix + suffix execution.  The functional runtime can then
re-execute with the merged group sizes (:meth:`RescheduleOutcome.group_sizes`).

The split is expressed entirely in terms of existing artefacts -- no
scheduler grows a special fault mode:

* the *prefix* is the already-simulated trace of layers ``< after_layer``;
* the *suffix* is a sub-:class:`~repro.core.graph.TaskGraph` of the
  remaining (expanded) tasks with the original data flows, scheduled on
  ``platform.with_cores(P - lost_nodes * cores_per_node)``;
* the combined trace lives on the *original* machine: the reduced
  platform is a node prefix (``Machine.subset``), so every surviving
  core id stays valid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.costmodel import CachedCostEvaluator, CostModel
from ..core.graph import TaskGraph
from ..core.schedule import LayeredSchedule
from ..core.task import MTask
from ..obs import Instrumentation
from ..sim.trace import ExecutionTrace
from .plan import CoreLoss

__all__ = [
    "RescheduleOutcome",
    "reschedule_on_core_loss",
    "cluster_loss_handler",
]


@dataclass
class RescheduleOutcome:
    """Everything a core-loss recovery produced."""

    #: combined degraded trace (prefix entries + shifted suffix entries),
    #: on the original machine
    trace: ExecutionTrace
    loss: CoreLoss
    #: layer index the split happened at (clamped to the layer count)
    cut: int
    #: the platform the suffix was re-scheduled on
    reduced_platform: object
    #: finish time of the prefix (the suffix starts here)
    prefix_makespan: float
    #: the original layered schedule the prefix ran under
    original_layered: LayeredSchedule
    #: full pipeline result of the suffix re-schedule (``None`` when the
    #: loss struck after the last layer and nothing needed re-planning)
    suffix: Optional[object] = None

    @property
    def degraded_makespan(self) -> float:
        return self.trace.makespan

    @property
    def rescheduled(self) -> bool:
        return self.suffix is not None

    def group_sizes(self) -> Dict[MTask, int]:
        """Per-task group sizes of the degraded run (prefix sizes from the
        original schedule, suffix sizes from the re-schedule's placement),
        ready for :func:`~repro.runtime.executor.run_program`."""
        sizes: Dict[MTask, int] = {}
        for layer in self.original_layered.layers[: self.cut]:
            for gi, tasks in enumerate(layer.groups):
                width = layer.group_sizes[gi]
                for t in tasks:
                    for m in self.original_layered.expand(t):
                        sizes[m] = m.clamp_procs(width)
        if self.suffix is not None and self.suffix.placement is not None:
            for task, cores in self.suffix.placement.task_cores.items():
                sizes[task] = len(cores)
        return sizes

    def summary(self) -> Dict[str, object]:
        """Export the reschedule outcome as a dict."""
        return {
            "after_layer": self.loss.after_layer,
            "lost_nodes": self.loss.nodes,
            "cut": self.cut,
            "reduced_cores": self.reduced_platform.total_cores,
            "prefix_makespan": self.prefix_makespan,
            "degraded_makespan": self.degraded_makespan,
            "rescheduled": self.rescheduled,
        }


def _reduced_scheduler(scheduler, platform):
    """A copy of ``scheduler`` bound to the reduced platform.

    Works for any dataclass scheduler with a ``cost`` field (the
    layer-based algorithm and the baselines built on it); anything else
    falls back to a fresh :class:`LayerBasedScheduler` on a plain cost
    model, which is the re-planning algorithm the tentpole mandates.
    """
    from ..scheduling.layered import LayerBasedScheduler

    base = scheduler.cost if scheduler is not None else None
    if isinstance(base, CachedCostEvaluator):
        base = base.model
    if not isinstance(base, CostModel):
        base = CostModel(platform)
    cost = dataclasses.replace(base, platform=platform)
    if scheduler is not None and dataclasses.is_dataclass(scheduler):
        try:
            return dataclasses.replace(scheduler, cost=cost)
        except (TypeError, ValueError):
            pass
    return LayerBasedScheduler(cost)


def _suffix_graph(graph: TaskGraph, keep) -> TaskGraph:
    sub = TaskGraph(f"{graph.name}:reschedule")
    for t in graph:
        if t in keep:
            sub.add_task(t)
    for u, v, flows in graph.edges():
        if u in keep and v in keep:
            sub.add_dependency(u, v, list(flows))
    return sub


def reschedule_on_core_loss(
    graph: TaskGraph,
    layered: LayeredSchedule,
    trace: ExecutionTrace,
    platform,
    strategy,
    loss: CoreLoss,
    scheduler=None,
    options=None,
    obs: Optional[Instrumentation] = None,
) -> RescheduleOutcome:
    """Re-plan the layers at/after ``loss.after_layer`` on a reduced platform.

    Parameters
    ----------
    graph / layered / trace:
        The original program, its layered schedule and the fault-free (or
        fault-overheads-only) simulated trace; the trace supplies the
        prefix timing.
    platform / strategy:
        The original platform and the mapping strategy to re-map with.
    loss:
        The core-loss event (whole nodes, at a layer boundary).
    scheduler:
        The scheduler to re-invoke (re-bound to the reduced platform);
        defaults to a fresh ``LayerBasedScheduler``.
    options:
        :class:`~repro.sim.executor.SimulationOptions` for the suffix
        simulation.  Pass a fault plan *without* the core loss here to
        keep injected failures/slowdowns active in the suffix.
    """
    from ..pipeline.pipeline import SchedulingPipeline
    from ..sim.executor import SimulationOptions

    obs = obs if obs is not None else Instrumentation()
    machine = trace.machine
    per_node = machine.cores_per_node(0)
    remaining_nodes = machine.num_nodes - loss.nodes
    if remaining_nodes < 1:
        raise ValueError(
            f"core loss removes {loss.nodes} of {machine.num_nodes} nodes; "
            "nothing left to reschedule on"
        )
    reduced = platform.with_cores(remaining_nodes * per_node)
    cut = min(loss.after_layer, layered.num_layers)

    prefix_members = {
        m
        for layer in layered.layers[:cut]
        for t in layer.tasks
        for m in layered.expand(t)
    }
    prefix_entries = [e for e in trace.entries if e.task in prefix_members]
    t0 = max((e.finish for e in prefix_entries), default=0.0)

    if cut >= layered.num_layers:
        # the loss struck after the last layer: nothing to re-plan
        return RescheduleOutcome(
            trace=trace,
            loss=loss,
            cut=cut,
            reduced_platform=reduced,
            prefix_makespan=t0,
            original_layered=layered,
        )

    suffix_graph = _suffix_graph(graph, set(graph) - prefix_members)
    sub_pipeline = SchedulingPipeline(
        _reduced_scheduler(scheduler, reduced),
        strategy=strategy,
        options=options if options is not None else SimulationOptions(),
    )
    suffix = sub_pipeline.run(suffix_graph, obs)
    if suffix.trace is None:
        raise RuntimeError("suffix re-schedule produced no trace")

    shifted = [
        dataclasses.replace(e, start=e.start + t0, finish=e.finish + t0)
        for e in suffix.trace.entries
    ]
    combined = ExecutionTrace(machine, prefix_entries + shifted)
    return RescheduleOutcome(
        trace=combined,
        loss=loss,
        cut=cut,
        reduced_platform=reduced,
        prefix_makespan=t0,
        original_layered=layered,
        suffix=suffix,
    )


def cluster_loss_handler(
    graph: TaskGraph,
    layered: LayeredSchedule,
    trace: ExecutionTrace,
    platform,
    strategy,
    scheduler=None,
    options=None,
    obs: Optional[Instrumentation] = None,
    nodes_per_worker: int = 1,
):
    """Bridge a backend's ``on_worker_lost`` hook to core-loss re-planning.

    Returns a callback suitable for
    :class:`~repro.runtime.backends.ClusterBackend`'s ``on_worker_lost``
    parameter.  Each permanent worker departure is treated as the loss
    of ``nodes_per_worker`` whole nodes, with ``WorkerLoss.batch_index``
    passed as ``CoreLoss.after_layer``, and :func:`reschedule_on_core_loss`
    is invoked with the cumulative loss so far -- the re-plan always
    reflects every departure, not just the latest one.

    The two indices count different things: ``batch_index`` counts the
    ``independent_batches`` of the functional body being executed (an
    IRK step with ``K = 4, m = 2`` runs in 8), ``after_layer`` the
    layers of ``layered`` (3 for the same step).
    :func:`reschedule_on_core_loss` clamps the boundary to the layer
    count, so a loss in a late batch re-plans nothing.

    The outcomes accumulate on the returned callback's ``outcomes``
    attribute in event order.  Re-planning is advisory for the run that
    suffered the loss (the cluster backend already requeued the work;
    for pure bodies the variables are identical either way) -- the new
    ``group_sizes()`` matter for *subsequent* or resumed runs, so a
    handler failure, including running out of nodes to re-plan on, is
    recorded on ``callback.errors`` rather than raised into (and
    aborting) the surviving run.
    """
    outcomes: list = []
    errors: list = []
    lost_nodes = [0]

    def on_worker_lost(loss) -> None:
        lost_nodes[0] += nodes_per_worker
        event = CoreLoss(after_layer=loss.batch_index, nodes=lost_nodes[0])
        try:
            outcomes.append(
                reschedule_on_core_loss(
                    graph,
                    layered,
                    trace,
                    platform,
                    strategy,
                    event,
                    scheduler=scheduler,
                    options=options,
                    obs=obs,
                )
            )
        except (ValueError, RuntimeError) as exc:
            errors.append((loss, exc))

    on_worker_lost.outcomes = outcomes
    on_worker_lost.errors = errors
    return on_worker_lost
