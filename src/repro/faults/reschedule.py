"""Rescheduling the remaining layers after a permanent core loss.

When a :class:`~repro.faults.plan.CoreLoss` strikes between two layers of
a layered schedule, the layers already executed keep their trace, but
every remaining layer must be re-planned: the scheduler is re-invoked
through a fresh :class:`~repro.pipeline.SchedulingPipeline` on the
reduced symbolic core count, the mapping strategy re-pins the groups to
the surviving nodes, and the simulator predicts the degraded makespan of
the combined prefix + suffix execution.  The pipeline's reschedule
stage (``FaultPlan.core_loss``) is the one place a lost capacity is
re-planned; a functional run that loses a worker only reports it (the
``worker_crash`` record) and requeues its tasks.

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

from ..core.graph import TaskGraph
from ..core.schedule import LayeredSchedule
from ..obs import Instrumentation
from ..sim.trace import ExecutionTrace
from .plan import CoreLoss

__all__ = ["RescheduleOutcome", "reschedule_on_core_loss"]


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
    #: full pipeline result of the suffix re-schedule (``None`` when the
    #: loss struck after the last layer and nothing needed re-planning)
    suffix: Optional[object] = None

    @property
    def degraded_makespan(self) -> float:
        return self.trace.makespan

    @property
    def rescheduled(self) -> bool:
        return self.suffix is not None

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
    scheduler,
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
        The scheduler that produced ``layered``, as a pipeline holds it:
        a dataclass whose ``cost`` is a
        :class:`~repro.core.costmodel.CachedCostEvaluator`.  A copy bound
        to the reduced platform re-plans the suffix.
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
        )

    suffix_graph = _suffix_graph(graph, set(graph) - prefix_members)
    cost = dataclasses.replace(scheduler.cost.model, platform=reduced)
    sub_pipeline = SchedulingPipeline(
        dataclasses.replace(scheduler, cost=cost),
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
        suffix=suffix,
    )

