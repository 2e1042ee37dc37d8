"""AMTHA-style task-to-core mapping (after De Giusti et al.).

Competitor scheduler of the shoot-out harness: the Automatic Mapping
Task on Heterogeneous Architectures heuristic assigns each task a fixed,
narrow core allotment and dispatches tasks one at a time in decreasing
*rank* order, where the rank of a task is its execution time plus the
most expensive communication-inclusive path to a sink.  Adapted to
M-tasks and symbolic cores:

* each task runs at its *minimal* feasible width (AMTHA maps tasks to
  single processors),
* the rank is a bottom level that also adds the symbolic
  re-distribution cost on every edge, so communication-heavy paths are
  prioritised -- this is what separates AMTHA's dispatch order from the
  comm-free bottom levels of CPA and CPR,
* dispatch is the zoo's one list schedule
  (:func:`~repro.scheduling.listsched.list_schedule`) under that rank:
  the highest-ranked ready task takes the cores that become free
  earliest and starts once both they and its input data (predecessor
  finish plus re-distribution whenever the core sets differ) are there.

The narrow allotments make AMTHA strong on graphs with much task
parallelism and little per-task scalability, and weak when a layer's
width is far below the core count -- exactly the contrast the shoot-out
measures against the paper's g-search.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..obs import Instrumentation
from .base import Scheduler, SchedulingResult
from .listsched import bottom_levels, list_schedule

__all__ = ["AMTHAScheduler"]


@dataclass
class AMTHAScheduler(Scheduler):
    """AMTHA-style rank-and-dispatch scheduler for M-task graphs.

    Parameters
    ----------
    cost:
        Cost model (binds the target platform).
    """

    cost: CostModel

    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        """Rank every task, then dispatch ready tasks in rank order."""
        P = self.nprocs
        for t in graph:
            if t.min_procs > P:
                raise ValueError(
                    f"task {t.name!r}: min_procs={t.min_procs} exceeds the "
                    f"{P}-core platform"
                )
        widths = {t: t.min_procs for t in graph}

        def edge(u, v):
            return self.cost.redistribution_time_symbolic(
                graph.flows(u, v), widths[u], widths[v]
            )

        with obs.span("dispatch", tasks=len(graph)):
            schedule = list_schedule(
                graph,
                widths,
                self.cost,
                priority=lambda times: bottom_levels(graph, times, edge),
            )
        obs.count("amtha.dispatched", len(schedule))
        return SchedulingResult(
            nprocs=P,
            scheduler=self.name,
            timeline=schedule,
            allocation=widths,
            stats={
                "tasks": float(len(graph)),
                "mean_width": (
                    sum(widths.values()) / len(widths) if widths else 0.0
                ),
            },
        )
