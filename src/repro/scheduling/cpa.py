"""CPA -- Critical Path and Allocation (Radulescu & van Gemund, 2001).

Comparison baseline of Section 4.3.  CPA decouples the *allocation* phase
from the *scheduling* phase:

* allocation starts every task at one core and repeatedly gives one more
  core to the critical-path task with the largest execution-time gain,
  until the critical path no longer exceeds the average area
  ``A = sum_t q_t * T(t, q_t) / P``;
* scheduling is an earliest-finish list scheduler over the fixed
  allocation (:mod:`repro.scheduling.listsched`).

Because the allocation phase never looks back at the global core budget,
wide graphs of independent tasks can end up with ``sum_t q_t > P``
("over-allocation"), serialising tasks that were meant to run
concurrently -- exactly the behaviour the paper observes for the PABM
method (Fig. 13 left).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.task import MTask
from ..obs import Instrumentation
from .base import Scheduler, SchedulingResult
from .listsched import list_schedule

__all__ = ["CPAScheduler"]

#: safety bound on allocation moves (ample headroom)
MAX_MOVES = 100_000


@dataclass
class CPAScheduler(Scheduler):
    """The CPA two-phase M-task scheduler."""

    cost: CostModel
    #: cores added per allocation move; > 1 coarsens the search on large
    #: machines (a performance knob, not part of the original algorithm)
    granularity: int = 1

    def _limits(self, graph: TaskGraph) -> Dict[MTask, int]:
        """The most cores the allocation may give each task."""
        P = self.cost.platform.total_cores
        return {t: t.clamp_procs(P) for t in graph}

    def allocate(self, graph: TaskGraph) -> Dict[MTask, int]:
        """CPA allocation phase."""
        P = self.cost.platform.total_cores
        step = max(1, self.granularity)
        limits = self._limits(graph)
        alloc: Dict[MTask, int] = {t: t.min_procs for t in graph}
        for _ in range(MAX_MOVES):
            times = {t: self.cost.tsymb(t, alloc[t]) for t in graph}
            cp_len = graph.critical_path_length(times)
            area = sum(alloc[t] * times[t] for t in graph) / P
            if cp_len <= area:
                break
            best_task, best_gain = None, 0.0
            for t in graph.critical_path(times):
                if alloc[t] >= limits[t]:
                    continue
                trial = min(limits[t], alloc[t] + step)
                gain = times[t] - self.cost.tsymb(t, trial)
                if gain > best_gain:
                    best_task, best_gain = t, gain
            if best_task is None:
                break  # no critical-path task benefits from another core
            alloc[best_task] = min(limits[best_task], alloc[best_task] + step)
        return alloc

    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        with obs.span("allocate"):
            alloc = self.allocate(graph)
        with obs.span("listsched"):
            timeline = list_schedule(graph, alloc, self.cost)
        return SchedulingResult(
            nprocs=self.nprocs,
            scheduler=self.name,
            timeline=timeline,
            allocation=alloc,
            stats={"allocated_cores": float(sum(alloc.values()))},
        )
