"""CPR -- Critical Path Reduction (Radulescu et al., 2001).

Comparison baseline of Section 4.3.  Unlike CPA, CPR interleaves
allocation and scheduling: starting from one core per task it repeatedly
tries to widen a task by one core, re-runs the full list scheduler, and
keeps the widening only when the resulting makespan improves.  Candidates
are drawn from the current critical path in decreasing gain order, which
is why CPR tends to pour cores into the longest linear chain -- for the
extrapolation method this produces the near-data-parallel schedules with
the poor performance seen in Fig. 13 (right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import Schedule
from ..core.task import MTask
from ..obs import Instrumentation
from .base import Scheduler, SchedulingResult
from .listsched import list_schedule

__all__ = ["CPRScheduler"]

#: objective differences this small are ties, not improvements
TOLERANCE = 1e-12


@dataclass
class CPRScheduler(Scheduler):
    """The CPR one-phase (coupled) M-task scheduler."""

    cost: CostModel
    max_increments: int = 50_000
    #: cores added per widening attempt; > 1 coarsens the search on large
    #: machines (a performance knob, not part of the original algorithm)
    granularity: int = 1

    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        with obs.span("widen"):
            timeline, alloc = self.schedule_with_allocation(graph)
        return SchedulingResult(
            nprocs=self.nprocs,
            scheduler=self.name,
            timeline=timeline,
            allocation=alloc,
            stats={"allocated_cores": float(sum(alloc.values()))},
        )

    @staticmethod
    def _objective(schedule: Schedule) -> Tuple[float, float]:
        """Primary: makespan.  Secondary: sum of finish times.

        The secondary criterion lets CPR cross the plateaus that occur
        with symmetric independent tasks (a single widening shortens one
        task but not the layer); without it the search would stall at the
        one-core-per-task allocation.
        """
        return (schedule.makespan, sum(e.finish for e in schedule.entries))

    def schedule_with_allocation(
        self, graph: TaskGraph
    ) -> Tuple[Schedule, Dict[MTask, int]]:
        """Schedule the graph and return the final allocation too."""
        P = self.cost.platform.total_cores
        step = max(1, self.granularity)
        alloc: Dict[MTask, int] = {t: t.min_procs for t in graph}
        best = list_schedule(graph, alloc, self.cost)
        best_obj = self._objective(best)
        increments = 0
        improved = True
        while improved and increments < self.max_increments:
            improved = False
            times = {t: self.cost.tsymb(t, alloc[t]) for t in graph}
            path = graph.critical_path(times)

            def gain(t: MTask) -> float:
                trial = min(t.clamp_procs(P), alloc[t] + step)
                return times[t] - self.cost.tsymb(t, trial)

            # critical-path tasks first (largest gain first), then the rest
            on_path = sorted(
                (t for t in path if alloc[t] < t.clamp_procs(P)),
                key=lambda t: -gain(t),
            )
            in_path = set(path)
            rest = sorted(
                (t for t in graph if t not in in_path and alloc[t] < t.clamp_procs(P)),
                key=lambda t: -gain(t),
            )
            for t in on_path + rest:
                old = alloc[t]
                alloc[t] = min(t.clamp_procs(P), old + step)
                increments += 1
                trial = list_schedule(graph, alloc, self.cost)
                trial_obj = self._objective(trial)
                if trial_obj[0] < best_obj[0] - TOLERANCE or (
                    trial_obj[0] < best_obj[0] + TOLERANCE
                    and trial_obj[1] < best_obj[1] - TOLERANCE
                ):
                    best, best_obj = trial, trial_obj
                    improved = True
                    break  # restart from the new critical path
                alloc[t] = old
                if increments >= self.max_increments:
                    break
        return best, alloc
