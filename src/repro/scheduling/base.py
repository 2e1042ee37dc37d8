"""Scheduler interface, normalized results and symbolic timelines.

Historically every scheduler returned its own artefact -- the layer-based
algorithm a :class:`~repro.core.schedule.LayeredSchedule`, CPA/CPR a
symbolic-core :class:`~repro.core.schedule.Schedule` -- and every caller
had to know which it got (the old ``Union[LayeredSchedule, Schedule]``
contract).  That union is gone: every :class:`Scheduler` now returns a
:class:`SchedulingResult` that carries whichever artefact the algorithm
produced plus the chain-expansion map and per-run statistics, and exposes
uniform accessors (:meth:`SchedulingResult.symbolic_timeline`,
:meth:`SchedulingResult.predicted_makespan`) the pipeline builds on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional

import numpy as np

from ..core.costbatch import TaskTable
from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import LayeredSchedule, Schedule, ScheduledTask
from ..core.task import MTask
from ..obs import Instrumentation

__all__ = ["Scheduler", "SchedulingResult"]


@dataclass
class SchedulingResult:
    """Normalized output of every scheduling algorithm.

    Exactly one of ``layered`` / ``timeline`` is set for static
    schedulers (``kind`` tells which); the dynamic scheduler additionally
    attaches the :class:`~repro.sim.trace.ExecutionTrace` it produced
    while scheduling, since its decisions *are* the execution.

    ``expansion`` maps contracted chain nodes to their member tasks in
    chain order (identity for non-chain tasks); it is filled by the
    scheduler when it contracts internally (layer-based algorithm) or by
    the pipeline's contraction stage (CPA/CPR and friends).
    """

    nprocs: int
    scheduler: str = ""
    layered: Optional[LayeredSchedule] = None
    timeline: Optional[Schedule] = None
    expansion: Dict[MTask, List[MTask]] = field(default_factory=dict)
    #: per-task core allocation of the allocation-based baselines
    allocation: Optional[Dict[MTask, int]] = None
    #: simulated trace, when the scheduler executed while scheduling
    trace: Optional[object] = None
    #: free-form per-run statistics (probe counts, iterations, ...)
    stats: Dict[str, float] = field(default_factory=dict)
    #: cost columns of the scheduled graph's tasks; a layered result
    #: always carries the table its scheduler built, and pricing it
    #: reads its members' rows instead of tabulating them again
    table: Optional[TaskTable] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.layered is None and self.timeline is None and self.trace is None:
            raise ValueError(
                "SchedulingResult needs a layered schedule, a timeline or a trace"
            )
        if self.layered is not None and self.timeline is not None:
            raise ValueError(
                "SchedulingResult carries either a layered schedule or a "
                "timeline, not both"
            )
        if self.layered is not None and self.table is None:
            raise ValueError("a layered SchedulingResult needs its TaskTable")

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"layered"``, ``"timeline"`` or ``"trace"``."""
        if self.layered is not None:
            return "layered"
        if self.timeline is not None:
            return "timeline"
        return "trace"

    def expand_task(self, task: MTask) -> List[MTask]:
        """Member tasks of a (possibly contracted) node, in chain order."""
        return self.expansion.get(task, [task])

    def scheduled_tasks(self) -> List[MTask]:
        """All *original* tasks the result covers (chains expanded)."""
        if self.layered is not None:
            return self.layered.all_original_tasks()
        if self.timeline is not None:
            return [
                m for e in self.timeline.entries for m in self.expand_task(e.task)
            ]
        return [e.task for e in self.trace.entries]  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    def symbolic_timeline(self, cost: CostModel) -> Schedule:
        """The symbolic-core timeline the scheduling phase reasoned about.

        For layered results this is :meth:`_walk_layers`' timeline;
        timeline results already are one (contracted chains expanded to
        their members); dynamic results rebuild a symbolic view from the
        trace's physical cores.
        """
        if self.layered is not None:
            out = Schedule(self.layered.nprocs)
            self._walk_layers(cost, out)
            return out
        if self.timeline is not None:
            if not self.expansion:
                return self.timeline
            return self._expanded_timeline(cost)
        return self._timeline_from_trace()

    def _expanded_timeline(self, cost: CostModel) -> Schedule:
        out = Schedule(self.timeline.nprocs)
        for e in self.timeline.entries:
            members = self.expand_task(e.task)
            if len(members) == 1 and members[0] is e.task:
                out.add(e)
                continue
            t = e.start
            for m in members:
                width = m.clamp_procs(len(e.cores))
                dur = cost.tsymb(m, width)
                out.add(ScheduledTask(m, t, t + dur, e.cores[:width]))
                t += dur
        return out

    def _timeline_from_trace(self) -> Schedule:
        index = {c: i for i, c in enumerate(self.trace.machine.cores())}
        out = Schedule(len(index))
        for e in self.trace.entries:
            out.add(
                ScheduledTask(
                    e.task, e.start, e.finish, tuple(index[c] for c in e.cores)
                )
            )
        return out

    def predicted_makespan(self, cost: CostModel) -> float:
        """Makespan of the symbolic timeline (the scheduler's estimate).

        A layered result is summed by :meth:`_walk_layers` without
        building the timeline's ``ScheduledTask`` entries.
        """
        if self.layered is not None:
            return self._walk_layers(cost)
        return self.symbolic_timeline(cost).makespan

    def _walk_layers(self, cost: CostModel, out: Optional[Schedule] = None) -> float:
        """The symbolic makespan of a layered result (Algorithm 1).

        Uses the symbolic cost ``Tsymb`` (default mapping pattern); layers
        are separated by a barrier, groups execute their tasks one after
        another -- contracted chains expanded to their members, each
        priced at its own clamped width.  This is the makespan the
        *scheduling* phase reasons about; the simulator recomputes the
        real timeline after mapping.  All pairs are priced by one
        ``cost.tsymb_pairs`` call on a row view of :attr:`table`.  With
        ``out``, each member's ``ScheduledTask`` is added to it, so the
        timeline and the makespan come from the same float operations.
        Returns the last layer's end.
        """
        layers = self.layered.layers
        expand = self.layered.expansion.get
        members, sizes, counts = [], [], []  # counts: members per group
        for layer in layers:
            for size, tasks in zip(layer.group_sizes, layer.groups):
                for task in tasks:
                    members += expand(task, (task,))
                counts.append(len(members) - len(sizes))
                sizes += [size] * counts[-1]
        index = {t: i for i, t in enumerate(self.table.tasks)}
        rows = self.table.take([index[m] for m in members], members)
        size = np.array(sizes, dtype=np.int64)
        short = np.flatnonzero(size < rows.min_procs)
        if len(short):  # the first member given too few cores raises its error
            members[short[0]].clamp_procs(sizes[short[0]])
        widths = np.minimum(size, rows.max_procs).tolist()
        priced = zip(members, widths, cost.tsymb_pairs(rows, widths))
        per_group = iter(counts)
        t_layer = 0.0
        for layer in layers:
            layer_end = t_layer
            # zip draws from ``per_group`` only while the layer has ranges left
            for cores, count in zip(layer.symbolic_ranges(), per_group):
                t = t_layer
                for m, width, dur in islice(priced, count):
                    if out is not None:
                        out.add(ScheduledTask(m, t, t + dur, tuple(cores[:width])))
                    t += dur
                layer_end = max(layer_end, t)
            t_layer = layer_end
        return t_layer


class Scheduler(abc.ABC):
    """A scheduling algorithm for M-task graphs.

    Concrete schedulers implement :meth:`_plan` and set ``cost`` (the
    cost model binding the target platform).  :meth:`schedule` wraps the
    run in an instrumentation span; every scheduler returns a
    :class:`SchedulingResult`.
    """

    #: cost model bound to the target platform (set by subclasses)
    cost: CostModel

    #: True when the algorithm performs (or deliberately skips) chain
    #: contraction itself; the pipeline then leaves the graph alone.
    handles_contraction: bool = False

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    def nprocs(self) -> int:
        return self.cost.platform.total_cores

    def schedule(
        self, graph: TaskGraph, obs: Optional[Instrumentation] = None
    ) -> SchedulingResult:
        """Compute a schedule for ``graph`` on the scheduler's platform."""
        obs = obs if obs is not None else Instrumentation()
        with obs.span("schedule", scheduler=self.name):
            return self._plan(graph, obs)

    @abc.abstractmethod
    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        """Algorithm body; must return a :class:`SchedulingResult`."""
