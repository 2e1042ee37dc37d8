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
from typing import Dict, List, Optional

import numpy as np

from ..core.costbatch import TaskTable
from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import LayeredSchedule, Schedule, ScheduledTask
from ..core.task import MTask
from ..obs import Instrumentation

__all__ = ["Scheduler", "SchedulingResult", "symbolic_timeline"]


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
    #: cost columns of the scheduled graph's tasks, when the scheduler
    #: built them (the layer-based one does); pricing the result reads
    #: its members' rows instead of tabulating them again
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

        For layered results this runs :func:`symbolic_timeline`; timeline
        results already are one (contracted chains expanded to their
        members); dynamic results rebuild a symbolic view from the
        trace's physical cores.
        """
        if self.layered is not None:
            return symbolic_timeline(self.layered, cost, self.table)
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

        A layered result is summed directly (:func:`_layered_makespan`),
        without building the timeline's ``ScheduledTask`` entries.
        """
        if self.layered is not None:
            return _layered_makespan(self.layered, cost, self.table)
        return self.symbolic_timeline(cost).makespan


class Scheduler(abc.ABC):
    """A scheduling algorithm for M-task graphs.

    Concrete schedulers implement :meth:`_plan` and set ``cost`` (the
    cost model binding the target platform).  :meth:`schedule` wraps the
    run in an instrumentation span and normalizes the contract: every
    scheduler returns a :class:`SchedulingResult`, never a raw
    ``LayeredSchedule`` or ``Schedule``.
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
            result = self._plan(graph, obs)
        if not isinstance(result, SchedulingResult):
            raise TypeError(
                f"{self.name}._plan returned {type(result).__name__}; "
                "returning raw LayeredSchedule/Schedule objects is no longer "
                "supported -- wrap the artefact in a SchedulingResult"
            )
        return result

    @abc.abstractmethod
    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        """Algorithm body; must return a :class:`SchedulingResult`."""


def _priced_groups(
    schedule: LayeredSchedule, cost: CostModel, table: Optional[TaskTable] = None
):
    """Member durations of a layered schedule, group by group.

    An iterator with one item per group of every layer, in order: the
    ``(member, width, Tsymb(member, width))`` triples of the group's
    tasks in execution order -- contracted chains expanded to their
    members, each priced at its own clamped width.  All pairs of the
    schedule are priced by one ``cost.tsymb_pairs`` call, on a row view
    of ``table`` when it holds every member (the clamps then read its
    bound columns too); :func:`symbolic_timeline` and
    :func:`_layered_makespan` both read their durations from here.
    """
    members: List[MTask] = []
    sizes: List[int] = []
    ends: List[int] = []
    expand = schedule.expansion.get
    for layer in schedule.layers:
        for size, tasks in zip(layer.group_sizes, layer.groups):
            for task in tasks:
                chain = expand(task)
                if chain is None:
                    members.append(task)
                else:
                    members += chain
            sizes += [size] * (len(members) - len(sizes))
            ends.append(len(members))
    rows = _member_rows(table, members, sizes)
    if rows is None:
        widths = [m.clamp_procs(size) for m, size in zip(members, sizes)]
        priced = cost.tsymb_pairs(members, widths)
    else:
        rows, widths = rows
        priced = cost.tsymb_pairs(rows, widths)
    priced = list(zip(members, widths, priced))
    return (priced[lo:hi] for lo, hi in zip([0] + ends, ends))


def _member_rows(table: Optional[TaskTable], members: List[MTask], sizes: List[int]):
    """``(rows, widths)``: the row view of ``members`` in ``table`` and
    their widths ``m.clamp_procs(size)`` from its bound columns -- or
    ``None`` without a table, when a member has no row, or when a width
    is below a member's ``min_procs`` (the scalar clamp then raises)."""
    if table is None or not members:
        return None
    index = {t: i for i, t in enumerate(table.tasks)}
    at = [index.get(m, -1) for m in members]
    if min(at) < 0:
        return None
    rows = table.take(at, members)
    size = np.array(sizes, dtype=np.int64)
    if (size < rows.min_procs).any():
        return None
    return rows, np.minimum(size, rows.max_procs).tolist()


def symbolic_timeline(
    schedule: LayeredSchedule, cost: CostModel, table: Optional[TaskTable] = None
) -> Schedule:
    """Estimate a start/finish timeline for a layered schedule.

    Uses the symbolic cost ``Tsymb`` (default mapping pattern); layers are
    separated by a barrier, groups execute their tasks one after another.
    This is the makespan the *scheduling* phase reasons about -- the
    simulator recomputes the real timeline after mapping.  ``table``
    optionally holds the members' cost columns (see :func:`_priced_groups`).
    """
    out = Schedule(schedule.nprocs)
    groups = _priced_groups(schedule, cost, table)
    t_layer = 0.0
    for layer in schedule.layers:
        layer_end = t_layer
        # zip draws from ``groups`` only while the layer has ranges left
        for cores, priced in zip(map(tuple, layer.symbolic_ranges()), groups):
            t = t_layer
            for m, width, dur in priced:
                out.add(ScheduledTask(m, t, t + dur, cores[:width]))
                t += dur
            layer_end = max(layer_end, t)
        t_layer = layer_end
    return out


def _layered_makespan(
    schedule: LayeredSchedule, cost: CostModel, table: Optional[TaskTable] = None
) -> float:
    """``symbolic_timeline(schedule, cost).makespan`` without the timeline.

    Reads the same durations (:func:`_priced_groups`) and adds them with
    the same float operations, so the value (and a caching evaluator's
    request counts) equal the timeline's exactly;
    ``tests/test_schedule_scale.py`` pins both.
    """
    groups = _priced_groups(schedule, cost, table)
    t_layer = 0.0
    for layer in schedule.layers:
        layer_end = t_layer
        for _, priced in zip(layer.groups, groups):
            t = t_layer
            for _m, _width, dur in priced:
                t += dur
            layer_end = max(layer_end, t)
        t_layer = layer_end
    return t_layer
