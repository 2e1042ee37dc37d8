"""Schedules, layered schedules and physical placements.

Three related artefacts appear between the scheduling algorithm and the
simulator:

* :class:`Schedule` -- a timeline over *symbolic* cores ``0..P-1``:
  every task has a start/finish estimate and a set of symbolic cores.
  Produced directly by list schedulers (CPA/CPR) and derivable from a
  layered schedule for quick makespan estimates.
* :class:`LayeredSchedule` -- the structured output of the paper's
  Algorithm 1: a list of layers, each with a group partition of the
  symbolic cores and an ordered task assignment per group.
* :class:`Placement` -- the result of the mapping step: each task is
  pinned to a tuple of *physical* cores, plus a priority used by the
  simulator to break ties deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.architecture import CoreId
from .graph import TaskGraph
from .task import MTask

__all__ = [
    "ScheduledTask",
    "Schedule",
    "Layer",
    "LayeredSchedule",
    "Placement",
    "validate",
]


@dataclass(frozen=True)
class ScheduledTask:
    """One task of a symbolic-core timeline."""

    task: MTask
    start: float
    finish: float
    cores: Tuple[int, ...]  #: symbolic core indices

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise ValueError(f"task {self.task.name}: finish before start")
        if not self.cores:
            raise ValueError(f"task {self.task.name}: empty core set")
        if len(set(self.cores)) != len(self.cores):
            raise ValueError(f"task {self.task.name}: duplicate cores")


class Schedule:
    """Timeline of scheduled tasks over ``nprocs`` symbolic cores."""

    def __init__(self, nprocs: int, entries: Sequence[ScheduledTask] = ()) -> None:
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.entries: List[ScheduledTask] = []
        self._by_task: Dict[MTask, ScheduledTask] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: ScheduledTask) -> None:
        """Record one scheduled task (each task at most once)."""
        if entry.task in self._by_task:
            raise ValueError(f"task {entry.task.name!r} scheduled twice")
        for c in entry.cores:
            if not 0 <= c < self.nprocs:
                raise ValueError(
                    f"task {entry.task.name!r} uses core {c} outside [0, {self.nprocs})"
                )
        self.entries.append(entry)
        self._by_task[entry.task] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, task: MTask) -> ScheduledTask:
        return self._by_task[task]

    @property
    def makespan(self) -> float:
        return max((e.finish for e in self.entries), default=0.0)

    # ------------------------------------------------------------------
    def validate(self, graph: Optional[TaskGraph] = None, tol: float = 1e-9) -> None:
        """Check core-exclusivity and (optionally) precedence feasibility."""
        by_core: Dict[int, List[ScheduledTask]] = {}
        for e in self.entries:
            for c in e.cores:
                by_core.setdefault(c, []).append(e)
        for c, lst in by_core.items():
            lst.sort(key=lambda e: e.start)
            for a, b in zip(lst, lst[1:]):
                if b.start < a.finish - tol:
                    raise ValueError(
                        f"core {c}: tasks {a.task.name!r} and {b.task.name!r} overlap "
                        f"([{a.start:g}, {a.finish:g}] vs [{b.start:g}, {b.finish:g}])"
                    )
        if graph is not None:
            for u, v, _ in graph.edges():
                if u in self._by_task and v in self._by_task:
                    if self[v].start < self[u].finish - tol:
                        raise ValueError(
                            f"precedence violated: {v.name!r} starts before "
                            f"{u.name!r} finishes"
                        )

    def gantt_lines(self, width: int = 72) -> List[str]:
        """Coarse ASCII Gantt chart (one line per symbolic core)."""
        span = self.makespan or 1.0
        grid = [[" "] * width for _ in range(self.nprocs)]
        for i, e in enumerate(sorted(self.entries, key=lambda e: e.start)):
            a = int(e.start / span * (width - 1))
            b = max(a + 1, int(e.finish / span * (width - 1)))
            ch = chr(ord("A") + i % 26)
            for c in e.cores:
                for x in range(a, min(b, width)):
                    grid[c][x] = ch
        return [f"core {c:3d} |{''.join(row)}|" for c, row in enumerate(grid)]


@dataclass
class Layer:
    """One layer of independent tasks with its group partition.

    ``groups[l]`` is the ordered list of tasks group ``l`` executes one
    after another; ``group_sizes[l]`` is the number of symbolic cores of
    group ``l``.  Sizes sum to the total core count ``P``.
    """

    groups: List[List[MTask]]
    group_sizes: List[int]

    def __post_init__(self) -> None:
        if len(self.groups) != len(self.group_sizes):
            raise ValueError("groups and group_sizes must have equal length")
        if any(s <= 0 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        seen = set()
        for g in self.groups:
            for t in g:
                if t in seen:
                    raise ValueError(f"task {t.name!r} assigned to two groups")
                seen.add(t)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def tasks(self) -> List[MTask]:
        return [t for g in self.groups for t in g]

    def symbolic_ranges(self) -> List[range]:
        """Symbolic-core index range of each group (groups are laid out
        consecutively in the symbolic core sequence, Section 3.4)."""
        out, offset = [], 0
        for s in self.group_sizes:
            out.append(range(offset, offset + s))
            offset += s
        return out


@dataclass
class LayeredSchedule:
    """Output of the layer-based scheduling algorithm (Algorithm 1)."""

    nprocs: int
    layers: List[Layer] = field(default_factory=list)
    #: mapping from contracted chain-node to its member tasks in chain
    #: order; identity for tasks that were not part of a chain.
    expansion: Dict[MTask, List[MTask]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for layer in self.layers:
            if sum(layer.group_sizes) != self.nprocs:
                raise ValueError(
                    f"layer group sizes {layer.group_sizes} do not sum to P={self.nprocs}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def expand(self, task: MTask) -> List[MTask]:
        """Member tasks of a (possibly contracted) node, in order."""
        return self.expansion.get(task, [task])

    def all_original_tasks(self) -> List[MTask]:
        """All original (pre-clustering) tasks in layer order."""
        return [m for layer in self.layers for t in layer.tasks for m in self.expand(t)]

    def describe(self) -> str:
        """Human-readable multi-line summary of the schedule."""
        lines = [f"LayeredSchedule on {self.nprocs} cores, {self.num_layers} layers"]
        for i, layer in enumerate(self.layers):
            lines.append(f" layer {i}: {layer.num_groups} groups, sizes {layer.group_sizes}")
            for l, g in enumerate(layer.groups):
                names = ", ".join(t.name for t in g)
                lines.append(f"   group {l} ({layer.group_sizes[l]} cores): {names}")
        return "\n".join(lines)


@dataclass
class Placement:
    """Physical pinning of every task, produced by the mapping step.

    ``task_cores`` pins each original task to an ordered tuple of
    physical cores (rank ``r`` of the task's group runs on
    ``task_cores[task][r]``).  ``priority`` orders tasks that share cores
    (lower runs first); it encodes the serialisation the scheduler chose
    within each group.  ``all_cores`` is the program's global rank order
    (the mapping strategy's physical core sequence) -- global collectives
    ring/tree over *this* order, which is how the mapping affects the
    data-parallel program versions.
    """

    task_cores: Dict[MTask, Tuple[CoreId, ...]]
    priority: Dict[MTask, float] = field(default_factory=dict)
    all_cores: Optional[Tuple[CoreId, ...]] = None

    def cores_of(self, task: MTask) -> Tuple[CoreId, ...]:
        """Physical cores assigned to ``task``."""
        try:
            return self.task_cores[task]
        except KeyError:
            raise KeyError(f"task {task.name!r} has no placement") from None

    def validate(self, graph: TaskGraph) -> None:
        """Check the mapping covers the graph consistently."""
        # tasks of one group share their core tuple; each distinct tuple
        # (all kept alive by ``task_cores``) is scanned for duplicates once
        checked = set()
        for t in graph:
            cores = self.cores_of(t)
            if id(cores) not in checked:
                if len(set(cores)) != len(cores):
                    raise ValueError(f"task {t.name!r} mapped to duplicate cores")
                checked.add(id(cores))
            if not t.feasible_procs(len(cores)):
                raise ValueError(
                    f"task {t.name!r} mapped to {len(cores)} cores, outside "
                    f"[{t.min_procs}, {t.max_procs}]"
                )


# ----------------------------------------------------------------------
# Schedule validation
# ----------------------------------------------------------------------
def validate(schedule, platform, graph: Optional[TaskGraph] = None, tol: float = 1e-9) -> None:
    """Check a schedule against a platform (and optionally its graph).

    Accepts both schedule artefacts:

    * a :class:`Schedule` -- rejects core counts that do not match the
      platform, overlapping occupations of one symbolic core, and (with
      ``graph``) precedence violations;
    * a :class:`LayeredSchedule` -- rejects group partitions that do not
      cover the platform's cores (a size that is not positive or sizes
      that do not sum to its core count), tasks assigned to two groups
      of one layer, groups
      narrower than a member task's ``min_procs``, duplicate task
      assignments across layers, and (with ``graph``) edges that point
      backwards or sideways across the layer order.

    Raises :class:`ValueError` on the first violation; returns ``None``
    when the schedule is consistent.
    """
    P = platform.total_cores
    if isinstance(schedule, Schedule):
        if schedule.nprocs != P:
            raise ValueError(
                f"schedule spans {schedule.nprocs} symbolic cores but the "
                f"platform has {P}"
            )
        schedule.validate(graph, tol)
        return
    if isinstance(schedule, LayeredSchedule):
        _validate_layered(schedule, P, graph)
        return
    raise TypeError(
        f"cannot validate {type(schedule).__name__}; expected Schedule or "
        "LayeredSchedule (unwrap a SchedulingResult via .layered/.timeline)"
    )


def _validate_layered(
    schedule: LayeredSchedule, P: int, graph: Optional[TaskGraph]
) -> None:
    if schedule.nprocs != P:
        raise ValueError(
            f"layered schedule is for {schedule.nprocs} cores, platform has {P}"
        )
    layer_of: Dict[MTask, int] = {}
    for li, layer in enumerate(schedule.layers):
        if sum(layer.group_sizes) != P:
            raise ValueError(
                f"layer {li}: group sizes {layer.group_sizes} do not cover "
                f"the {P} platform cores"
            )
        # the groups take consecutive core ranges, so sizes that are all
        # positive and sum to P cover the cores without overlap; sizes
        # changed after construction may not be (a ``[300, -44]`` layer
        # sums to 256 with a group wider than the platform)
        if not all(s > 0 for s in layer.group_sizes):
            raise ValueError(
                f"layer {li}: group sizes {layer.group_sizes} must all be positive"
            )
        for gi, tasks in enumerate(layer.groups):
            width = layer.group_sizes[gi]
            for t in tasks:
                for member in schedule.expand(t):
                    if member.min_procs > width:
                        raise ValueError(
                            f"layer {li}, group {gi}: task {member.name!r} "
                            f"needs >= {member.min_procs} cores, group has "
                            f"{width}"
                        )
                if t in layer_of:
                    raise ValueError(
                        f"task {t.name!r} assigned to layers {layer_of[t]} "
                        f"and {li}"
                    )
                layer_of[t] = li
    if graph is None:
        return
    # precedence: an edge must cross from an earlier layer to a strictly
    # later one.  Graph tasks may appear contracted, so resolve members
    # to their contracted node's layer first.
    member_layer: Dict[MTask, int] = dict(layer_of)
    member_pos: Dict[MTask, Tuple[MTask, int]] = {}
    for node, members in schedule.expansion.items():
        for pos, m in enumerate(members):
            member_pos[m] = (node, pos)
            if node in layer_of:
                member_layer[m] = layer_of[node]
    for u, v, _flows in graph.edges():
        if u not in member_layer or v not in member_layer:
            continue
        lu, lv = member_layer[u], member_layer[v]
        if lu > lv:
            raise ValueError(
                f"precedence violated: {u.name!r} (layer {lu}) precedes "
                f"{v.name!r} (layer {lv})"
            )
        if lu == lv:
            # legal only inside one contracted chain, in chain order
            chain_u, pos_u = member_pos.get(u, (None, 0))
            chain_v, pos_v = member_pos.get(v, (None, 0))
            if chain_u is None or chain_u is not chain_v or pos_u >= pos_v:
                raise ValueError(
                    f"precedence violated: dependent tasks {u.name!r} and "
                    f"{v.name!r} share layer {lu} outside a contracted chain"
                )
