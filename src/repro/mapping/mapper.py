"""The mapping function ``F_W``: symbolic groups to physical cores.

For each layer ``W`` with group partition ``{G_1, .., G_g}`` the mapping
function assigns group ``G_i`` the next ``|G_i|`` cores of the strategy's
physical core sequence (Section 3.4):

    ``F_W(G_i) = {pc_j, .., pc_{j+|G_i|-1}}``,  ``j = 1 + sum_{k<i} |G_k|``

This module turns layered schedules (Algorithm 1) and symbolic-core
timelines (CPA/CPR) into :class:`~repro.core.schedule.Placement` objects
the simulator can execute.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.architecture import CoreId, Machine
from ..core.schedule import Layer, LayeredSchedule, Placement, Schedule
from ..core.task import MTask
from .strategies import MappingStrategy

__all__ = ["map_layer", "place_layered", "place_timeline", "place_result"]


def map_layer(
    layer: Layer, machine: Machine, strategy: MappingStrategy
) -> List[Tuple[CoreId, ...]]:
    """Physical core tuple of every group of one layer."""
    if sum(layer.group_sizes) != machine.total_cores:
        raise ValueError(
            f"layer uses {sum(layer.group_sizes)} symbolic cores but the "
            f"machine has {machine.total_cores}"
        )
    seq = strategy.sequence(machine)
    out: List[Tuple[CoreId, ...]] = []
    offset = 0
    for size in layer.group_sizes:
        out.append(tuple(seq[offset : offset + size]))
        offset += size
    return out


def place_layered(
    schedule: LayeredSchedule,
    machine: Machine,
    strategy: MappingStrategy,
) -> Placement:
    """Map a layered schedule onto the machine.

    Each original task receives the physical cores of its group; tasks of
    the same group keep their serialisation order through monotonically
    increasing priorities, and contracted chains expand into their member
    tasks on the same cores.
    """
    if schedule.nprocs != machine.total_cores:
        raise ValueError(
            f"schedule is for {schedule.nprocs} cores, machine has "
            f"{machine.total_cores}"
        )
    task_cores: Dict[MTask, Tuple[CoreId, ...]] = {}
    priority: Dict[MTask, float] = {}
    counter = 0
    for layer in schedule.layers:
        groups = map_layer(layer, machine, strategy)
        for gi, tasks in enumerate(layer.groups):
            cores = groups[gi]
            for t in tasks:
                for member in schedule.expand(t):
                    width = member.clamp_procs(len(cores))
                    task_cores[member] = cores[:width]
                    priority[member] = float(counter)
                    counter += 1
    return Placement(
        task_cores=task_cores,
        priority=priority,
        all_cores=tuple(strategy.sequence(machine)),
    )


def place_timeline(
    schedule: Schedule,
    machine: Machine,
    strategy: MappingStrategy,
    expansion: Optional[Mapping[MTask, Sequence[MTask]]] = None,
) -> Placement:
    """Map a symbolic-core timeline (e.g. from CPA/CPR).

    Symbolic core ``i`` is backed by the ``i``-th physical core of the
    strategy sequence; priorities follow the scheduled start times.

    When the timeline was computed on a chain-contracted graph,
    ``expansion`` (contracted node -> members in chain order) expands
    each node into its member tasks on the same cores, with fractional
    priority offsets preserving the chain order.
    """
    if schedule.nprocs != machine.total_cores:
        raise ValueError(
            f"schedule is for {schedule.nprocs} cores, machine has "
            f"{machine.total_cores}"
        )
    seq = strategy.sequence(machine)
    task_cores: Dict[MTask, Tuple[CoreId, ...]] = {}
    priority: Dict[MTask, float] = {}
    for e in schedule.entries:
        cores = tuple(seq[c] for c in e.cores)
        members = list(expansion.get(e.task, [e.task])) if expansion else [e.task]
        for k, member in enumerate(members):
            width = member.clamp_procs(len(cores))
            task_cores[member] = cores[:width]
            priority[member] = e.start + k * 1e-9
    return Placement(task_cores=task_cores, priority=priority, all_cores=tuple(seq))


def place_result(result, machine: Machine, strategy: MappingStrategy) -> Placement:
    """Map a :class:`~repro.scheduling.base.SchedulingResult`.

    Dispatches on the artefact kind: layered schedules go through
    :func:`place_layered`, timelines through :func:`place_timeline` with
    the result's chain-expansion map.
    """
    if result.layered is not None:
        return place_layered(result.layered, machine, strategy)
    if result.timeline is not None:
        return place_timeline(
            result.timeline, machine, strategy, expansion=result.expansion
        )
    raise ValueError(
        f"result of {result.scheduler or 'scheduler'} carries no mappable "
        "schedule (a dynamic-scheduler trace is already placed)"
    )
