"""List scheduling of M-task graphs with fixed per-task allocations.

The one dispatch loop of the scheduler zoo: CPA, MCPA, CPR and AMTHA
differ in the allocation ``q_t`` they give every task and in the
priority they rank it by, not in how they dispatch.  Given both, the
ready tasks (every predecessor placed) sit in a heap and the highest
priority one goes first, its name breaking ties; it takes the ``q_t``
symbolic cores that become free earliest (:func:`earliest_free`) and
starts when both its cores and its input data (predecessor finish plus
symbolic re-distribution whenever the core sets differ) are available.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import Schedule, ScheduledTask
from ..core.task import MTask

__all__ = ["bottom_levels", "earliest_free", "list_schedule"]


def earliest_free(avail: Sequence[float], q: int) -> Tuple[int, ...]:
    """The ``q`` cores that become free earliest (lower index first on
    ties), in ascending order."""
    order = sorted(range(len(avail)), key=lambda c: (avail[c], c))
    return tuple(sorted(order[:q]))


def bottom_levels(
    graph: TaskGraph,
    times: Dict[MTask, float],
    edge_cost: Optional[Callable[[MTask, MTask], float]] = None,
) -> Dict[MTask, float]:
    """Bottom level (length of the longest path to a sink) per task.

    With ``edge_cost(u, v)`` every edge adds its cost to the paths
    through it (AMTHA's communication-inclusive rank); it is called in
    reversed topological order, each task's successors in row order.
    """
    bl: Dict[MTask, float] = {}
    for t in reversed(graph.topological_order()):
        tail = 0.0
        for s in graph.successors(t):
            tail = max(tail, bl[s] if edge_cost is None else edge_cost(t, s) + bl[s])
        bl[t] = times[t] + tail
    return bl


def list_schedule(
    graph: TaskGraph,
    alloc: Dict[MTask, int],
    cost: CostModel,
    priority: Optional[Callable[[Dict[MTask, float]], Dict[MTask, float]]] = None,
) -> Schedule:
    """Earliest-finish list scheduling under a fixed allocation.

    ``priority`` maps every task's ``Tsymb(t, alloc[t])`` to its dispatch
    priority (higher first); the default is :func:`bottom_levels`.
    """
    P = cost.platform.total_cores
    times = {t: cost.tsymb(t, alloc[t]) for t in graph}
    rank = priority(times) if priority is not None else bottom_levels(graph, times)

    avail = [0.0] * P  # per symbolic core: time it becomes free
    finish: Dict[MTask, float] = {}
    cores_of: Dict[MTask, Tuple[int, ...]] = {}
    schedule = Schedule(P)

    remaining = {t: len(graph.predecessors(t)) for t in graph}
    # task names are unique in a graph, so the heap never compares tasks
    ready: List[Tuple[float, str, MTask]] = [
        (-rank[t], t.name, t) for t, deg in remaining.items() if deg == 0
    ]
    heapq.heapify(ready)
    while ready:
        _, _, t = heapq.heappop(ready)
        q = alloc[t]
        if not 1 <= q <= P:
            raise ValueError(f"allocation of {t.name!r} is {q}, outside [1, {P}]")
        chosen = earliest_free(avail, q)
        core_ready = max(avail[c] for c in chosen)
        data_ready = 0.0
        for p in graph.predecessors(t):
            arrival = finish[p]
            if cores_of[p] != chosen:  # both sorted: unequal tuples, unequal sets
                flows = graph.flows(p, t)
                arrival += cost.redistribution_time_symbolic(flows, alloc[p], q)
            data_ready = max(data_ready, arrival)
        start = max(core_ready, data_ready)
        end = start + times[t]
        for c in chosen:
            avail[c] = end
        finish[t] = end
        cores_of[t] = chosen
        schedule.add(ScheduledTask(t, start, end, chosen))
        for s in graph.successors(t):
            remaining[s] -= 1
            if remaining[s] == 0:
                heapq.heappush(ready, (-rank[s], s.name, s))
    if len(finish) != len(graph):
        raise AssertionError("dependency deadlock in list scheduling")
    return schedule
