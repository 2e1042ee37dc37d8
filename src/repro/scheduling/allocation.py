"""Per-layer task assignment and group-size adjustment (step 3 of
Algorithm 1).

Within one layer the symbolic cores are split into ``g`` subsets and the
independent M-tasks of the layer are dealt to the subsets by the modified
greedy algorithm for independent uniprocessor tasks [Sahni 1976]: tasks
in decreasing order of execution time, each to the subset with the
smallest accumulated time (LPT).  The subsequent *group adjustment*
resizes the subsets proportionally to their accumulated sequential work.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import islice
from typing import List, Sequence, Tuple

__all__ = [
    "equal_partition",
    "lpt_assign_indices",
    "adjust_group_sizes",
]


def equal_partition(total: int, g: int) -> List[int]:
    """Split ``total`` symbolic cores into ``g`` near-equal subset sizes."""
    if g <= 0:
        raise ValueError("g must be positive")
    if g > total:
        raise ValueError(f"cannot build {g} non-empty subsets from {total} cores")
    base, rem = divmod(total, g)
    return [base + (1 if i < rem else 0) for i in range(g)]


def lpt_assign_indices(
    order: Sequence[int], times: Sequence[float], g: int
) -> Tuple[List[List[int]], List[float]]:
    """Longest-processing-time-first assignment of task indices to ``g``
    subsets.

    ``order`` lists the indices by decreasing ``times`` with a
    deterministic tie-break; each goes to the subset with the smallest
    accumulated time (the modified greedy scheduler with 4/3
    sub-optimality bound referenced in Section 3.2), ties to the
    lowest-indexed subset.  The open subsets live in a min-heap keyed on
    ``(load, index)``, so one assignment costs ``O(log g)``.  While
    subsets are still empty, a task of positive time goes straight to
    the lowest-indexed one -- its load then sorts behind every empty
    subset, so that is the heap's own choice -- and the heap starts
    after those.  The ``g``-search calls it with one sort per distinct
    cost column, which serves every candidate ``g`` probing that column.

    Returns the groups and the load of each: its ``times`` added in
    assignment order, the float sum ``sum(times[i] for i in group)``
    gives (``0 + t == t`` for the non-negative times the search has).
    """
    if g <= 0:
        # the historical behaviour was an IndexError on heap[0] for any
        # non-empty order; fail with the same contract equal_partition uses
        raise ValueError("g must be positive")
    head: List[int] = []
    for i in islice(order, g):
        if not times[i] > 0.0:
            break
        head.append(i)
    k = len(head)
    groups: List[List[int]] = [[i] for i in head] + [[] for _ in range(g - k)]
    heap = [(times[i], l) for l, i in enumerate(head)] + [(0.0, l) for l in range(k, g)]
    heapq.heapify(heap)
    replace = heapq.heapreplace
    for i in islice(order, k, None):
        load, l = heap[0]
        groups[l].append(i)
        replace(heap, (load + times[i], l))
    loads = [0.0] * g
    for load, l in heap:
        loads[l] = load
    return groups, loads


def adjust_group_sizes(
    tseq: Sequence[float], floors: Sequence[int], total_cores: int
) -> List[int]:
    """Group adjustment: sizes proportional to accumulated sequential work.

    ``tseq`` holds each group's accumulated sequential work ``Tseq(G_l)``
    (its tasks' sequential times summed in group order) and ``floors``
    the largest ``min_procs`` of its tasks.
    ``g_l = P * Tseq(G_l) / sum_j Tseq(G_j)`` is apportioned by the
    largest remainder (floor everyone, hand the leftover cores to the
    largest fractional parts), so the sizes sum to ``total_cores``, every
    group keeps at least one core, and no group shrinks below its floor.
    Largest remainder avoids Python's banker's rounding
    (``round(2.5) == 2``), which biased ``.5`` ideals toward even group
    sizes.  The repair loops run in ``O(g log g + d)`` for a core deficit
    ``d`` -- groups are ordered once and cycled through a deque, never
    re-sorted or re-scanned.
    """
    g = len(tseq)
    if len(floors) != g:
        raise ValueError(f"floors has {len(floors)} entries for {g} groups")
    if g == 0:
        return []
    if g > total_cores:
        raise ValueError(f"{g} groups cannot share {total_cores} cores")
    total_work = sum(tseq)
    floors = [max(f, 1) for f in floors]
    if sum(floors) > total_cores:
        raise ValueError("min_procs constraints exceed the available cores")
    if not math.isfinite(total_work):
        # a NaN/inf work sum would turn every ideal into NaN and crash
        # int(); degrade to the same equal-split path as zero work
        total_work = 0.0
    if total_work <= 0:
        # no work to weight by: aim for equal sizes, but go through the
        # same apportionment below so min_procs floors are still honoured
        ideal = [total_cores / g] * g
    else:
        ideal = [total_cores * w / total_work for w in tseq]
    # largest-remainder apportionment: floor, then hand the remaining
    # cores to the largest fractional parts (ties to the lower index)
    base = [int(x) for x in ideal]
    leftover = total_cores - sum(base)
    by_fraction = sorted(range(g), key=lambda i: (base[i] - ideal[i], i))
    for i in by_fraction[: max(0, leftover)]:
        base[i] += 1
    sizes = [max(f, b) for f, b in zip(floors, base)]
    # repair the floor clamping so sizes sum to total_cores
    diff = total_cores - sum(sizes)
    # fractional parts guide who gains/loses first; sorted once, then
    # cycled -- a group at its floor leaves the rotation for good (sizes
    # only shrink here, so it can never become shrinkable again)
    if diff > 0:
        order_gain = sorted(range(g), key=lambda i: (sizes[i] - ideal[i], i))
        k = 0
        while diff > 0:
            sizes[order_gain[k % g]] += 1
            diff -= 1
            k += 1
    elif diff < 0:
        order_lose = sorted(range(g), key=lambda i: (ideal[i] - sizes[i], i))
        rotation = deque(i for i in order_lose if sizes[i] > floors[i])
        while diff < 0:
            if not rotation:  # unreachable: feasibility checked above
                raise ValueError(
                    "cannot satisfy min_procs floors within total cores"
                )
            i = rotation.popleft()
            sizes[i] -= 1
            diff += 1
            if sizes[i] > floors[i]:
                rotation.append(i)
    return sizes
