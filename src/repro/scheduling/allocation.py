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
from typing import Callable, Dict, List, Optional, Sequence

from ..core.task import MTask

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
) -> List[List[int]]:
    """Longest-processing-time-first assignment of task indices to ``g``
    subsets.

    ``order`` lists the indices by decreasing ``times`` with a
    deterministic tie-break; each goes to the subset with the smallest
    accumulated time (the modified greedy scheduler with 4/3
    sub-optimality bound referenced in Section 3.2), ties to the
    lowest-indexed subset.  The open subsets live in a min-heap keyed on
    ``(load, index)``, so one assignment costs ``O(log g)``.  The
    ``g``-search calls it with one sort per distinct cost column, which
    serves every candidate ``g`` probing that column.
    """
    if g <= 0:
        # the historical behaviour was an IndexError on heap[0] for any
        # non-empty order; fail with the same contract equal_partition uses
        raise ValueError("g must be positive")
    groups: List[List[int]] = [[] for _ in range(g)]
    heap = [(0.0, l) for l in range(g)]  # ascending indices: already a heap
    replace = heapq.heapreplace
    for i in order:
        load, l = heap[0]
        groups[l].append(i)
        replace(heap, (load + times[i], l))
    return groups


def adjust_group_sizes(
    groups: Sequence[Sequence[MTask]],
    seq_work: Callable[[MTask], float],
    total_cores: int,
    tseq: Optional[Sequence[float]] = None,
) -> List[int]:
    """Group adjustment: sizes proportional to accumulated sequential work.

    ``g_l = P * Tseq(G_l) / sum_j Tseq(G_j)`` apportioned by the largest
    remainder (floor everyone, hand the leftover cores to the largest
    fractional parts), so the sizes sum to ``total_cores``, every group
    keeps at least one core, and no group shrinks below the ``min_procs``
    of its widest task.  Largest remainder avoids Python's banker's
    rounding (``round(2.5) == 2``), which biased ``.5`` ideals toward
    even group sizes.

    ``tseq`` optionally supplies the per-group accumulated sequential
    work (one float per group, summed in group order); callers that
    already hold batch-evaluated costs pass it to skip the per-task
    ``seq_work`` probes.  The repair loops run in ``O(g log g + d)`` for
    a core deficit ``d`` -- groups are ordered once and cycled through a
    deque, never re-sorted or re-scanned.
    """
    g = len(groups)
    if g == 0:
        return []
    if g > total_cores:
        raise ValueError(f"{g} groups cannot share {total_cores} cores")
    if tseq is None:
        tseq = [sum(seq_work(t) for t in grp) for grp in groups]
    else:
        tseq = list(tseq)
        if len(tseq) != g:
            raise ValueError(f"tseq has {len(tseq)} entries for {g} groups")
    total_work = sum(tseq)
    floors = [max((max((t.min_procs for t in grp), default=1)), 1) for grp in groups]
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
