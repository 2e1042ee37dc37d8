"""Communication patterns of task-parallel programs (Section 4.2).

The ODE program versions of the paper use three pattern classes:

* **global** -- a collective over *all* available cores,
* **group-based** -- a collective within the cores of one M-task's group
  (e.g. ``{s1, s2, s3, s4}`` in Fig. 9),
* **orthogonal** -- concurrent collectives over cores holding the *same
  rank position* in different concurrently executing groups (e.g.
  ``{s1, s5, s9, s13}`` in Fig. 9).

This module constructs the orthogonal core sets of a layer's mapped
groups.  Costing is done by :func:`repro.comm.collectives.collective_time`
(global: one group of all cores; group-based: the task's own group); the
orthogonal pattern always executes its collectives concurrently, so its
cost includes cross-set contention.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cluster.architecture import CoreId, Machine
from ..cluster.network import HierarchicalNetwork
from .collectives import collective_time

__all__ = ["orthogonal_sets", "orthogonal_time"]


def orthogonal_sets(groups: Sequence[Sequence[CoreId]]) -> List[List[CoreId]]:
    """Orthogonal core sets of equal-sized concurrent groups.

    Set ``j`` collects the core at position ``j`` of every group.  All
    groups must have equal size (the paper's orthogonal operations only
    occur between the equally-sized stage-vector groups).

    Each set is sorted by physical core id, so ring/tree algorithms
    inside the set communicate between co-located members first.  The
    M-task runtime controls the rank order when it creates the
    orthogonal sub-communicators, so ordering them locality-aware is
    free -- and it is what lets the mixed mapping profit on orthogonal
    operations (members of groups ``l`` and ``l + g/2`` share nodes
    under ``mixed(d)``).
    """
    if not groups:
        return []
    size = len(groups[0])
    if any(len(g) != size for g in groups):
        raise ValueError("orthogonal sets require equal-sized groups")
    return [sorted(g[j] for g in groups) for j in range(size)]


def orthogonal_time(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    groups: Sequence[Sequence[CoreId]],
    total_bytes: float,
) -> float:
    """Concurrent collectives over the orthogonal core sets of ``groups``."""
    sets = orthogonal_sets(groups)
    return collective_time(op, machine, network, sets, total_bytes)
