"""Communication patterns of task-parallel programs (Section 4.2).

The ODE program versions of the paper use three pattern classes:

* **global** -- a collective over *all* available cores,
* **group-based** -- a collective within the cores of one M-task's group
  (e.g. ``{s1, s2, s3, s4}`` in Fig. 9),
* **orthogonal** -- concurrent collectives over cores holding the *same
  rank position* in different concurrently executing groups (e.g.
  ``{s1, s5, s9, s13}`` in Fig. 9).

This module constructs the orthogonal core sets of a layer's mapped
groups.  Costing is done by :class:`repro.comm.collectives.CollectiveRounds`
(global: one group of all cores; group-based: the task's own group); the
orthogonal pattern always executes its collectives concurrently, so its
cost includes cross-set contention.  :class:`CommPlan` keeps the tables
of all three patterns for a caller that prices many requests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..cluster.architecture import CoreId, Machine
from ..cluster.network import HierarchicalNetwork
from .collectives import CollectiveRounds

__all__ = ["CommPlan", "orthogonal_rounds", "orthogonal_sets", "orthogonal_time"]


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


def orthogonal_rounds(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    groups: Sequence[np.ndarray],
) -> CollectiveRounds:
    """:class:`~repro.comm.collectives.CollectiveRounds` of ``op`` over the
    orthogonal sets of equal-sized groups given as dense core index
    arrays.  Set ``j`` is column ``j`` of the stacked groups, sorted: the
    dense order is the sorted :class:`CoreId` order, so these are the
    sets :func:`orthogonal_sets` builds."""
    if any(len(g) != len(groups[0]) for g in groups):
        raise ValueError("orthogonal sets require equal-sized groups")
    sets = np.sort(np.stack(groups), axis=0).T if groups else []
    return CollectiveRounds(op, machine, network, sets)


def orthogonal_time(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    groups: Sequence[Sequence[CoreId]],
    total_bytes: float,
) -> float:
    """Concurrent collectives over the orthogonal core sets of ``groups``."""
    indices = [machine.core_index(g) for g in groups]
    return orthogonal_rounds(op, machine, network, indices).time(total_bytes)


class CommPlan:
    """The round tables of every collective one caller prices on one
    machine, each built on first use.

    A table depends only on the operation and the core tuples it runs on
    (:class:`~repro.comm.collectives.CollectiveRounds`), so a caller that
    prices many requests -- :func:`repro.sim.executor.simulate`, one plan
    per call -- builds each once and afterwards pays only for the prices.
    A core tuple gets a group id and a dense index array the first time
    the plan sees its value; the plan keeps every object it was handed,
    so it knows it again by ``id`` without hashing its cores.
    """

    def __init__(self, machine: Machine, network: HierarchicalNetwork) -> None:
        self.machine = machine
        self.network = network
        #: distinct core tuples and their dense core indices, by group id
        self.tuples: List[Tuple[CoreId, ...]] = []
        self.index: List[np.ndarray] = []
        self._by_value: Dict[Tuple[CoreId, ...], int] = {}
        self._by_object: Dict[int, Tuple[Sequence[CoreId], int]] = {}
        self._tables: Dict[tuple, CollectiveRounds] = {}

    def group(self, cores: Sequence[CoreId]) -> int:
        """The group id of ``cores`` (a tuple or a list)."""
        known = self._by_object.get(id(cores))
        if known is not None:
            return known[1]
        value = tuple(cores)
        g = self._by_value.get(value)
        if g is None:
            g = self._by_value[value] = len(self.tuples)
            self.tuples.append(value)
            self.index.append(self.machine.core_index(value))
            self._by_object[id(value)] = (value, g)
        self._by_object[id(cores)] = (cores, g)
        return g

    def collective(self, op: str, cores: Sequence[CoreId]) -> CollectiveRounds:
        """The table of ``op`` run by the one group ``cores``."""
        key = (op, self.group(cores))
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = CollectiveRounds(
                op, self.machine, self.network, [self.index[key[1]]]
            )
        return table

    def orthogonal(self, op: str, groups: Sequence[Sequence[CoreId]]) -> CollectiveRounds:
        """The table of ``op`` over the orthogonal sets of the distinct,
        equal-sized ``groups``; the sets do not depend on the groups'
        order, so neither does the key."""
        key = (op, tuple(sorted(self.group(g) for g in groups)))
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = orthogonal_rounds(
                op, self.machine, self.network, [self.index[g] for g in key[1]]
            )
        return table
