"""Analytic cost models of MPI collective operations on mapped groups.

:func:`collective_time` takes the *physical* core tuples executing the
operation (the result of the mapping step), so the same collective is
cheaper or more expensive depending on where its participants sit in the
machine -- this is the mechanism behind Figures 14-17 of the paper.  It
prices one group or several groups running the operation at once, as
rounds of ``(sender, receiver)`` rank arrays priced by
:func:`~repro.comm.contention.edge_prices`.  The rounds of one operation
on one set of groups do not depend on the load, so they are a
:class:`CollectiveRounds` table a caller can build once and price under
many loads; :func:`collective_time` builds one for a single price.

Algorithms modelled (following the MPI implementations the paper used):

* ``allgather`` -- ring algorithm for large messages (explicitly named in
  Section 4.4 as the cause of the consecutive mapping's advantage):
  ``q - 1`` rounds, each rank forwards a ``n/q`` chunk to its ring
  neighbour.
* ``bcast`` / ``reduce`` -- binomial tree over the rank sequence.
* ``allreduce`` -- ring reduce-scatter followed by ring allgather.
* ``scatter`` / ``gather`` -- linear, serialised at the root.
* ``alltoall`` -- ``q - 1`` shifted pairwise exchange rounds.
* ``ptp`` -- a single point-to-point message (ranks 0 and 1).
* ``barrier`` -- dissemination, latency-only.

*Symbolic* variants (suffix ``_symbolic``) implement the default mapping
pattern ``dmp`` of Section 3.2: all traffic is charged at the slowest
network level, giving the upper-bound cost ``Tsymb`` used during
scheduling, before any physical mapping exists.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.architecture import CoreId, Machine
from ..cluster.network import HierarchicalNetwork
from .contention import NicLoad, edge_prices, edge_table, link_levels, node_counts

__all__ = ["CollectiveRounds", "collective_time", "collective_time_symbolic"]


_FIRST, _LAST, _ALL = slice(0, 1), slice(-1, None), slice(None)

#: Round-structured collectives and the rounds whose inter-node edges load
#: the NICs when no load is given: (one group priced alone, several groups
#: running the operation at once); ``None``: no round does.  The two
#: columns differ for bcast / reduce and allreduce (EXPERIMENTS.md).
_SHARED_ROUND = {
    "allgather": (_FIRST, _FIRST),
    "allreduce": (_FIRST, None),
    "bcast": (_ALL, _LAST),
    "reduce": (_ALL, _LAST),
    "alltoall": (_FIRST, _FIRST),
}

_OPS = (*_SHARED_ROUND, "scatter", "gather", "ptp", "barrier")


def _rank_rounds(op: str, q: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rounds of ``op`` among ``q >= 2`` ranks as ``(sender, receiver)``
    rank arrays.

    Ring (allgather, allreduce): rank ``i`` sends to ``i + 1 mod q``.
    Shifted pairwise exchange (alltoall): round ``r`` sends ``i`` to
    ``i + r mod q``.  Binomial tree (bcast, reduce): round ``k`` sends
    ``i`` to ``i + 2**k``.  Root to every other rank (scatter, gather,
    barrier); rank 0 to rank 1 (ptp).
    """
    ranks = np.arange(q)
    if op in ("allgather", "allreduce"):
        return [(ranks, (ranks + 1) % q)]
    if op == "alltoall":
        return [(ranks, (ranks + r) % q) for r in range(1, q)]
    if op in ("scatter", "gather", "barrier"):
        return [(np.zeros(q - 1, dtype=ranks.dtype), ranks[1:])]
    if op == "ptp":
        return [(ranks[:1], ranks[1:2])]
    rounds = []
    span = 1
    while span < q:
        senders = ranks[: min(span, q - span)]
        rounds.append((senders, senders + span))
        span *= 2
    return rounds


class CollectiveRounds:
    """One collective run at once by several groups, with everything its
    price reads except the bytes and the NIC load.

    ``groups`` are the groups' dense core index arrays, each in rank
    order.  Groups of one size run the same rounds: their messages are one
    (groups x edges) :class:`~repro.comm.contention.EdgeTable`, the rounds
    side by side, built here once; :meth:`time` prices it under a load.
    The load the groups' own rounds put on the NICs
    (:data:`_SHARED_ROUND`) is counted here too, as is the whole price of
    a barrier, which reads neither.
    """

    def __init__(
        self,
        op: str,
        machine: Machine,
        network: HierarchicalNetwork,
        groups: Sequence[np.ndarray],
    ) -> None:
        if op not in _OPS:
            raise ValueError(f"unknown collective op {op!r}")
        self.op = op
        #: per group size: the edge table and the first column of every
        #: round, or a barrier's price per group
        self.blocks: Dict[int, object] = {}
        idle = np.zeros(machine.num_nodes, dtype=np.intp)
        #: the load of :meth:`time` without one
        self.default_load: NicLoad = (idle, idle)
        sizes = np.array([len(g) for g in groups], dtype=np.intp)
        if not (sizes > 1).any():
            return
        flat = np.concatenate(groups)
        starts = np.cumsum(sizes) - sizes
        shared = _SHARED_ROUND.get(op, (None, None))[len(groups) > 1]
        loading = []
        for q in set(sizes[sizes > 1].tolist()):
            rounds = _rank_rounds(op, q)
            first = starts[sizes == q][:, None]
            u = flat[first + np.concatenate([s for s, _ in rounds])]
            v = flat[first + np.concatenate([r for _, r in rounds])]
            if op == "barrier":
                latency = np.array([link.latency for link in network.levels])
                level = link_levels(machine, u, v).max(axis=1)
                self.blocks[q] = ceil(log2(q)) * 2.0 * latency[level]
                continue
            columns = [np.arange(len(s)) for s, _ in rounds]
            bounds = np.cumsum([0] + [len(c) for c in columns[:-1]])
            self.blocks[q] = (edge_table(machine, network, u, v), bounds)
            if shared is not None:
                cols = np.concatenate([c + b for c, b in zip(columns, bounds)][shared])
                loading.append((u[:, cols].ravel(), v[:, cols].ravel()))
        if loading:
            self.default_load = node_counts(
                machine,
                np.concatenate([u for u, _ in loading]),
                np.concatenate([v for _, v in loading]),
            )

    def time(self, total_bytes: float, load: Optional[NicLoad] = None) -> float:
        """Time of the operation on ``total_bytes`` under ``load``
        (:attr:`default_load` when ``None``): each group runs the algorithm
        over its rank order, a round ends with its slowest edge, and the
        phase with the slowest group."""
        op = self.op
        if op not in ("scatter", "gather", "barrier"):
            if load is None:
                load = self.default_load
            out_count, in_count = np.maximum(load[0], 1), np.maximum(load[1], 1)
        slowest = 0.0
        for q, block in self.blocks.items():
            if op == "barrier":
                per_group = block
            elif op in ("scatter", "gather"):
                # one message after the other, summed in rank order
                edges, _ = block
                message = edges.latency + (total_bytes / q) * edges.beta
                per_group = np.cumsum(message, axis=1)[:, -1]
            else:
                edges, bounds = block
                nbytes = total_bytes if op in ("bcast", "reduce", "ptp") else total_bytes / q
                prices = edge_prices(edges, nbytes, out_count, in_count)
                rounds = np.maximum.reduceat(prices, bounds, axis=1)
                if op == "allgather":
                    per_group = (q - 1) * rounds[:, 0]
                elif op == "allreduce":
                    per_group = 2.0 * ((q - 1) * rounds[:, 0])
                else:  # the rounds one after the other
                    per_group = np.cumsum(rounds, axis=1)[:, -1]
            slowest = max(slowest, float(per_group.max()))
        return slowest


def collective_time(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    groups: Sequence[Sequence[CoreId]],
    total_bytes: float,
    load: Optional[NicLoad] = None,
) -> float:
    """Time of ``op`` run at once by every group of ``groups``.

    One group is a phase on its own; several are the Intel MPI
    *Multi-Allgather* benchmark of Fig. 14 (right) or the orthogonal sets
    of a layer.  Each group runs the algorithm over its rank order (the
    mapping's core sequence), a round ends with its slowest edge, and the
    phase with the slowest group.

    ``load`` is the :data:`~repro.comm.contention.NicLoad` every
    inter-node edge shares its NIC under.  Without it, the groups' own rounds named in
    :data:`_SHARED_ROUND` load the NICs.  Scatter, gather and barrier
    share no NIC.  The core tuples are converted to index arrays and
    priced by :class:`CollectiveRounds`.
    """
    rounds = CollectiveRounds(op, machine, network, [machine.core_index(g) for g in groups])
    return rounds.time(total_bytes, load)


# ----------------------------------------------------------------------
# Symbolic (pre-mapping) costs: the default mapping pattern dmp
# ----------------------------------------------------------------------
def collective_time_symbolic(
    op: str,
    network: HierarchicalNetwork,
    q: int,
    total_bytes: float,
) -> float:
    """Upper-bound cost of a collective on ``q`` symbolic cores.

    Implements ``Tsymb`` of Section 3.2: every transfer is charged at the
    slowest level of the interconnect hierarchy (the default mapping
    pattern ``dmp``), making the value an upper limit of the cost on any
    physical placement without contention.
    """
    if q < 2:
        return 0.0
    lvl = network.slowest_level
    alpha, beta = network.alpha(lvl), network.beta(lvl)
    if op == "allgather":
        return (q - 1) * (alpha + (total_bytes / q) * beta)
    if op in ("bcast", "reduce"):
        return ceil(log2(q)) * (alpha + total_bytes * beta)
    if op == "allreduce":
        return 2 * (q - 1) * (alpha + (total_bytes / q) * beta)
    if op in ("scatter", "gather"):
        return (q - 1) * (alpha + (total_bytes / q) * beta)
    if op == "alltoall":
        return (q - 1) * (alpha + (total_bytes / q) * beta)
    if op == "ptp":
        return alpha + total_bytes * beta
    if op == "barrier":
        return ceil(log2(q)) * 2.0 * alpha
    raise ValueError(f"unknown collective op {op!r}")
