"""Analytic cost models of MPI collective operations on mapped groups.

:func:`collective_time` takes the *physical* core tuples executing the
operation (the result of the mapping step), so the same collective is
cheaper or more expensive depending on where its participants sit in the
machine -- this is the mechanism behind Figures 14-17 of the paper.  It
prices one group or several groups running the operation at once, as
rounds of ``(sender, receiver)`` rank arrays priced by
:func:`~repro.comm.contention.edge_costs`.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.architecture import CoreId, Machine
from ..cluster.network import HierarchicalNetwork
from .contention import NicLoad, edge_costs, link_levels, node_counts

__all__ = ["collective_time", "collective_time_symbolic"]


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
    share no NIC.
    """
    if op not in _OPS:
        raise ValueError(f"unknown collective op {op!r}")
    if not groups:
        return 0.0
    flat = machine.core_index([c for g in groups for c in g])
    sizes = np.array([len(g) for g in groups])
    starts = np.cumsum(sizes) - sizes
    # groups of one size run the same rounds: one (groups x edges) block
    # of sender / receiver core indices per round
    blocks = {}
    for q in set(sizes[sizes > 1].tolist()):
        first = starts[sizes == q][:, None]
        blocks[q] = [(flat[first + s], flat[first + r]) for s, r in _rank_rounds(op, q)]
    if not blocks:
        return 0.0

    if load is None:
        idle = np.zeros(machine.num_nodes, dtype=np.intp)
        load = idle, idle
        shared = _SHARED_ROUND.get(op, (None, None))[len(groups) > 1]
        if shared is not None:
            loading = [edge for rounds in blocks.values() for edge in rounds[shared]]
            load = node_counts(
                machine,
                np.concatenate([u.ravel() for u, _ in loading]),
                np.concatenate([v.ravel() for _, v in loading]),
            )
    out_count, in_count = np.maximum(load[0], 1), np.maximum(load[1], 1)

    latency = np.array([link.latency for link in network.levels])
    beta = np.array([link.beta for link in network.levels])
    slowest = 0.0
    for q, rounds in blocks.items():
        if op in ("scatter", "gather", "barrier"):
            ((u, v),) = rounds
            level = link_levels(machine, u, v)
            if op == "barrier":
                per_group = ceil(log2(q)) * 2.0 * latency[level.max(axis=1)]
            else:  # one message after the other, summed in rank order
                message = latency[level] + (total_bytes / q) * beta[level]
                per_group = np.cumsum(message, axis=1)[:, -1]
        else:
            nbytes = total_bytes if op in ("bcast", "reduce", "ptp") else total_bytes / q
            costs = [
                edge_costs(machine, network, u, v, nbytes, out_count, in_count).max(axis=1)
                for u, v in rounds
            ]
            if op == "allgather":
                per_group = (q - 1) * costs[0]
            elif op == "allreduce":
                per_group = 2.0 * ((q - 1) * costs[0])
            else:
                per_group = sum(costs)
        slowest = max(slowest, float(per_group.max()))
    return slowest


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
