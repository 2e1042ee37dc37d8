"""Analytic cost models of MPI collective operations on mapped groups.

Every model takes the *physical* core tuple executing the operation (the
result of the mapping step), so the same collective is cheaper or more
expensive depending on where its participants sit in the machine -- this
is the mechanism behind Figures 14-17 of the paper.

Algorithms modelled (following the MPI implementations the paper used):

* ``allgather`` -- ring algorithm for large messages (explicitly named in
  Section 4.4 as the cause of the consecutive mapping's advantage):
  ``q - 1`` rounds, each rank forwards a ``n/q`` chunk to its ring
  neighbour.
* ``bcast`` / ``reduce`` -- binomial tree over the rank sequence.
* ``allreduce`` -- ring reduce-scatter followed by ring allgather.
* ``scatter`` / ``gather`` -- linear, serialised at the root.
* ``alltoall`` -- ``q - 1`` shifted pairwise exchange rounds.
* ``ptp`` -- a single point-to-point message.
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
from .contention import (
    ContentionContext,
    Edge,
    build_context,
    edge_costs,
    node_counts,
    round_cost,
)

__all__ = [
    "ring_edges",
    "binomial_rounds",
    "alltoall_rounds",
    "allgather_time",
    "bcast_time",
    "reduce_time",
    "allreduce_time",
    "scatter_time",
    "gather_time",
    "alltoall_time",
    "ptp_time",
    "barrier_time",
    "collective_time",
    "collective_time_symbolic",
    "multi_group_time",
]


# ----------------------------------------------------------------------
# Round/edge construction
# ----------------------------------------------------------------------
def ring_edges(group: Sequence[CoreId]) -> List[Edge]:
    """Edges of one ring round: rank ``i`` sends to rank ``i + 1 mod q``."""
    q = len(group)
    if q < 2:
        return []
    return [(group[i], group[(i + 1) % q]) for i in range(q)]


def binomial_rounds(group: Sequence[CoreId]) -> List[List[Edge]]:
    """Rounds of a binomial broadcast tree rooted at rank 0."""
    q = len(group)
    rounds: List[List[Edge]] = []
    span = 1
    while span < q:
        edges = [
            (group[i], group[i + span]) for i in range(span) if i + span < q
        ]
        rounds.append(edges)
        span *= 2
    return rounds


def alltoall_rounds(group: Sequence[CoreId]) -> List[List[Edge]]:
    """Shifted pairwise exchange: round ``r`` sends rank ``i`` -> ``i+r``."""
    q = len(group)
    return [
        [(group[i], group[(i + r) % q]) for i in range(q)] for r in range(1, q)
    ]


def _default_ctx(machine: Machine, edges: Sequence[Edge], ctx: Optional[ContentionContext]) -> ContentionContext:
    return ctx if ctx is not None else build_context(machine, [edges])


# ----------------------------------------------------------------------
# Mapped collective costs
# ----------------------------------------------------------------------
def allgather_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Ring ``MPI_Allgather`` of a ``total_bytes`` result (each rank
    contributes ``total_bytes / q``)."""
    q = len(group)
    if q < 2:
        return 0.0
    chunk = total_bytes / q
    edges = ring_edges(group)
    ctx = _default_ctx(machine, edges, ctx)
    return (q - 1) * round_cost(machine, network, edges, chunk, ctx)


def bcast_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Binomial-tree ``MPI_Bcast`` of ``total_bytes`` from rank 0."""
    q = len(group)
    if q < 2:
        return 0.0
    rounds = binomial_rounds(group)
    if ctx is None:
        ctx = build_context(machine, rounds)
    return sum(round_cost(machine, network, e, total_bytes, ctx) for e in rounds)


def reduce_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Binomial-tree ``MPI_Reduce``; same communication shape as bcast."""
    return bcast_time(machine, network, group, total_bytes, ctx)


def allreduce_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Rabenseifner-style allreduce: reduce-scatter + allgather rings."""
    return 2.0 * allgather_time(machine, network, group, total_bytes, ctx)


def scatter_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Linear ``MPI_Scatter`` serialised at root (rank 0)."""
    q = len(group)
    if q < 2:
        return 0.0
    chunk = total_bytes / q
    root = group[0]
    ctx = ctx or ContentionContext.none()
    total = 0.0
    for dst in group[1:]:
        lvl = machine.comm_level(root, dst)
        link = network.level(lvl)
        total += link.latency + chunk * link.beta
    return total


def gather_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Linear ``MPI_Gather``; mirror image of scatter."""
    return scatter_time(machine, network, group, total_bytes, ctx)


def alltoall_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Pairwise-exchange ``MPI_Alltoall``; each rank sends ``n/q`` to each
    other rank."""
    q = len(group)
    if q < 2:
        return 0.0
    chunk = total_bytes / q
    rounds = alltoall_rounds(group)
    if ctx is None:
        ctx = build_context(machine, rounds[:1])
    return sum(round_cost(machine, network, e, chunk, ctx) for e in rounds)


def ptp_time(
    machine: Machine,
    network: HierarchicalNetwork,
    src: CoreId,
    dst: CoreId,
    nbytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """A single point-to-point message."""
    from .contention import edge_cost

    return edge_cost(machine, network, src, dst, nbytes, ctx or ContentionContext.none())


def barrier_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float = 0.0,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Dissemination barrier: ``ceil(log2 q)`` latency-bound rounds."""
    q = len(group)
    if q < 2:
        return 0.0
    worst = max(
        machine.comm_level(group[0], c) for c in group[1:]
    )
    return ceil(log2(q)) * 2.0 * network.alpha(worst)


_MAPPED = {
    "allgather": allgather_time,
    "bcast": bcast_time,
    "reduce": reduce_time,
    "allreduce": allreduce_time,
    "scatter": scatter_time,
    "gather": gather_time,
    "alltoall": alltoall_time,
    "barrier": barrier_time,
}


def collective_time(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Dispatch a collective cost by operation name.

    ``ptp`` interprets the first two group members as source/destination.
    """
    if op == "ptp":
        if len(group) < 2:
            return 0.0
        return ptp_time(machine, network, group[0], group[1], total_bytes, ctx)
    try:
        fn = _MAPPED[op]
    except KeyError:
        raise ValueError(f"unknown collective op {op!r}") from None
    return fn(machine, network, group, total_bytes, ctx)


#: Round-structured collectives and the round whose inter-node edges load
#: the NICs while several groups run the operation at once (``None``: the
#: groups' rounds do not contend).
_SHARED_ROUND = {
    "allgather": 0,
    "allreduce": None,
    "bcast": -1,
    "reduce": -1,
    "alltoall": 0,
}


def _rank_rounds(op: str, q: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rounds of ``op`` among ``q >= 2`` ranks as ``(sender, receiver)``
    rank arrays -- :func:`ring_edges`, :func:`binomial_rounds` and
    :func:`alltoall_rounds` on rank positions."""
    ranks = np.arange(q)
    if op in ("allgather", "allreduce"):
        return [(ranks, (ranks + 1) % q)]
    if op == "alltoall":
        return [(ranks, (ranks + r) % q) for r in range(1, q)]
    rounds = []
    span = 1
    while span < q:
        senders = ranks[: min(span, q - span)]
        rounds.append((senders, senders + span))
        span *= 2
    return rounds


def multi_group_time(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    groups: Sequence[Sequence[CoreId]],
    total_bytes: float,
) -> float:
    """Concurrent execution of the same collective in several groups
    (the Intel MPI *Multi-Allgather* benchmark of Fig. 14 right).

    All groups run simultaneously; the shared-NIC contention of every
    group's rounds is aggregated, and the phase ends when the slowest
    group finishes.  Equals ``max`` over the groups of
    :func:`collective_time` under that shared context; the rounds of all
    groups are priced together by :func:`~repro.comm.contention.edge_costs`.
    """
    if not groups:
        return 0.0
    if op not in _SHARED_ROUND:  # serialised or latency-only: nothing is shared
        uncontended = ContentionContext.none()
        return max(
            collective_time(op, machine, network, g, total_bytes, uncontended)
            for g in groups
        )

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

    out = inc = np.zeros(machine.num_nodes, dtype=np.intp)
    shared = _SHARED_ROUND[op]
    if shared is not None:
        out, inc = node_counts(
            machine,
            np.concatenate([rounds[shared][0].ravel() for rounds in blocks.values()]),
            np.concatenate([rounds[shared][1].ravel() for rounds in blocks.values()]),
        )
    out_count, in_count = np.maximum(out, 1), np.maximum(inc, 1)

    slowest = 0.0
    for q, rounds in blocks.items():
        nbytes = total_bytes if op in ("bcast", "reduce") else total_bytes / q
        # a round ends with its slowest edge: one cost per group and round
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
