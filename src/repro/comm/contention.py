"""NIC contention modelling for concurrent communication phases.

The mapping experiments of the paper (Section 4.4) hinge on one physical
effect: all processes of a node share the node's single network interface.
When a communication phase makes ``k`` concurrent inter-node transfers
leave (or enter) the same node, each of them sees at most ``1/k`` of the
NIC injection bandwidth.  Intra-node transfers are not affected.

:class:`ContentionContext` captures, for one communication phase, how many
concurrent inter-node messages each node sends and receives.  Collective
cost models build a context from the edges of one round of the collective
(plus the rounds of any *concurrently executing* collectives, e.g. the
group-based allgathers of different M-tasks of the same layer) and charge
every inter-node edge with the effective bandwidth

``eff_beta = max(1/link_bw, out(node_src)/nic_bw, in(node_dst)/nic_bw)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..cluster.architecture import (
    LEVEL_NETWORK,
    LEVEL_NODE,
    LEVEL_PROCESSOR,
    CoreId,
    Machine,
)
from ..cluster.network import HierarchicalNetwork

__all__ = [
    "ContentionContext",
    "build_context",
    "edge_cost",
    "edge_costs",
    "node_counts",
    "Edge",
]

Edge = Tuple[CoreId, CoreId]


@dataclass(frozen=True)
class ContentionContext:
    """Concurrent inter-node message counts per node for one phase."""

    out_per_node: Dict[int, int] = field(default_factory=dict)
    in_per_node: Dict[int, int] = field(default_factory=dict)

    def out_count(self, node: int) -> int:
        """Concurrent outgoing transfers at ``node`` (at least 1)."""
        return max(1, self.out_per_node.get(node, 0))

    def in_count(self, node: int) -> int:
        """Concurrent incoming transfers at ``node`` (at least 1)."""
        return max(1, self.in_per_node.get(node, 0))

    @staticmethod
    def none() -> "ContentionContext":
        """Context with no contention (every count treated as one)."""
        return ContentionContext()

    @staticmethod
    def from_counts(out: np.ndarray, inc: np.ndarray) -> "ContentionContext":
        """Context from per-node count arrays (see :func:`node_counts`)."""
        return ContentionContext(
            out_per_node={int(n): int(out[n]) for n in np.flatnonzero(out)},
            in_per_node={int(n): int(inc[n]) for n in np.flatnonzero(inc)},
        )

    def counts(self, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(out_count, in_count)`` of nodes ``0..num_nodes-1`` as arrays,
        the form :func:`edge_costs` takes."""

        def dense(per_node: Dict[int, int]) -> np.ndarray:
            table = np.ones(num_nodes, dtype=np.intp)
            if per_node:
                table[list(per_node)] = np.maximum(list(per_node.values()), 1)
            return table

        return dense(self.out_per_node), dense(self.in_per_node)


def build_context(machine: Machine, edge_lists: Iterable[Sequence[Edge]]) -> ContentionContext:
    """Aggregate the inter-node edges of several concurrent rounds.

    ``edge_lists`` contains, for every collective running concurrently in
    the phase, the edges of one of its rounds.  Only inter-node edges
    contribute to contention.
    """
    out: Counter = Counter()
    inc: Counter = Counter()
    for edges in edge_lists:
        for u, v in edges:
            if machine.comm_level(u, v) == LEVEL_NETWORK:
                out[u.node] += 1
                inc[v.node] += 1
    return ContentionContext(out_per_node=dict(out), in_per_node=dict(inc))


def edge_cost(
    machine: Machine,
    network: HierarchicalNetwork,
    u: CoreId,
    v: CoreId,
    nbytes: float,
    ctx: ContentionContext,
) -> float:
    """Cost of one ``nbytes`` message from core ``u`` to core ``v``.

    A self-message (``u == v``) is free: the data is already local.
    """
    if u == v:
        return 0.0
    lvl = machine.comm_level(u, v)
    link = network.level(lvl)
    if lvl < LEVEL_NETWORK:
        return link.latency + nbytes * link.beta
    # inter-node: share the NIC among the phase's concurrent messages
    per_byte = max(
        link.beta,
        ctx.out_count(u.node) / network.nic_bandwidth,
        ctx.in_count(v.node) / network.nic_bandwidth,
    )
    return link.latency + nbytes * per_byte


def node_counts(
    machine: Machine, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Inter-node messages leaving and entering every node.

    ``u`` / ``v`` hold the dense core indices
    (:meth:`~repro.cluster.architecture.Machine.core_index`) of the edges'
    senders and receivers; intra-node edges do not count.
    """
    nodes = machine.core_nodes
    node_u, node_v = nodes[u], nodes[v]
    inter = node_u != node_v
    return (
        np.bincount(node_u[inter], minlength=machine.num_nodes),
        np.bincount(node_v[inter], minlength=machine.num_nodes),
    )


def edge_costs(
    machine: Machine,
    network: HierarchicalNetwork,
    u: np.ndarray,
    v: np.ndarray,
    nbytes,
    out_count: np.ndarray,
    in_count: np.ndarray,
) -> np.ndarray:
    """:func:`edge_cost` of many messages at once.

    Message ``k`` carries ``nbytes[k]`` (or the scalar ``nbytes``) bytes
    from core index ``u[k]`` to core index ``v[k]``; ``out_count`` /
    ``in_count`` give the concurrent inter-node transfers per node, at
    least 1 each.  Every entry equals the scalar :func:`edge_cost` bit
    for bit -- the same operations in the same order, element-wise.
    """
    nodes, procs = machine.core_nodes, machine.core_procs
    node_u, node_v = nodes[u], nodes[v]
    inter = node_u != node_v
    level = np.where(
        inter, LEVEL_NETWORK, np.where(procs[u] != procs[v], LEVEL_NODE, LEVEL_PROCESSOR)
    )
    latency = np.array([link.latency for link in network.levels])[level]
    per_byte = np.array([link.beta for link in network.levels])[level]
    # inter-node: share the NIC among the phase's concurrent messages
    shared = np.maximum(
        out_count[node_u] / network.nic_bandwidth,
        in_count[node_v] / network.nic_bandwidth,
    )
    per_byte = np.where(inter, np.maximum(per_byte, shared), per_byte)
    cost = latency + nbytes * per_byte
    cost[u == v] = 0.0  # a self-message is already local
    return cost


def round_cost(
    machine: Machine,
    network: HierarchicalNetwork,
    edges: Sequence[Edge],
    nbytes: float,
    ctx: ContentionContext,
) -> float:
    """Duration of one communication round: all edges fire concurrently,
    the round ends when the slowest edge completes."""
    if not edges:
        return 0.0
    return max(edge_cost(machine, network, u, v, nbytes, ctx) for u, v in edges)
