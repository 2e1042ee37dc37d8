"""NIC contention modelling for concurrent communication phases.

The mapping experiments of the paper (Section 4.4) hinge on one physical
effect: all processes of a node share the node's single network interface.
When a communication phase makes ``k`` concurrent inter-node transfers
leave (or enter) the same node, each of them sees at most ``1/k`` of the
NIC injection bandwidth.  Intra-node transfers are not affected.

The *load* of a phase is the ``(out_count, in_count)`` pair of per-node
arrays :func:`node_counts` returns: how many concurrent inter-node
messages each node sends and receives.  :func:`edge_costs` charges every
inter-node message under a load with the effective bandwidth

``eff_beta = max(1/link_bw, out(node_src)/nic_bw, in(node_dst)/nic_bw)``.

Messages are given as dense core indices
(:meth:`~repro.cluster.architecture.Machine.core_index`).  What a price
reads of where its messages run -- their nodes, link levels, latencies
and betas -- is an :class:`EdgeTable`, built once by :func:`edge_table`;
:func:`edge_prices` prices it under a load, and :func:`edge_costs` is
the two in one call.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..cluster.architecture import (
    LEVEL_NETWORK,
    LEVEL_NODE,
    LEVEL_PROCESSOR,
    Machine,
)
from ..cluster.network import HierarchicalNetwork

__all__ = [
    "NicLoad", "EdgeTable", "link_levels", "edge_table", "edge_prices", "edge_costs", "node_counts"
]

#: The NIC load of a phase: concurrent inter-node messages leaving and
#: entering every node, the ``(out_count, in_count)`` arrays
#: :func:`node_counts` returns.
NicLoad = Tuple[np.ndarray, np.ndarray]


def link_levels(machine: Machine, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Communication level of every message from core index ``u[k]`` to
    ``v[k]``: :data:`~repro.cluster.architecture.LEVEL_NETWORK` across
    nodes, ``LEVEL_NODE`` across processors of one node, otherwise
    ``LEVEL_PROCESSOR`` (a self-message is level 0)."""
    nodes, procs = machine.core_nodes, machine.core_procs
    return np.where(
        nodes[u] != nodes[v],
        LEVEL_NETWORK,
        np.where(procs[u] != procs[v], LEVEL_NODE, LEVEL_PROCESSOR),
    )


def node_counts(machine: Machine, u: np.ndarray, v: np.ndarray) -> NicLoad:
    """Inter-node messages leaving and entering every node.

    ``u`` / ``v`` hold the core indices of the messages' senders and
    receivers; intra-node messages do not count.
    """
    nodes = machine.core_nodes
    node_u, node_v = nodes[u], nodes[v]
    inter = node_u != node_v
    return (
        np.bincount(node_u[inter], minlength=machine.num_nodes),
        np.bincount(node_v[inter], minlength=machine.num_nodes),
    )


class EdgeTable(NamedTuple):
    """What pricing the messages ``u[k] -> v[k]`` reads besides their
    bytes and the NIC load: fixed by where the messages run, so a caller
    that prices them under many loads builds it once
    (:func:`edge_table`) and prices it with :func:`edge_prices`."""

    node_u: np.ndarray
    node_v: np.ndarray
    #: the messages that cross nodes and so share a NIC
    inter: np.ndarray
    latency: np.ndarray
    beta: np.ndarray
    #: the self-messages, free; ``None`` when there is none
    local: Optional[np.ndarray]
    nic_bandwidth: float


def edge_table(
    machine: Machine, network: HierarchicalNetwork, u: np.ndarray, v: np.ndarray
) -> EdgeTable:
    """The load-independent part of pricing messages from core index
    ``u[k]`` to ``v[k]`` (arrays of any shape)."""
    nodes = machine.core_nodes
    level = link_levels(machine, u, v)
    local = u == v
    return EdgeTable(
        nodes[u],
        nodes[v],
        level == LEVEL_NETWORK,
        np.array([link.latency for link in network.levels])[level],
        np.array([link.beta for link in network.levels])[level],
        local if local.any() else None,
        network.nic_bandwidth,
    )


def edge_prices(
    table: EdgeTable, nbytes, out_count: np.ndarray, in_count: np.ndarray
) -> np.ndarray:
    """Cost of the messages of ``table`` sent at once, ``nbytes`` each
    (an array of the table's shape or a scalar), under the load
    ``out_count`` / ``in_count`` (at least 1 each)."""
    # inter-node: share the NIC among the phase's concurrent messages
    shared = np.maximum(
        out_count[table.node_u] / table.nic_bandwidth,
        in_count[table.node_v] / table.nic_bandwidth,
    )
    per_byte = np.where(table.inter, np.maximum(table.beta, shared), table.beta)
    cost = table.latency + nbytes * per_byte
    if table.local is not None:
        cost[table.local] = 0.0  # a self-message is already local
    return cost


def edge_costs(
    machine: Machine,
    network: HierarchicalNetwork,
    u: np.ndarray,
    v: np.ndarray,
    nbytes,
    out_count: np.ndarray,
    in_count: np.ndarray,
) -> np.ndarray:
    """Cost of many messages sent at once.

    Message ``k`` carries ``nbytes[k]`` (or the scalar ``nbytes``) bytes
    from core index ``u[k]`` to core index ``v[k]`` and costs the Hockney
    time ``alpha + nbytes * beta`` of its link level; ``out_count`` /
    ``in_count`` give the concurrent inter-node transfers per node, at
    least 1 each.  A self-message (``u[k] == v[k]``) is free: the data is
    already local.
    """
    return edge_prices(edge_table(machine, network, u, v), nbytes, out_count, in_count)
