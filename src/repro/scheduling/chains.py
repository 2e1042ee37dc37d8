"""Linear-chain identification and contraction (step 1 of Algorithm 1).

A *linear chain* is a maximal path ``t_1 -> t_2 -> .. -> t_n`` (n >= 2) in
the M-task graph where every node but the entry has exactly one
predecessor (its chain predecessor) and every node but the exit has
exactly one successor (its chain successor).  Replacing each maximal
chain by a single node guarantees that its members are later scheduled
onto the same group of cores, avoiding re-distribution between them --
e.g. the micro-steps of one approximation of the extrapolation method
(Fig. 5 left).

The contracted node accumulates the members' computational work and
internal communication; edges entering the entry / leaving the exit are
re-attached to the contracted node with their original data flows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.graph import DataFlow, TaskGraph
from ..core.task import MTask

__all__ = ["find_linear_chains", "contract_chains"]


def find_linear_chains(graph: TaskGraph) -> List[List[MTask]]:
    """All maximal linear chains with at least two members.

    Chains are disjoint; members are returned in execution order.  The
    pass reads the graph's stored adjacency -- one topological sweep
    plus one step per chain edge, strictly O(V + E), nothing copied.
    """
    succ = graph.successor_index()
    pred = graph.predecessor_index()

    chains: List[List[MTask]] = []
    for t in graph.topological_order():
        preds = pred[t]
        if len(preds) == 1 and len(succ[next(iter(preds))]) == 1:
            continue  # not a chain head; will be reached from its head
        # u -> v may be merged iff v is u's only successor and u is v's
        # only predecessor
        chain = [t]
        succs = succ[t]
        while len(succs) == 1:
            (nxt,) = succs
            if len(pred[nxt]) != 1:
                break
            chain.append(nxt)
            succs = succ[nxt]
        if len(chain) >= 2:
            chains.append(chain)
    return chains


def _merge_chain(chain: List[MTask]) -> MTask:
    """Build the contracted node of a chain."""
    work = sum(t.work for t in chain)
    comm = tuple(c for t in chain for c in t.comm)
    min_procs = max(t.min_procs for t in chain)
    max_candidates = [t.max_procs for t in chain if t.max_procs is not None]
    max_procs = min(max_candidates) if max_candidates else None
    sync_points = sum(t.sync_points for t in chain)
    name = f"chain[{chain[0].name}..{chain[-1].name}:{len(chain)}]"
    return MTask(
        name=name,
        work=work,
        comm=comm,
        min_procs=min_procs,
        max_procs=max_procs,
        sync_points=sync_points,
        meta={"chain_members": list(chain)},
    )


def contract_chains(graph: TaskGraph) -> Tuple[TaskGraph, Dict[MTask, List[MTask]]]:
    """Contract every maximal linear chain into a single node.

    Returns the contracted graph and the expansion map from contracted
    node to ordered member tasks (identity entries are omitted).  A
    chain-free graph is returned as it is, not copied.
    """
    chains = find_linear_chains(graph)
    if not chains:  # nothing to merge: the graph is its own contraction
        return graph, {}
    node_of: Dict[MTask, MTask] = {}
    expansion: Dict[MTask, List[MTask]] = {}
    for chain in chains:
        merged = _merge_chain(chain)
        expansion[merged] = list(chain)
        for member in chain:
            node_of[member] = merged

    # the rows are assembled directly: a merged node takes the place of
    # its first member in task order.  A chain is entered only at its
    # head and left only at its tail, so every contracted pair comes from
    # one original edge and keeps that edge's flow list (stored lists
    # are never changed in place, so the two graphs can share them)
    get = node_of.get
    succ: Dict[MTask, Dict[MTask, List[DataFlow]]] = {}
    pred: Dict[MTask, Dict[MTask, List[DataFlow]]] = {}
    for t in graph:
        c = get(t, t)
        if c not in succ:
            succ[c], pred[c] = {}, {}
    for u, nbrs in graph.successor_index().items():
        cu = get(u, u)
        out = succ[cu]
        for v, flows in nbrs.items():
            cv = get(v, v)
            if cu is not cv:  # drop interior chain edges
                out[cv] = pred[cv][cu] = flows
    # the assembled graph checks the names and, by its Kahn pass, that
    # the contraction left no cycle; the layering pass reuses that order
    return TaskGraph.assembled(f"{graph.name}/chained", succ, pred), expansion
