"""Greedy layer decomposition (step 2 of Algorithm 1).

A breadth-first greedy pass partitions the (chain-contracted) M-task
graph into consecutive *layers* of pairwise independent tasks: a task
joins the earliest layer that already contains all of its predecessors'
layers strictly before it.  The greedy rule "put as many independent
nodes as possible into the current layer" is equivalent to grouping tasks
by their longest-path depth from the sources, which is what the paper's
shrinking-wavefront illustration (Fig. 5 right) shows.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.graph import TaskGraph
from ..core.task import MTask

__all__ = ["build_layers", "layer_index"]


def layer_index(graph: TaskGraph) -> Dict[MTask, int]:
    """Layer number of every task (longest-path depth from the sources).

    One pass over the graph's stored predecessor adjacency -- strictly
    O(V + E), nothing copied.  The returned dict iterates in topological
    order.
    """
    preds = graph.predecessor_index()
    depth: Dict[MTask, int] = {}
    for t in graph.topological_order():
        ps = preds[t]
        depth[t] = 1 + max(map(depth.__getitem__, ps)) if ps else 0
    return depth


def build_layers(graph: TaskGraph) -> List[List[MTask]]:
    """Partition the graph into layers of independent tasks.

    Tasks within a returned layer are pairwise independent by
    construction; layers are ordered so that all dependencies point from
    earlier to later layers.  O(V + E): one :func:`layer_index` pass
    plus one bucketing pass in topological order (which fixes the
    within-layer task order the rest of the scheduler depends on).
    """
    depth = layer_index(graph)
    nlayers = max(depth.values(), default=-1) + 1
    layers: List[List[MTask]] = [[] for _ in range(nlayers)]
    for t, d in depth.items():
        layers[d].append(t)
    return layers
