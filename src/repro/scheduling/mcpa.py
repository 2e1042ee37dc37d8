"""MCPA -- Modified CPA (Bansal, Kumar & Singh, 2006).

The paper lists MCPA among the two-step algorithms built on CPA
(reference [4]).  MCPA keeps CPA's critical-path-driven allocation loop
but caps every task's allocation by the *parallelism of its precedence
level*: a task that shares its level with ``w`` independent tasks never
receives more than ``P / w`` cores, which prevents exactly the
over-allocation CPA suffers on wide layers of symmetric tasks (the PABM
failure of Fig. 13 left).
"""

from __future__ import annotations

from typing import Dict

from ..core.graph import TaskGraph
from ..core.task import MTask
from .cpa import CPAScheduler
from .layers import layer_index

__all__ = ["MCPAScheduler"]


class MCPAScheduler(CPAScheduler):
    """CPA with level-parallelism-bounded allocation."""

    def _limits(self, graph: TaskGraph) -> Dict[MTask, int]:
        """At most ``P / w`` cores for a task on a level of width ``w``."""
        P = self.cost.platform.total_cores
        depth = layer_index(graph)
        width: Dict[int, int] = {}
        for t, d in depth.items():
            width[d] = width.get(d, 0) + 1
        return {
            t: max(t.min_procs, t.clamp_procs(max(1, P // width[depth[t]])))
            for t in graph
        }
