"""Simple scheduling baselines used throughout the evaluation.

* :func:`data_parallel_scheduler` -- the *data parallel* program version:
  every M-task executes on all available cores, one after another
  (``g = 1`` in every layer).  This version maximises the number of cores
  per collective and is the reference the task-parallel schedules are
  compared against in Figs. 13, 15, 16, 18.
* :func:`fixed_group_scheduler` -- a fixed group count ``g`` per layer,
  used for the NPB group-count sweeps of Fig. 17.
"""

from __future__ import annotations

from ..core.costmodel import CostModel
from .layered import LayerBasedScheduler

__all__ = [
    "data_parallel_scheduler",
    "fixed_group_scheduler",
]


def data_parallel_scheduler(cost: CostModel) -> LayerBasedScheduler:
    """All tasks on all cores, sequentially."""
    return LayerBasedScheduler(cost, candidate_groups=[1], adjust=False)


def fixed_group_scheduler(cost: CostModel, g: int, adjust: bool = True) -> LayerBasedScheduler:
    """Exactly ``g`` groups in every layer (when feasible)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    return LayerBasedScheduler(cost, candidate_groups=[g], adjust=adjust)
