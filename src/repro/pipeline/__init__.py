"""Unified scheduling→mapping→simulation pipeline with memoized costs.

The one-stop API for running an M-task program through the paper's
combined scheduling and mapping machinery::

    from repro.pipeline import SchedulingPipeline
    from repro.scheduling import LayerBasedScheduler

    pipe = SchedulingPipeline(LayerBasedScheduler(cost), strategy=consecutive())
    result = pipe.run(graph)
    print(result.report())
"""

from ..core.costmodel import CachedCostEvaluator, CacheStats
from ..scheduling.base import Scheduler, SchedulingResult
from .pipeline import SchedulingPipeline
from .result import PipelineResult

__all__ = [
    "SchedulingPipeline",
    "PipelineResult",
    "SchedulingResult",
    "Scheduler",
    "CachedCostEvaluator",
    "CacheStats",
]
