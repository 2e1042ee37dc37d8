"""The result object a pipeline run produces."""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

from ..core.costmodel import CachedCostEvaluator, CacheStats
from ..core.graph import TaskGraph
from ..core.schedule import Placement
from ..obs import Instrumentation
from ..scheduling.base import SchedulingResult
from ..sim.trace import ExecutionTrace

__all__ = ["PipelineResult"]


@dataclass
class PipelineResult:
    """Everything one scheduling→mapping→simulation run produced.

    * ``scheduling`` -- the normalized scheduler output (layered schedule
      or timeline plus expansion map and stats);
    * ``placement`` -- the physical pinning of every task (``None`` for
      dynamic-scheduler runs, whose dispatch decisions *are* placements);
    * ``trace`` -- the simulated execution (``None`` when the pipeline
      ran with ``simulate=False``);
    * ``predicted_makespan`` -- the symbolic estimate the scheduling
      phase reasoned about; ``makespan`` is the simulated one;
    * ``obs`` -- spans, counters and per-stage records of the run;
    * ``cost`` -- the memoized cost evaluator the run scheduled with
      (``Tsymb`` source for :meth:`calibration`; ``cache`` is its
      hit/miss statistics).

    The derived numbers -- :meth:`analysis` and :meth:`metrics` -- are
    computed on first use and at most once per run; every call hands
    out its own copy, so no caller can change what the next one reads.
    """

    graph: TaskGraph
    scheduling: SchedulingResult
    placement: Optional[Placement]
    trace: Optional[ExecutionTrace]
    predicted_makespan: float
    obs: Instrumentation
    cost: CachedCostEvaluator
    meta: Dict[str, Any] = field(default_factory=dict)
    #: core-loss recovery outcome (``None`` unless the pipeline ran with
    #: a fault plan carrying a ``core_loss``)
    reschedule: Optional[Any] = None

    @property
    def cache(self) -> CacheStats:
        """Hit/miss statistics of the memoized cost evaluator."""
        return self.cost.stats

    @property
    def makespan(self) -> float:
        """Simulated makespan (falls back to the prediction pre-sim)."""
        if self.trace is not None:
            return self.trace.makespan
        return self.predicted_makespan

    # ------------------------------------------------------------------
    def stage_seconds(self) -> Dict[str, float]:
        """Wall-clock seconds per top-level pipeline stage."""
        pipeline_ids = {s.sid for s in self.obs.spans if s.name == "pipeline"}
        out: Dict[str, float] = {}
        for s in self.obs.spans:
            if s.parent_id in pipeline_ids:
                out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    @cached_property
    def _analysis(self):
        """The run's one :class:`~repro.obs.ScheduleAnalysis` (shared)."""
        from ..obs.metrics import analyze

        return analyze(self)

    def analysis(self):
        """Derived schedule analytics (:class:`~repro.obs.ScheduleAnalysis`).

        Requires a simulated run (``trace`` must be set).  A copy of the
        run's one analysis: a pickle round trip deep-copies it at a
        quarter of ``copy.deepcopy``'s cost.
        """
        return pickle.loads(pickle.dumps(self._analysis, pickle.HIGHEST_PROTOCOL))

    def calibration(self, cost: Optional[Any] = None):
        """Predicted-vs-actual cost-model accuracy of this run.

        Joins ``Tsymb`` at each task's scheduled width against the
        simulated trace durations; returns a
        :class:`~repro.obs.calibrate.CalibrationReport`.  ``cost``
        overrides the evaluator recorded by the pipeline.
        """
        from ..obs.calibrate import calibrate_result

        return calibrate_result(self, cost=cost)

    def metrics(self) -> Dict[str, float]:
        """Flat, deterministic metric dict for ``repro.obs diff``."""
        return dict(self._metrics)

    @cached_property
    def _metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "predicted_makespan": self.predicted_makespan,
            "tasks": float(len(self.graph)),
            "gsearch_probes": self.obs.counter("gsearch.probes"),
        }
        if self.trace is not None:
            out["makespan"] = self.trace.makespan
            out["simulated_makespan"] = self.trace.makespan
            out["utilization"] = self.trace.utilization()
            out.update(self._analysis.metrics())
        if self.cache.requests:
            out["cache_requests"] = float(self.cache.requests)
            out["cache_hit_rate"] = self.cache.hit_rate
            out["evaluation_reduction"] = self.cache.evaluation_reduction
        # fault metrics (task_retries_total, fault_overhead_seconds) come
        # from the analysis above and appear only when faults occurred,
        # so a clean run's metric dict stays identical to the baseline
        if self.reschedule is not None:
            out["reschedule_reduced_cores"] = float(
                self.reschedule.reduced_platform.total_cores
            )
            out["degraded_makespan"] = self.reschedule.degraded_makespan
        return out

    def report(self) -> str:
        """Human-readable one-run summary."""
        lines = [
            f"pipeline run: {self.scheduling.scheduler or 'scheduler'} on "
            f"{self.scheduling.nprocs} cores, {len(self.graph)} tasks",
            f"  predicted makespan: {self.predicted_makespan:.6g} s",
        ]
        if self.trace is not None:
            lines.append(f"  simulated makespan: {self.trace.makespan:.6g} s")
        for name, secs in self.stage_seconds().items():
            lines.append(f"  stage {name:<10s} {secs * 1e3:9.3f} ms")
        if self.cache.requests:
            lines.append(
                f"  cost cache: {self.cache.requests} requests, "
                f"hit rate {self.cache.hit_rate:.1%}, "
                f"{self.cache.evaluation_reduction:.2f}x fewer evaluations"
            )
        return "\n".join(lines)
