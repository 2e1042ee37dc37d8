"""Dual-approximation scheduling of moldable tasks (after Wu & Loiseau).

Competitor scheduler of the shoot-out harness: the classic
dual-approximation scheme for *independent* moldable tasks, applied
layer by layer to an M-task graph.  For one layer of independent tasks
on ``P`` symbolic cores:

1. binary-search a makespan guess ``theta``;
2. for each task pick the *canonical allotment* -- the smallest feasible
   width whose ``Tsymb`` fits under ``theta`` (no such width rejects the
   guess);
3. accept ``theta`` when the canonical allotments also satisfy the area
   bound ``sum_t w_t * Tsymb(t, w_t) <= P * theta``;
4. pack the accepted allotments with an LPT list schedule onto the
   concrete cores (longest task first, each onto the cores that free up
   earliest -- :func:`~repro.scheduling.listsched.earliest_free`, the
   zoo's one core-choice rule).

Layers are separated by barriers (every predecessor lives in a strictly
earlier layer, so the resulting timeline is precedence-clean by
construction); re-distribution between layers is not charged, mirroring
the symbolic view the layered scheduler plans with.  That is why the
pack is a loop of its own rather than
:func:`~repro.scheduling.listsched.list_schedule`: no task waits for
data, only for the layer barrier and its cores.  The per-layer cost
table is batch-evaluated once (:meth:`~repro.core.costmodel.CostModel.
tsymb_table`), so each ``theta`` probe is a vectorized scan rather than
``O(n * P)`` scalar cost calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import Schedule, ScheduledTask
from ..core.task import MTask
from ..obs import Instrumentation
from .base import Scheduler, SchedulingResult
from .layers import build_layers
from .listsched import earliest_free

__all__ = ["MoldableLayerScheduler"]

#: binary-search steps on a layer's makespan guess: they narrow the
#: bracket by a factor of ``2**24``, far below cost-model noise
BISECTIONS = 24


@dataclass
class MoldableLayerScheduler(Scheduler):
    """Layer-wise dual-approximation scheduler for moldable M-tasks.

    Parameters
    ----------
    cost:
        Cost model (binds the target platform).
    """

    cost: CostModel

    # ------------------------------------------------------------------
    def _layer_widths(
        self, tasks: Sequence[MTask], obs: Instrumentation
    ) -> Tuple[List[int], List[float]]:
        """Canonical allotments of one layer via dual approximation.

        Returns the chosen width and execution time per task (in the
        given task order).
        """
        P = self.nprocs
        for t in tasks:
            if t.min_procs > P:
                raise ValueError(
                    f"task {t.name!r}: min_procs={t.min_procs} exceeds the "
                    f"{P}-core platform"
                )
        widths = list(range(1, P + 1))
        table = np.asarray(self.cost.tsymb_table(tasks, widths), dtype=float)
        # mask widths outside each task's moldability bounds
        cols = np.arange(1, P + 1)
        lo = np.array([t.min_procs for t in tasks])[:, None]
        hi = np.array(
            [t.max_procs if t.max_procs is not None else P for t in tasks]
        )[:, None]
        infeasible = (cols[None, :] < lo) | (cols[None, :] > hi)
        masked = np.where(infeasible, np.inf, table)

        def canonical(theta: float):
            """Smallest feasible width with ``Tsymb <= theta`` per task
            (or -1), plus the area of the resulting allotment."""
            fits = masked <= theta
            any_fit = fits.any(axis=1)
            first = np.where(any_fit, fits.argmax(axis=1), -1)
            ok = bool(any_fit.all())
            if not ok:
                return first, np.inf, False
            w = first + 1  # column j is width j+1
            t_of = masked[np.arange(len(tasks)), first]
            area = float((w * t_of).sum())
            return first, area, area <= P * theta + 1e-12

        # bracket: the best-width makespan / per-core area are lower
        # bounds; serialising every task at its minimal width is feasible
        tmin = float(masked.min(axis=1).max()) if len(tasks) else 0.0
        area_min = float((cols[None, :] * masked).min(axis=1).sum())
        lo_theta = max(tmin, area_min / P)
        min_first = (~infeasible).argmax(axis=1)
        t_at_min = masked[np.arange(len(tasks)), min_first]
        hi_theta = max(lo_theta, float(t_at_min.sum()))
        best = None
        for _ in range(8):  # widen until feasible (zero-work layers: 1 pass)
            first, _, ok = canonical(hi_theta)
            obs.count("moldable.theta_probes")
            if ok:
                best = first
                break
            hi_theta = max(hi_theta * 2.0, 1e-9)
        if best is None:
            raise ValueError(
                "dual approximation found no feasible allotment for layer "
                f"[{', '.join(t.name for t in tasks)}] on {P} cores"
            )
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo_theta + hi_theta)
            first, _, ok = canonical(mid)
            obs.count("moldable.theta_probes")
            if ok:
                best, hi_theta = first, mid
            else:
                lo_theta = mid
        w = (best + 1).tolist()
        t_of = masked[np.arange(len(tasks)), best].tolist()
        return w, t_of

    # ------------------------------------------------------------------
    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        """Allot and pack every layer, separated by barriers."""
        P = self.nprocs
        with obs.span("layers"):
            raw_layers = build_layers(graph)
        avail = [0.0] * P
        schedule = Schedule(P)
        allocation: Dict[MTask, int] = {}
        t_layer = 0.0
        with obs.span("dual_approx", layers=len(raw_layers)):
            for li, tasks in enumerate(raw_layers):
                tasks = sorted(tasks, key=lambda t: t.name)
                with obs.span("layer", index=li, tasks=len(tasks)):
                    widths, times = self._layer_widths(tasks, obs)
                # LPT packing: longest task first onto the earliest-free
                # cores, never before the layer barrier
                order = sorted(
                    range(len(tasks)), key=lambda i: (-times[i], tasks[i].name)
                )
                layer_end = t_layer
                for i in order:
                    t, q = tasks[i], widths[i]
                    chosen = earliest_free(avail, q)
                    start = max(t_layer, max(avail[c] for c in chosen))
                    end = start + times[i]
                    for c in chosen:
                        avail[c] = end
                    schedule.add(ScheduledTask(t, start, end, chosen))
                    allocation[t] = q
                    layer_end = max(layer_end, end)
                t_layer = layer_end
                avail = [t_layer] * P  # barrier between layers
        return SchedulingResult(
            nprocs=P,
            scheduler=self.name,
            timeline=schedule,
            allocation=allocation,
            stats={
                "layers": float(len(raw_layers)),
                "theta_probes": float(obs.counter("moldable.theta_probes")),
            },
        )
