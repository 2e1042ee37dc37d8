"""The combined layer-based scheduling algorithm (Algorithm 1).

The scheduler proceeds in three steps (Section 3.2):

1. replace maximal linear chains by single nodes
   (:mod:`repro.scheduling.chains`),
2. partition the contracted graph into layers of independent tasks
   (:mod:`repro.scheduling.layers`),
3. for every layer, try each feasible number ``g`` of equal-sized core
   subsets, assign the layer's tasks to subsets with the modified LPT
   greedy, pick the ``g`` minimising the layer makespan
   ``Tact(g)`` under the symbolic cost ``Tsymb`` and finally *adjust* the
   chosen groups' sizes proportionally to their accumulated sequential
   work (:mod:`repro.scheduling.allocation`).

All decisions use symbolic cores interconnected by the slowest network
level; the separate mapping step (:mod:`repro.mapping`) later pins the
groups to physical cores.

The ``g``-search reads every ``Tsymb`` it can need from one batched
table per layer (:mod:`repro.core.costbatch`) and does not run LPT for
every ``g``: the area / longest-task bound
``Tact(g) >= max(max_i t_i, sum_i t_i / g)`` over that table orders the
candidates and decides most of them, and the chosen ``g``, groups and
tie-breaks are exactly those of the exhaustive ascending scan
(``docs/guide/scaling.md`` has the argument, ``tests/test_schedule_scale.py``
the exhaustive reference).  ``gsearch.probes`` counts every candidate
decided, ``gsearch.pruned`` those decided by the bound alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import Layer, LayeredSchedule
from ..core.task import MTask
from ..obs import Instrumentation
from .allocation import adjust_group_sizes, equal_partition, lpt_assign_indices
from .base import Scheduler, SchedulingResult
from .chains import contract_chains
from .layers import build_layers

__all__ = ["LayerBasedScheduler"]

#: a layer whose feasible group counts (``g`` up to its width and the core
#: count) exceed this searches only powers of two plus the largest ``g``
WIDE_LAYER_LIMIT = 64


@dataclass
class LayerBasedScheduler(Scheduler):
    """Layer-based M-task scheduler with group adjustment.

    Parameters
    ----------
    cost:
        Cost model (binds the target platform).
    contract:
        Contract linear chains first (step 1); disabling this is the
        chain-contraction ablation.
    adjust:
        Apply the group-size adjustment after choosing ``g``.
    assignment:
        ``"lpt"`` (paper) or ``"roundrobin"`` (ablation baseline).
    candidate_groups:
        Restrict the searched group counts.  ``None`` searches every
        feasible ``g``; wide layers (> ``WIDE_LAYER_LIMIT`` tasks) fall
        back to powers of two plus the layer width to keep the search
        tractable, matching the group counts the paper sweeps.
    """

    cost: CostModel
    contract: bool = True
    adjust: bool = True
    assignment: str = "lpt"
    candidate_groups: Optional[Sequence[int]] = None

    #: chain handling is part of the algorithm itself (step 1); the
    #: pipeline must not pre-contract, even for the ablation variant.
    handles_contraction = True

    def __post_init__(self) -> None:
        if self.assignment not in ("lpt", "roundrobin"):
            raise ValueError("assignment must be 'lpt' or 'roundrobin'")

    # ------------------------------------------------------------------
    def _candidates(self, n_tasks: int) -> List[int]:
        max_g = min(self.nprocs, n_tasks)
        if self.candidate_groups is not None:
            # clamp requested counts to the layer width (a fixed-g sweep
            # still needs narrow layers, e.g. a lone combine task, to work)
            return sorted({min(max(g, 1), max_g) for g in self.candidate_groups})
        if max_g <= WIDE_LAYER_LIMIT:
            return list(range(1, max_g + 1))
        cands = {1, max_g}
        g = 2
        while g < max_g:
            cands.add(g)
            g *= 2
        return sorted(cands)

    def _cost_table(
        self, tasks: Sequence[MTask], feasible: Sequence[int]
    ) -> Tuple[np.ndarray, List[int]]:
        """Batch-evaluate every ``Tsymb`` column the ``g``-search reads.

        The search probes each task at two kinds of width: the equal
        subset estimate ``P // g`` of every candidate, and the
        ``equal_partition`` sizes of every possible non-empty group count
        (``floor(P/k)`` and its ceiling) -- ``O(sqrt(P) + |candidates|)``
        distinct widths in total.  One ``tsymb_table`` call scores all of
        them; returns the table (bitwise equal to scalar ``tsymb``) and
        the ascending raw widths its columns stand for.
        """
        P = self.nprocs
        widths = set()
        for g in feasible:
            widths.add(P // g)
        for k in range(1, max(feasible) + 1):
            base, rem = divmod(P, k)
            widths.add(base)
            if rem:
                widths.add(base + 1)
        ordered = sorted(widths)
        return self.cost.tsymb_table(tasks, ordered), ordered

    def _tact_bounds(
        self, table: np.ndarray, widths: Sequence[int], feasible: Sequence[int]
    ) -> np.ndarray:
        """Lower bound on ``Tact(g)`` of every feasible candidate.

        With all ``g`` groups non-empty every group has ``P // g`` or
        ``P // g + 1`` cores, so task ``i`` costs at least the smaller of
        its two column entries, and the slowest group takes at least the
        longest such task and at least the mean load:
        ``Tact(g) >= max(max_i lo_i, sum_i lo_i / g)`` (the area /
        longest-task bound of the moldable schedulers).  A zero in the
        estimate column can leave groups empty, which widens the rest;
        those candidates get ``-inf`` and are never pruned.  The bound is
        shrunk by the worst-case rounding of two ``n``-term float sums
        (the loads it is compared with and its own), so it holds for the
        computed ``Tact``, not only for the real-valued one.
        """
        P = self.nprocs
        g = np.asarray(feasible, dtype=np.int64)
        floor_col = table[:, np.searchsorted(widths, P // g)]
        ceil_col = table[:, np.searchsorted(widths, P // g + (P % g > 0))]
        lo = np.minimum(floor_col, ceil_col)
        bound = np.maximum(lo.max(axis=0), lo.sum(axis=0) / g)
        bound *= 1.0 - max(1e-12, len(table) * 4.5e-16)
        bound[~(floor_col > 0.0).all(axis=0)] = -np.inf
        return bound

    def schedule_layer(
        self, tasks: Sequence[MTask], obs: Optional[Instrumentation] = None
    ) -> Tuple[Layer, float]:
        """Schedule one layer; returns the layer and its ``Tmin``.

        *Decide* and *cost* are split: all symbolic cost columns the
        search can touch are batch-evaluated up front
        (:meth:`_cost_table`), then the ``g``-search, LPT assignment
        and load maximisation run on plain float lookups without calling
        the cost model again.  Candidates are visited in increasing order
        of :meth:`_tact_bounds` and skipped once the bound exceeds the
        best ``Tact`` found; the ascending ``tact < best - 1e-15`` rule
        then picks among the evaluated ones.  Decisions -- including
        floating-point accumulation order and tie-breaks -- are
        bit-identical to an exhaustive ascending scan of every candidate
        (see ``docs/guide/scaling.md`` for the argument).
        """
        obs = obs if obs is not None else Instrumentation()
        P = self.nprocs
        tasks = list(tasks)
        if not tasks:
            # :func:`build_layers` never emits empty layers, but direct
            # callers (adversarial sweeps, reschedule suffixes) may; an
            # empty layer is one idle group spanning the whole machine
            return Layer(groups=[[]], group_sizes=[P]), 0.0
        max_minp = max((t.min_procs for t in tasks), default=1)
        feasible = []
        for g in self._candidates(len(tasks)):
            if g <= 0:
                # matches the scalar path: probing a degenerate group
                # count fails inside equal_partition
                equal_partition(P, g)
            if max_minp <= P // g:  # the narrowest subset fits every task
                feasible.append(g)
        if not feasible:
            raise ValueError(
                "no feasible group count for layer "
                f"[{', '.join(t.name for t in tasks)}] on {P} cores"
            )
        table, widths = self._cost_table(tasks, feasible)
        obs.count("gsearch.batch_widths", len(widths))
        obs.count("gsearch.probes", len(feasible))
        bounds = self._tact_bounds(table, widths, feasible)
        visit = np.argsort(bounds, kind="stable").tolist()
        bounds = bounds.tolist()
        columns = dict(zip(widths, table.T.tolist()))
        n = len(tasks)
        # LPT's task order depends only on the cost column, so one sort
        # per distinct width serves every candidate probing it
        order_cache: Dict[int, List[int]] = {}
        # a skipped candidate's Tact exceeds the final minimum by more
        # than this, so it can neither win the ascending scan nor (each
        # disagreement between the scans uses up one evaluated candidate
        # and lowers an incumbent by < 2e-15, the 1e-15 hysteresis plus
        # its rounding) change which near-minimal candidate does
        margin = (len(feasible) + 4) * 2e-15
        best_tact = float("inf")
        probed: Dict[int, Tuple[float, List[List[int]], List[int]]] = {}
        for k in visit:
            if bounds[k] > best_tact + margin:
                continue
            g = feasible[k]
            q_est = P // g  # the equal subset size the paper assumes
            est = columns[q_est]
            if self.assignment == "lpt":
                order = order_cache.get(q_est)
                if order is None:
                    order = sorted(range(n), key=lambda i: (-est[i], tasks[i].name))
                    order_cache[q_est] = order
                groups = lpt_assign_indices(order, est, g)
            else:
                groups = [list(range(gi, n, g)) for gi in range(g)]  # roundrobin
            # a candidate g larger than the number of tasks with distinct
            # loads leaves LPT groups empty; drop them *before* costing so
            # their cores widen the real groups instead of idling (the
            # probe then competes on its effective group count)
            nonempty = [grp for grp in groups if grp]
            if len(nonempty) < len(groups):
                obs.count("gsearch.empty_groups", len(groups) - len(nonempty))
                groups = nonempty
            sizes = equal_partition(P, len(groups))
            loads = []
            for gi, grp in enumerate(groups):
                col = columns[sizes[gi]]
                loads.append(sum(map(col.__getitem__, grp)))
            tact = max(loads) if loads else 0.0
            probed[g] = (tact, groups, sizes)
            if tact < best_tact:
                best_tact = tact
        if len(probed) < len(feasible):
            obs.count("gsearch.pruned", len(feasible) - len(probed))
        best: Optional[Tuple[float, List[List[int]], List[int]]] = None
        for g in sorted(probed):  # the ascending scan, over the evaluated
            if best is None or probed[g][0] < best[0] - 1e-15:
                best = probed[g]
        tact, idx_groups, sizes = best
        groups = [[tasks[i] for i in grp] for grp in idx_groups]
        if self.adjust and len(groups) > 1:
            with obs.span("adjust"):
                sizes = adjust_group_sizes(groups, self.cost.sequential_time, self.nprocs)
        return Layer(groups=groups, group_sizes=sizes), tact

    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        """Run the complete three-step algorithm on an M-task graph."""
        with obs.span("contract"):
            if self.contract:
                work_graph, expansion = contract_chains(graph)
            else:
                work_graph, expansion = graph, {}
        obs.count("contract.chains", len(expansion))
        with obs.span("layers"):
            raw_layers = build_layers(work_graph)
        layers: List[Layer] = []
        with obs.span("gsearch"):
            for i, tasks in enumerate(raw_layers):
                # one same-named span per layer; the unique span ids keep
                # the reconstructed tree unambiguous
                with obs.span("layer", index=i, tasks=len(tasks)):
                    layer, tact = self.schedule_layer(tasks, obs)
                obs.record(
                    "layer",
                    index=i,
                    tasks=len(tasks),
                    groups=layer.num_groups,
                    group_sizes=list(layer.group_sizes),
                    tact=tact,
                )
                obs.observe("gsearch.layer_tact", tact)
                layers.append(layer)
        layered = LayeredSchedule(
            nprocs=self.nprocs,
            layers=layers,
            expansion={k: list(v) for k, v in expansion.items()},
        )
        return SchedulingResult(
            nprocs=self.nprocs,
            scheduler=self.name,
            layered=layered,
            expansion=layered.expansion,
            stats={
                "layers": len(layers),
                "gsearch_probes": obs.counter("gsearch.probes"),
                "contracted_chains": len(expansion),
            },
        )
