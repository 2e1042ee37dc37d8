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
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.costbatch import TaskTable
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

#: cells (tasks times distinct widths) one batched ``Tsymb`` call may
#: cover when ``_plan`` prices consecutive layers together; a layer that
#: is larger on its own is priced alone, as ``schedule_layer`` prices it
PRICE_CELLS = 4096


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

    def _feasible(self, rows: TaskTable) -> List[int]:
        """The group counts ``g`` whose narrowest subset fits every task
        of a layer (empty for an empty or infeasible layer)."""
        if not len(rows):
            return []
        P = self.nprocs
        max_minp = int(rows.min_procs.max())
        return [g for g in self._candidates(len(rows)) if max_minp <= P // g]

    def _widths(self, feasible: Sequence[int]) -> List[int]:
        """The ascending raw widths of every ``Tsymb`` column the
        ``g``-search reads.

        The search probes each task at two kinds of width: the equal
        subset estimate ``P // g`` of every candidate, and the
        ``equal_partition`` sizes of every possible non-empty group count
        (``floor(P/k)`` and its ceiling) -- ``O(sqrt(P) + |candidates|)``
        distinct widths in total.
        """
        P = self.nprocs
        widths = set()
        for g in feasible:
            widths.add(P // g)
        for k in range(1, max(feasible, default=0) + 1):
            base, rem = divmod(P, k)
            widths.add(base)
            if rem:
                widths.add(base + 1)
        return sorted(widths)

    def _priced_layers(
        self, layers: Sequence[Sequence[MTask]], rows: TaskTable
    ) -> Iterator[Tuple[TaskTable, List[int], List[int], Optional[np.ndarray]]]:
        """``(rows, feasible, widths, table)`` of each layer, in layer
        order: its row view of ``rows`` (the layers' tasks one after
        another) and its ``Tsymb`` grid (none for an empty layer or one
        with no feasible ``g``).  Consecutive layers are priced together:
        one ``tsymb_tables`` call covers as many as fit in ``PRICE_CELLS``
        cells (their tasks times the union of their widths), made when
        the layer after them (or the end) is reached; its tasks are a
        slice of ``rows``."""
        pending: List[Tuple[TaskTable, List[int], List[int]]] = []
        nrows, cols, lo = 0, set(), 0
        for tasks in layers:
            view = rows[lo : lo + len(tasks)]
            lo += len(tasks)
            feasible = self._feasible(view)
            widths = self._widths(feasible)
            union = cols.union(widths)
            if pending and (not feasible or (nrows + len(view)) * len(union) > PRICE_CELLS):
                yield from self._price(pending)
                pending, nrows, cols = [], 0, set()
                union = set(widths)
            if feasible:
                pending.append((view, feasible, widths))
                nrows, cols = nrows + len(view), union
            else:
                yield view, feasible, widths, None
        yield from self._price(pending)

    def _price(
        self, pending: List[Tuple[TaskTable, List[int], List[int]]]
    ) -> Iterator[Tuple[TaskTable, List[int], List[int], Optional[np.ndarray]]]:
        """One ``tsymb_tables`` call for the layers :meth:`_priced_layers`
        collected."""
        if not pending:
            return
        tables = self.cost.tsymb_tables([(view, widths) for view, _, widths in pending])
        for (view, feasible, widths), table in zip(pending, tables):
            yield view, feasible, widths, table

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
        search can touch are batch-evaluated up front (:meth:`_widths`,
        one ``tsymb_table`` call), then :meth:`_decide` runs the
        ``g``-search, LPT assignment and load maximisation on plain float
        lookups without calling the cost model again.
        """
        tasks = list(tasks)
        rows = TaskTable.of(tasks)
        feasible = self._feasible(rows)
        widths = self._widths(feasible)
        table = self.cost.tsymb_table(rows, widths) if feasible else None
        return self._decide(tasks, rows, feasible, widths, table, obs)

    def _decide(
        self,
        tasks: List[MTask],
        rows: TaskTable,
        feasible: List[int],
        widths: List[int],
        table: Optional[np.ndarray],
        obs: Optional[Instrumentation],
    ) -> Tuple[Layer, float]:
        """The ``g``-search of one layer over its priced ``table``.

        Candidates are visited in increasing order of
        :meth:`_tact_bounds` and skipped once the bound exceeds the best
        ``Tact`` found; the ascending ``tact < best - 1e-15`` rule then
        picks among the evaluated ones.  Decisions -- including
        floating-point accumulation order and tie-breaks -- are
        bit-identical to an exhaustive ascending scan of every candidate
        (see ``docs/guide/scaling.md`` for the argument).
        """
        obs = obs if obs is not None else Instrumentation()
        P = self.nprocs
        if not tasks:
            # :func:`build_layers` never emits empty layers, but direct
            # callers (adversarial sweeps, reschedule suffixes) may; an
            # empty layer is one idle group spanning the whole machine
            return Layer(groups=[[]], group_sizes=[P]), 0.0
        if not feasible:
            raise ValueError(
                "no feasible group count for layer "
                f"[{', '.join(t.name for t in tasks)}] on {P} cores"
            )
        obs.count("gsearch.batch_widths", len(widths))
        obs.count("gsearch.probes", len(feasible))
        if len(feasible) > 1:
            bounds = self._tact_bounds(table, widths, feasible)
            visit = np.argsort(bounds, kind="stable").tolist()
            bounds = bounds.tolist()
        else:  # a lone candidate is always evaluated
            visit, bounds = [0], [-np.inf]
        columns = dict(zip(widths, table.T.tolist()))
        n = len(tasks)
        # LPT's task order depends only on the cost column, so one sort
        # per distinct width serves every candidate probing it; a stable
        # sort by decreasing cost over the layer's name order breaks ties
        # by name without comparing names again per column
        order_cache: Dict[int, List[int]] = {}
        by_name: List[int] = []
        # a skipped candidate's Tact exceeds the final minimum by more
        # than this, so it can neither win the ascending scan nor (each
        # disagreement between the scans uses up one evaluated candidate
        # and lowers an incumbent by < 2e-15, the 1e-15 hysteresis plus
        # its rounding) change which near-minimal candidate does
        margin = (len(feasible) + 4) * 2e-15
        best_tact = float("inf")
        probed: Dict[int, Tuple[float, List[List[int]]]] = {}
        for k in visit:
            if bounds[k] > best_tact + margin:
                continue
            g = feasible[k]
            q_est = P // g  # the equal subset size the paper assumes
            est = columns[q_est]
            if self.assignment == "lpt":
                order = order_cache.get(q_est)
                if order is None:
                    if not by_name:
                        by_name = sorted(range(n), key=[t.name for t in tasks].__getitem__)
                    order = sorted(by_name, key=est.__getitem__, reverse=True)
                    order_cache[q_est] = order
                groups, loads = lpt_assign_indices(order, est, g)
            else:
                groups = [list(range(gi, n, g)) for gi in range(g)]  # roundrobin
                loads = None
            # a candidate g larger than the number of tasks with distinct
            # loads leaves LPT groups empty; drop them *before* costing so
            # their cores widen the real groups instead of idling (the
            # probe then competes on its effective group count)
            nonempty = [grp for grp in groups if grp]
            if len(nonempty) < len(groups):
                obs.count("gsearch.empty_groups", len(groups) - len(nonempty))
                groups, loads = nonempty, None
            # the equal_partition sizes: the first ``rem`` groups get
            # one core more.  With every group kept, the narrow column is
            # the estimate column LPT summed in assignment order, so only
            # the wide groups are summed again
            base, rem = divmod(P, len(groups))
            wide, narrow = columns.get(base + 1), columns[base]
            if loads is None:
                loads = [sum(map(narrow.__getitem__, grp)) for grp in groups]
            loads[:rem] = [sum(map(wide.__getitem__, grp)) for grp in groups[:rem]]
            tact = max(loads)
            probed[g] = (tact, groups)
            if tact < best_tact:
                best_tact = tact
        if len(probed) < len(feasible):
            obs.count("gsearch.pruned", len(feasible) - len(probed))
        best: Optional[Tuple[float, List[List[int]]]] = None
        for g in sorted(probed):  # the ascending scan, over the evaluated
            if best is None or probed[g][0] < best[0] - 1e-15:
                best = probed[g]
        tact, idx_groups = best
        sizes = equal_partition(P, len(idx_groups))
        groups = [[tasks[i] for i in grp] for grp in idx_groups]
        if self.adjust and len(groups) > 1:
            with obs.span("adjust"):
                flat = [i for grp in idx_groups for i in grp]
                seq = rows.take(flat, [tasks[i] for i in flat])
                seq = iter(self.cost.sequential_times(seq))
                tseq = [sum(islice(seq, len(grp))) for grp in groups]
                minp = rows.min_procs.tolist()
                floors = [max(map(minp.__getitem__, grp)) for grp in idx_groups]
                sizes = adjust_group_sizes(tseq, floors, P)
        return Layer(groups=groups, group_sizes=sizes), tact

    def _plan(self, graph: TaskGraph, obs: Instrumentation) -> SchedulingResult:
        """Run the complete three-step algorithm on an M-task graph.

        One :class:`~repro.core.costbatch.TaskTable` of the input graph's
        tasks serves the run.  It lists them in layer order, each chain's
        members one after another, so the contracted rows derive from it
        without copying an entry (:meth:`TaskTable.chained`) and every
        ``g``-search chunk is a row slice of those; the result keeps it
        for :meth:`~SchedulingResult.predicted_makespan`."""
        with obs.span("contract"):
            if self.contract:
                work_graph, expansion = contract_chains(graph)
            else:
                work_graph, expansion = graph, {}
        obs.count("contract.chains", len(expansion))
        with obs.span("layers"):
            raw_layers = build_layers(work_graph)
        ordered = [t for tasks in raw_layers for t in tasks]
        get = expansion.get
        members = [m for t in ordered for m in get(t, (t,))] if expansion else ordered
        table = TaskTable.of(members)
        rows = table.chained(ordered, expansion)
        layers: List[Layer] = []
        priced = self._priced_layers(raw_layers, rows)
        with obs.span("gsearch"):
            for i, tasks in enumerate(raw_layers):
                # one same-named span per layer; the unique span ids keep
                # the reconstructed tree unambiguous
                with obs.span("layer", index=i, tasks=len(tasks)):
                    layer, tact = self._decide(tasks, *next(priced), obs)
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
            table=table,
            stats={
                "layers": len(layers),
                "gsearch_probes": obs.counter("gsearch.probes"),
                "contracted_chains": len(expansion),
            },
        )
