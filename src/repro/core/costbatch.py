"""Vectorized symbolic costing: the *cost* half of the decide/cost split.

The layer-based ``g``-search probes ``Tsymb(M, q)`` for every task of a
layer at every candidate group width.  The scalar path
(:meth:`~repro.core.costmodel.CostModel.tsymb` behind a
:class:`~repro.core.costmodel.CachedCostEvaluator`) evaluates those
probes one Python call at a time, which dominates scheduling time once
layers hold thousands of tasks.  This module evaluates the same costs as
one numpy computation per layer (or per run of consecutive layers):

* :class:`TaskTable` -- the cost columns of a task list (work,
  moldability bounds, the collectives in CSR form), derived once; row
  views of it stand for task lists in every call below;
* :func:`collective_time_symbolic_batch` -- the closed-form default-
  mapping-pattern collective costs of
  :func:`repro.comm.collectives.collective_time_symbolic`, over arrays
  of group widths;
* :func:`symbolic_cost_table` -- the full ``Tsymb`` grid for a list of
  tasks over a list of candidate widths, honouring each task's
  ``min_procs``/``max_procs`` clamp exactly like the scalar path;
* :func:`symbolic_cost_pairs` -- ``Tsymb`` of ``(task, width)`` pairs,
  one width per task: what pricing a finished schedule asks for;
* :func:`stacked_cost_tables` -- the grids of several task lists (the
  consecutive layers of one graph) cut from one table call over all
  their tasks and widths, so the fixed cost of a call is paid once.

The two pricing functions accept a plain task list (they build a
throwaway table) or a :class:`TaskTable` row view; the layer-based
scheduler builds one table per ``schedule()`` call and hands out views
of it, so the per-task derivation is paid once per graph, not per call.

**Bit-identity contract.**  Every arithmetic expression here mirrors the
scalar code's operation order (IEEE-754 double operations are
deterministic, so equal operation sequences give equal bits).  A task's
collectives are priced class by class -- all ``(task, slot)`` pairs
sharing a formula in one array call -- but *added* in the task's spec
order by a sequential ``np.add.accumulate``, the scalar loop's
summation order (``np.add.reduce`` / ``reduceat`` sum pairwise and do
not qualify).  Masked contributions are added as ``+0.0``, which is a
bitwise no-op for the non-negative costs produced here.
``tests/test_schedule_scale.py`` asserts ``symbolic_cost_table == tsymb``
and ``symbolic_cost_pairs == tsymb`` with exact ``==`` under
hypothesis-generated tasks, platforms and widths.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster.network import HierarchicalNetwork
from .task import MTask

__all__ = [
    "TaskTable",
    "collective_time_symbolic_batch",
    "symbolic_cost_table",
    "symbolic_cost_pairs",
    "stacked_cost_tables",
    "effective_widths",
]

#: sentinel for "no max_procs bound" in the ``int32`` bound columns; a
#: bound beyond it is stored as it (no platform has that many cores)
_NO_MAX = np.iinfo(np.int32).max


class TaskTable:
    """The cost columns of a task list, one row per task in list order.

    Per row: ``work`` (flop), ``min_procs`` and ``max_procs`` (``_NO_MAX``
    for no bound), and the task's collectives in CSR form -- ``nslots``
    entries from ``first`` on in the entry arrays ``cls`` (formula class,
    an index into ``classes``), ``nbytes`` and ``count``, in spec order.
    The sequential time is ``work / core_rate`` of whichever model
    prices a view, so a table does not depend on the cost model.

    A row view (``table[lo:hi]``, :meth:`take`, :meth:`chained`) shares
    the entry arrays: a slice costs nothing, a gather a few small index
    operations.  A table iterates over its tasks, so a view may stand
    for the task list of any batch call.  It is a snapshot of the tasks
    at build time: a task changed in place afterwards (``fit_to_cores``
    rewrites ``min_procs``/``max_procs``) is not seen, which is why the
    scheduler builds one per ``schedule()`` call and nothing caches one
    on a graph.
    """

    __slots__ = (
        "tasks", "work", "min_procs", "max_procs", "first", "nslots",
        "cls", "nbytes", "count", "classes", "_base", "_start",
    )

    def __init__(self, tasks, work, min_procs, max_procs, first, nslots,
                 cls, nbytes, count, classes) -> None:
        self.tasks: List[MTask] = tasks
        self.work, self.min_procs, self.max_procs = work, min_procs, max_procs
        self.first, self.nslots = first, nslots
        self.cls, self.nbytes, self.count = cls, nbytes, count
        #: the formula classes ``(op, scope, task_parallel_only)``
        self.classes: List[tuple] = classes
        #: the table this one is a slice of, and the slice's first row
        #: (``None`` for a gathered view)
        self._base: Optional[TaskTable] = self
        self._start = 0

    @classmethod
    def of(cls, tasks: Iterable[MTask]) -> "TaskTable":
        """The table of ``tasks``: one comprehension per column over them,
        one over their collectives (a list is kept as the table's own)."""
        if not isinstance(tasks, list):
            tasks = list(tasks)
        n = len(tasks)
        comms = [t.comm for t in tasks]
        nslots = np.fromiter(map(len, comms), dtype=np.int32, count=n)
        first = np.zeros(n, dtype=np.int32)
        np.add.accumulate(nslots[:-1], out=first[1:])
        specs = [c for comm in comms for c in comm]
        classes: Dict[tuple, int] = {}
        kinds = np.fromiter(
            (
                classes.setdefault((c.op, c.scope, c.task_parallel_only), len(classes))
                for c in specs
            ),
            dtype=np.int8,
            count=len(specs),
        )
        return cls(
            tasks,
            np.fromiter((t.work for t in tasks), dtype=np.float64, count=n),
            _bounds([t.min_procs for t in tasks]),
            _bounds([_NO_MAX if t.max_procs is None else t.max_procs for t in tasks]),
            first,
            nslots,
            kinds,
            np.fromiter((c.total_bytes for c in specs), dtype=np.float64, count=len(specs)),
            np.fromiter((c.count for c in specs), dtype=np.float64, count=len(specs)),
            list(classes),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, span: slice) -> "TaskTable":
        """The row view of a contiguous slice."""
        lo, hi, step = span.indices(len(self.tasks))
        if step != 1:
            raise ValueError("a TaskTable slice must be contiguous")
        view = self._rows(span, self.tasks[span])
        if self._base is not None:
            view._base, view._start = self._base, self._start + lo
        return view

    def take(self, rows, tasks: Optional[List[MTask]] = None) -> "TaskTable":
        """The view of the given row indices, in their order (``tasks``,
        when the caller holds them, saves gathering the task list)."""
        rows = np.asarray(rows, dtype=np.intp)
        if tasks is None:
            tasks = [self.tasks[i] for i in rows.tolist()]
        view = self._rows(rows, tasks)
        view._base = None
        return view

    def _rows(self, sel, tasks) -> "TaskTable":
        return TaskTable(
            tasks, self.work[sel], self.min_procs[sel], self.max_procs[sel],
            self.first[sel], self.nslots[sel],
            self.cls, self.nbytes, self.count, self.classes,
        )

    def chained(
        self, tasks: List[MTask], members: Mapping[MTask, Sequence[MTask]]
    ) -> "TaskTable":
        """The table of the contracted ``tasks``, derived from this one.

        This table must list each task's members -- ``members[t]`` for a
        contracted chain, the task itself otherwise -- one task after
        another in ``tasks`` order (what the layer-based scheduler builds).
        A task keeps its row; a chain gets one new row with its own work
        and bounds whose entries are its members' entries, which follow
        each other here already, so no entry is copied.
        """
        if not members:
            return self
        sizes = np.fromiter(
            (len(members.get(t, ())) or 1 for t in tasks), dtype=np.intp, count=len(tasks)
        )
        starts = np.add.accumulate(sizes) - sizes
        out = self._rows(starts, tasks)
        out.nslots = np.add.reduceat(self.nslots, starts)
        merged = (sizes > 1).nonzero()[0]
        chains = [tasks[i] for i in merged.tolist()]
        out.work[merged] = [c.work for c in chains]
        out.min_procs[merged] = _bounds([c.min_procs for c in chains])
        out.max_procs[merged] = _bounds(
            [_NO_MAX if c.max_procs is None else c.max_procs for c in chains]
        )
        return out

    @staticmethod
    def concat(parts: Sequence["TaskTable"]) -> "TaskTable":
        """The rows of ``parts`` one after another: a slice when they are
        consecutive slices of one table (what the ``g``-search's chunks
        are), a new table otherwise."""
        base, lo = parts[0]._base, parts[0]._start
        hi = lo
        for p in parts:
            if base is None or p._base is not base or p._start != hi:
                return TaskTable.of(t for p in parts for t in p)
            hi += len(p)
        return base[lo:hi]


def _bounds(values: List[int]) -> np.ndarray:
    """Core-count bounds as an ``int32`` column, capped at ``_NO_MAX``."""
    return np.minimum(np.array(values, dtype=np.int64), _NO_MAX).astype(np.int32)


def _tabulated(tasks) -> TaskTable:
    """``tasks`` as a table: a view as it is, a task list tabulated."""
    return tasks if isinstance(tasks, TaskTable) else TaskTable.of(tasks)


def collective_time_symbolic_batch(
    op: str,
    network: HierarchicalNetwork,
    widths,
    total_bytes,
) -> np.ndarray:
    """Vectorized :func:`~repro.comm.collectives.collective_time_symbolic`.

    ``widths`` is an integer-valued array of group widths, ``total_bytes``
    an array broadcastable against it.  Entries with fewer than two
    participants cost ``0.0``, exactly like the scalar dispatch.
    """
    # every entry is priced and the dead ones (q < 2) are masked after:
    # a live entry sees the scalar operations whatever its neighbours are
    q = np.maximum(np.asarray(widths, dtype=np.float64), 1.0)
    nl = np.asarray(total_bytes, dtype=np.float64)
    lvl = network.slowest_level
    alpha, beta = network.alpha(lvl), network.beta(lvl)
    if op in ("allgather", "scatter", "gather", "alltoall"):
        vals = (q - 1.0) * (alpha + (nl / q) * beta)
    elif op in ("bcast", "reduce"):
        vals = np.ceil(np.log2(q)) * (alpha + nl * beta)
    elif op == "allreduce":
        vals = 2.0 * (q - 1.0) * (alpha + (nl / q) * beta)
    elif op == "ptp":
        vals = alpha + nl * beta
    elif op == "barrier":
        vals = np.ceil(np.log2(q)) * 2.0 * alpha
    else:
        raise ValueError(f"unknown collective op {op!r}")
    return np.where(q >= 2.0, vals, 0.0)


def effective_widths(tasks, widths) -> np.ndarray:
    """Per-(task, width) effective group width after the moldability clamp.

    Mirrors ``t.clamp_procs(max(q, t.min_procs))``: raise the raw width
    to ``min_procs``, then cap it at ``max_procs`` when set.  Returns an
    ``int64`` array of shape ``(len(tasks), len(widths))``; ``tasks`` is
    a task list or a :class:`TaskTable`.
    """
    rows = _tabulated(tasks)
    w = np.asarray(widths, dtype=np.int64)
    eff = np.maximum(w[np.newaxis, :], rows.min_procs[:, np.newaxis])
    np.minimum(eff, rows.max_procs[:, np.newaxis], out=eff)
    return eff


def symbolic_cost_table(model, tasks, widths) -> np.ndarray:
    """``Tsymb`` grid: ``table[i, j] == model.tsymb(tasks[i], eff(i, j))``
    with ``eff(i, j) = tasks[i].clamp_procs(max(widths[j], min_procs))``.

    One numpy evaluation replaces ``len(tasks) * len(widths)`` scalar
    cost-model calls; results are bitwise identical to the scalar path.
    ``tasks`` is a task list or a :class:`TaskTable` view; ``model`` is a
    :class:`~repro.core.costmodel.CostModel` (callers holding a
    :class:`~repro.core.costmodel.CachedCostEvaluator` should go through
    its ``tsymb_table`` method, which unwraps and counts).
    """
    w = np.asarray(widths, dtype=np.int64)
    if len(tasks) == 0 or w.size == 0:
        return np.zeros((len(tasks), w.size), dtype=np.float64)
    rows = _tabulated(tasks)
    return _cost_grid(model, rows, effective_widths(rows, w))


def symbolic_cost_pairs(model, tasks, widths) -> np.ndarray:
    """``out[i] == model.tsymb(tasks[i], widths[i])``: one width per task,
    taken as given (the caller has clamped it), all pairs priced in one
    numpy evaluation by the grid kernel of :func:`symbolic_cost_table`
    -- the same formula classes and the same per-task summation order,
    so bitwise the scalar values."""
    if len(tasks) == 0:
        return np.zeros(0, dtype=np.float64)
    eff = np.asarray(widths, dtype=np.int64)[:, np.newaxis]
    return _cost_grid(model, _tabulated(tasks), eff)[:, 0]


def stacked_cost_tables(table, requests):
    """The ``Tsymb`` grids of several ``(tasks, widths)`` requests from one
    ``table(tasks, widths)`` call over all their tasks (in request order;
    consecutive slices of one :class:`TaskTable` join into one slice) and
    the union of their widths; each request's grid is cut from that
    block.  A cell depends only on its own task and width, so every grid
    is bitwise the one ``table`` prices for its request alone."""
    if len(requests) == 1:
        return [table(*requests[0])]
    tasks = TaskTable.concat([_tabulated(ts) for ts, _ in requests])
    union = sorted(set().union(*(ws for _, ws in requests)))
    block = table(tasks, union)
    grids, row = [], 0
    for ts, ws in requests:
        cols = np.searchsorted(union, ws)
        grids.append(block[row : row + len(ts), cols])
        row += len(ts)
    return grids


def _cost_grid(model, rows: TaskTable, eff: np.ndarray) -> np.ndarray:
    """``Tsymb`` of row ``i`` at the effective widths ``eff[i, :]``
    (``int64``, at least one row and one column)."""
    n, ncols = eff.shape
    platform = model.platform
    network = platform.network
    P = platform.total_cores
    eff_f = eff.astype(np.float64)

    # Tcomp(M)/q -- same two divisions as sequential_time + tcomp
    tcomp = (rows.work / model.core_rate)[:, np.newaxis] / eff_f

    # Tcomm under dmp.  One row per (task, slot) collective, laid out
    # slot-major over the tasks ranked by decreasing slot count, so the
    # tasks still owning slot s are always ranks [0, active[s]).
    nslots = rows.nslots
    by_count = np.bincount(nslots)
    max_slots = by_count.size - 1
    if not max_slots:
        return tcomp
    ranked = np.argsort(-nslots, kind="stable")
    active = n - np.add.accumulate(by_count)[:max_slots]
    start = np.zeros(max_slots + 1, dtype=np.intp)
    np.add.accumulate(active, out=start[1:])
    slot = np.arange(max_slots).repeat(active)
    row = ranked[np.arange(slot.size) - start[:-1].repeat(active)]
    ent = rows.first[row] + slot
    kind = rows.cls[ent]
    # every collective of one formula class (op, scope,
    # task_parallel_only) is priced by one array call
    contrib = np.empty((slot.size, ncols), dtype=np.float64)
    for k in np.bincount(kind).nonzero()[0].tolist():
        op, scope, tpo = rows.classes[k]
        sel = (kind == k).nonzero()[0]
        e = ent[sel]
        tb, cnt = rows.nbytes[e][:, np.newaxis], rows.count[e][:, np.newaxis]
        idx = row[sel]
        rows_eff = eff[idx]
        if scope == "group":
            vals = collective_time_symbolic_batch(op, network, eff_f[idx], tb)
        elif scope == "global":
            width = np.full(rows_eff.shape, float(P))
            vals = collective_time_symbolic_batch(op, network, width, tb)
            if tpo:
                # ops a data-parallel (q == P) execution never issues
                vals = np.where(rows_eff >= P, 0.0, vals)
        else:  # orthogonal: one participant per concurrent group
            # integer arithmetic exactly as the scalar path:
            # width = max(1, P // max(1, q))
            width = np.maximum(1, P // np.maximum(1, rows_eff))
            # nbytes = total_bytes * width / max(1, q)
            nbytes = tb * width.astype(np.float64)
            nbytes = nbytes / np.maximum(1, rows_eff).astype(np.float64)
            vals = collective_time_symbolic_batch(
                op, network, width.astype(np.float64), nbytes
            )
        contrib[sel] = cnt * vals
    # add each task's slots in spec order (the scalar loop's summation
    # order): slots between two distinct slot counts share their owners,
    # so one sequential accumulate over the run adds them all
    comm = np.zeros_like(tcomp)  # by rank
    lo = 0
    for hi in (by_count[1:].nonzero()[0] + 1).tolist():
        k = active[lo]
        run = contrib[start[lo] : start[hi]].reshape(hi - lo, k, ncols)
        run[0] += comm[:k]
        comm[:k] = np.add.accumulate(run, axis=0)[-1]
        lo = hi
    tcomp[ranked] += comm
    return tcomp
