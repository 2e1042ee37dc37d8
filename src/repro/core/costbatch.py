"""Vectorized symbolic costing: the *cost* half of the decide/cost split.

The layer-based ``g``-search probes ``Tsymb(M, q)`` for every task of a
layer at every candidate group width.  The scalar path
(:meth:`~repro.core.costmodel.CostModel.tsymb` behind a
:class:`~repro.core.costmodel.CachedCostEvaluator`) evaluates those
probes one Python call at a time, which dominates scheduling time once
layers hold thousands of tasks.  This module evaluates the same costs as
one numpy computation per layer (or per run of consecutive layers):

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

**Bit-identity contract.**  Every arithmetic expression here mirrors the
scalar code's operation order (IEEE-754 double operations are
deterministic, so equal operation sequences give equal bits).  A task's
collectives are priced class by class -- all ``(task, slot)`` pairs
sharing a formula in one array call -- but *added* in the task's spec
order by a sequential ``np.add.accumulate``, the scalar loop's
summation order.  Masked contributions are added as ``+0.0``, which is
a bitwise no-op for the non-negative costs produced here.
``tests/test_schedule_scale.py`` asserts ``symbolic_cost_table == tsymb``
and ``symbolic_cost_pairs == tsymb`` with exact ``==`` under
hypothesis-generated tasks, platforms and widths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.network import HierarchicalNetwork
from .task import MTask

__all__ = [
    "collective_time_symbolic_batch",
    "symbolic_cost_table",
    "symbolic_cost_pairs",
    "stacked_cost_tables",
    "effective_widths",
]

#: sentinel for "no max_procs bound" in the integer clamp arrays
_NO_MAX = np.iinfo(np.int64).max


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
    q = np.asarray(widths, dtype=np.float64)
    nbytes = np.broadcast_to(np.asarray(total_bytes, dtype=np.float64), q.shape)
    lvl = network.slowest_level
    alpha, beta = network.alpha(lvl), network.beta(lvl)
    out = np.zeros(q.shape, dtype=np.float64)
    live = q >= 2.0
    if not live.any():
        return out
    ql, nl = q[live], nbytes[live]
    if op in ("allgather", "scatter", "gather", "alltoall"):
        vals = (ql - 1.0) * (alpha + (nl / ql) * beta)
    elif op in ("bcast", "reduce"):
        vals = np.ceil(np.log2(ql)) * (alpha + nl * beta)
    elif op == "allreduce":
        vals = 2.0 * (ql - 1.0) * (alpha + (nl / ql) * beta)
    elif op == "ptp":
        vals = alpha + nl * beta
    elif op == "barrier":
        vals = np.ceil(np.log2(ql)) * 2.0 * alpha
    else:
        raise ValueError(f"unknown collective op {op!r}")
    out[live] = vals
    return out


def effective_widths(tasks: Sequence[MTask], widths) -> np.ndarray:
    """Per-(task, width) effective group width after the moldability clamp.

    Mirrors ``t.clamp_procs(max(q, t.min_procs))``: raise the raw width
    to ``min_procs``, then cap it at ``max_procs`` when set.  Returns an
    ``int64`` array of shape ``(len(tasks), len(widths))``.
    """
    w = np.asarray(widths, dtype=np.int64)
    n = len(tasks)
    minp = np.fromiter((t.min_procs for t in tasks), dtype=np.int64, count=n)
    maxp = np.fromiter(
        (t.max_procs if t.max_procs is not None else _NO_MAX for t in tasks),
        dtype=np.int64,
        count=n,
    )
    eff = np.maximum(w[np.newaxis, :], minp[:, np.newaxis])
    np.minimum(eff, maxp[:, np.newaxis], out=eff)
    return eff


def symbolic_cost_table(model, tasks: Sequence[MTask], widths) -> np.ndarray:
    """``Tsymb`` grid: ``table[i, j] == model.tsymb(tasks[i], eff(i, j))``
    with ``eff(i, j) = tasks[i].clamp_procs(max(widths[j], min_procs))``.

    One numpy evaluation replaces ``len(tasks) * len(widths)`` scalar
    cost-model calls; results are bitwise identical to the scalar path.
    ``model`` is a :class:`~repro.core.costmodel.CostModel` (callers
    holding a :class:`~repro.core.costmodel.CachedCostEvaluator` should
    go through its ``tsymb_table`` method, which unwraps and counts).
    """
    w = np.asarray(widths, dtype=np.int64)
    if len(tasks) == 0 or w.size == 0:
        return np.zeros((len(tasks), w.size), dtype=np.float64)
    return _cost_grid(model, tasks, effective_widths(tasks, w))


def symbolic_cost_pairs(model, tasks: Sequence[MTask], widths) -> np.ndarray:
    """``out[i] == model.tsymb(tasks[i], widths[i])``: one width per task,
    taken as given (the caller has clamped it), all pairs priced in one
    numpy evaluation through the grid kernel of
    :func:`symbolic_cost_table` -- the same formula classes and the same
    per-task summation order, so bitwise the scalar values."""
    if len(tasks) == 0:
        return np.zeros(0, dtype=np.float64)
    return _cost_grid(model, tasks, np.asarray(widths, dtype=np.int64)[:, np.newaxis])[:, 0]


def stacked_cost_tables(table, requests):
    """The ``Tsymb`` grids of several ``(tasks, widths)`` requests from one
    ``table(tasks, widths)`` call over all their tasks (in request order)
    and the union of their widths; each request's grid is cut from that
    block.  A cell depends only on its own task and width, so every grid
    is bitwise the one ``table`` prices for its request alone."""
    if len(requests) == 1:
        return [table(*requests[0])]
    tasks = [t for ts, _ in requests for t in ts]
    union = sorted(set().union(*(ws for _, ws in requests)))
    block = table(tasks, union)
    grids, row = [], 0
    for ts, ws in requests:
        cols = np.searchsorted(union, ws)
        grids.append(block[row : row + len(ts), cols])
        row += len(ts)
    return grids


def _cost_grid(model, tasks: Sequence[MTask], eff: np.ndarray) -> np.ndarray:
    """``Tsymb`` of ``tasks[i]`` at the effective widths ``eff[i, :]``
    (``int64``, at least one task and one column)."""
    n, ncols = eff.shape
    platform = model.platform
    network = platform.network
    P = platform.total_cores
    eff_f = eff.astype(np.float64)

    # Tcomp(M)/q -- same two divisions as sequential_time + tcomp
    work = np.fromiter((t.work for t in tasks), dtype=np.float64, count=n)
    seq = work / model.core_rate
    tcomp = seq[:, np.newaxis] / eff_f

    # Tcomm under dmp.  One row per (task, slot) collective, laid out
    # slot-major over the tasks ranked by decreasing slot count, so the
    # tasks still owning slot s are always ranks [0, active[s]).
    nslots = [len(t.comm) for t in tasks]
    max_slots = max(nslots)
    ranked = sorted(range(n), key=nslots.__getitem__, reverse=True)
    rank = [0] * n
    for r, i in enumerate(ranked):
        rank[i] = r
    active = n - np.cumsum(np.bincount(nslots))[:max_slots]
    start = [0, *np.cumsum(active).tolist()]
    # every collective of one formula class (op, scope,
    # task_parallel_only) is priced by one array call
    classes: dict = {}
    for i, t in enumerate(tasks):
        for slot, c in enumerate(t.comm):
            classes.setdefault((c.op, c.scope, c.task_parallel_only), []).append(
                (start[slot] + rank[i], i, c.total_bytes, c.count)
            )
    contrib = np.empty((start[-1], ncols), dtype=np.float64)
    for (op, scope, tpo), entries in classes.items():
        rows, idx, tb, cnt = np.array(entries, dtype=np.float64).T
        idx = idx.astype(np.intp)
        tb, cnt = tb[:, np.newaxis], cnt[:, np.newaxis]
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
        contrib[rows.astype(np.intp)] = cnt * vals
    # add each task's slots in spec order (the scalar loop's summation
    # order): slots between two distinct slot counts share their owners,
    # so one sequential accumulate over the run adds them all
    comm = np.zeros_like(tcomp)  # by rank
    lo = 0
    for hi in sorted(set(nslots) - {0}):
        k = active[lo]
        run = contrib[start[lo] : start[hi]].reshape(hi - lo, k, ncols)
        run[0] += comm[:k]
        comm[:k] = np.add.accumulate(run, axis=0)[-1]
        lo = hi
    return tcomp + comm[rank]
