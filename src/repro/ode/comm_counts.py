"""Table 1: collective communication operations per ODE time step.

Two independent routes to the same numbers:

* :func:`table1_expected` -- the closed-form entries as printed in the
  paper (``Tag`` = multi-broadcast / ``MPI_Allgather``, ``Tbc`` =
  broadcast / ``MPI_Bcast``),
* :func:`counts_from_step_graph` -- aggregation over the collective
  specs of a generated M-task step graph under a given group structure
  (``g = 1`` reproduces the data-parallel rows, the method's natural
  group count the task-parallel rows).

The test suite asserts both routes agree for every method, which pins the
generated programs to the paper's communication structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.graph import TaskGraph
from ..core.schedule import LayeredSchedule
from .programs import MethodConfig

__all__ = ["StepCommCounts", "table1_expected", "counts_from_step_graph"]

#: mapping from collective op name to the paper's symbol
_SYMBOL = {"allgather": "Tag", "bcast": "Tbc"}


@dataclass(frozen=True)
class StepCommCounts:
    """Operation counts per time step, by pattern and symbol.

    Keys of the inner dicts are ``"Tag"`` / ``"Tbc"``; group-based and
    orthogonal counts are *per group*, as Table 1 reports them.
    """

    global_ops: Dict[str, float] = field(default_factory=dict)
    group_ops: Dict[str, float] = field(default_factory=dict)
    orthogonal_ops: Dict[str, float] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:  # tolerant float comparison
        if not isinstance(other, StepCommCounts):
            return NotImplemented

        def close(a: Dict[str, float], b: Dict[str, float]) -> bool:
            keys = set(a) | set(b)
            return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-9 for k in keys)

        return (
            close(self.global_ops, other.global_ops)
            and close(self.group_ops, other.group_ops)
            and close(self.orthogonal_ops, other.orthogonal_ops)
        )


def table1_expected(cfg: MethodConfig, n: int, version: str) -> StepCommCounts:
    """The printed Table 1 entry for one method and program version.

    ``n`` is the ODE system size (it enters the DIIRK broadcast counts),
    ``version`` is ``"dp"`` or ``"tp"``.
    """
    if version not in ("dp", "tp"):
        raise ValueError("version must be 'dp' or 'tp'")
    K, m, I = cfg.K, cfg.m, cfg.I
    method = cfg.method
    if method == "epol":
        R = K
        if version == "dp":
            return StepCommCounts(global_ops={"Tag": R * (R + 1) / 2})
        return StepCommCounts(
            global_ops={"Tbc": 1}, group_ops={"Tag": R + 1}
        )
    if method == "irk":
        if version == "dp":
            return StepCommCounts(global_ops={"Tag": K * m + 1})
        return StepCommCounts(
            global_ops={"Tag": 1},
            group_ops={"Tag": m},
            orthogonal_ops={"Tag": m},
        )
    if method == "diirk":
        if version == "dp":
            return StepCommCounts(global_ops={"Tag": 1, "Tbc": K * (n - 1) * I})
        return StepCommCounts(
            global_ops={"Tag": 1},
            group_ops={"Tbc": (n - 1) * I},
            orthogonal_ops={"Tag": m},
        )
    if method == "pab":
        if version == "dp":
            return StepCommCounts(global_ops={"Tag": K})
        return StepCommCounts(group_ops={"Tag": 1}, orthogonal_ops={"Tag": 1})
    if method == "pabm":
        if version == "dp":
            return StepCommCounts(global_ops={"Tag": K * (1 + m)})
        return StepCommCounts(
            group_ops={"Tag": 1 + m}, orthogonal_ops={"Tag": 1}
        )
    raise ValueError(f"unknown method {method!r}")


def counts_from_step_graph(
    graph: TaskGraph,
    schedule: Optional[LayeredSchedule] = None,
    groups: Optional[int] = None,
) -> StepCommCounts:
    """Aggregate the collective specs of a step graph under a schedule.

    When ``schedule`` is given, tasks are attributed to their layer's
    groups; otherwise only ``groups=1`` (the data-parallel version) is
    meaningful -- task-parallel attribution needs the scheduler's group
    assignment.  Per-group patterns report the *maximum over groups*
    (each group executes its own operations concurrently; Table 1 lists
    one group's share).
    """
    if schedule is None and groups != 1:
        raise ValueError(
            "without a schedule only the data-parallel count (groups=1) is defined"
        )

    program_is_tp = schedule is not None and any(
        layer.num_groups > 1 for layer in schedule.layers
    )

    glob: Dict[str, float] = {}
    per_group: Dict[int, Dict[str, float]] = {}
    per_group_orth: Dict[int, Dict[str, float]] = {}

    def bump(d: Dict[str, float], op: str, count: float) -> None:
        sym = _SYMBOL.get(op, op)
        d[sym] = d.get(sym, 0.0) + count

    def task_group(task) -> tuple:
        """(group id, number of groups in the task's layer)"""
        if schedule is not None:
            for layer in schedule.layers:
                for gi, tasks in enumerate(layer.groups):
                    for t in tasks:
                        if task in schedule.expand(t):
                            return gi, layer.num_groups
            raise KeyError(f"task {task.name!r} not in schedule")
        return 0, int(groups)  # uniform

    for task in graph:
        if task.meta.get("structural"):
            continue
        gi, g = task_group(task)
        for c in task.comm:
            if c.scope == "global":
                if c.task_parallel_only and not program_is_tp:
                    continue
                bump(glob, c.op, c.count)
            elif c.scope == "group":
                if g == 1:
                    bump(glob, c.op, c.count)
                else:
                    bump(per_group.setdefault(gi, {}), c.op, c.count)
            else:  # orthogonal
                if g > 1:
                    bump(per_group_orth.setdefault(gi, {}), c.op, c.count)

    def max_over_groups(d: Dict[int, Dict[str, float]]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for ops in d.values():
            for sym, cnt in ops.items():
                out[sym] = max(out.get(sym, 0.0), cnt)
        return out

    return StepCommCounts(
        global_ops=glob,
        group_ops=max_over_groups(per_group),
        orthogonal_ops=max_over_groups(per_group_orth),
    )
