"""Table 1: regenerate the collective-operation counts per time step.

For every solver the runner builds the M-task step graph, derives the
data-parallel counts directly and the task-parallel counts through the
layer-based scheduler pinned to the paper's group numbers, and prints
the table next to the closed-form entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..cluster.platforms import chic
from ..core.costmodel import CostModel
from ..ode.comm_counts import (
    StepCommCounts,
    counts_from_step_graph,
    table1_expected,
)
from ..ode.problems import ODEProblem, schroed
from ..ode.programs import ODE_METHODS, PAPER_CONFIGS, MethodConfig, step_graph
from ..scheduling.baselines import fixed_group_scheduler
from .common import paper_group_count

__all__ = ["Table1Row", "run_table1", "format_table1"]

#: the method configurations Table 1 is stated for
TABLE1_CONFIGS: List[MethodConfig] = [PAPER_CONFIGS[m] for m in ODE_METHODS]


@dataclass(frozen=True)
class Table1Row:
    """One method/version row of Table 1."""
    method: str
    version: str
    measured: StepCommCounts
    expected: StepCommCounts

    @property
    def matches(self) -> bool:
        return self.measured == self.expected


def run_table1(
    problem: ODEProblem = None, cores: int = 64
) -> List[Table1Row]:
    """Measured vs closed-form Table 1 entries for all ten rows.

    Uses a dense problem by default: the printed DIIRK broadcast counts
    describe the dense distributed Gaussian elimination (our sparse
    programs use the banded variant instead, see
    ``repro.ode.programs``).
    """
    if problem is None:
        problem = schroed(256)
    cost = CostModel(chic().with_cores(cores))
    rows: List[Table1Row] = []
    for cfg in TABLE1_CONFIGS:
        graph = step_graph(problem, cfg)
        dp = counts_from_step_graph(graph, groups=1)
        rows.append(
            Table1Row(cfg.method, "dp", dp, table1_expected(cfg, problem.n, "dp"))
        )
        result = fixed_group_scheduler(cost, paper_group_count(cfg)).schedule(graph)
        tp = counts_from_step_graph(graph, schedule=result.layered)
        rows.append(
            Table1Row(cfg.method, "tp", tp, table1_expected(cfg, problem.n, "tp"))
        )
    return rows


def _fmt(ops: Dict[str, float]) -> str:
    if not ops:
        return "-"
    return " + ".join(f"{v:g}*{k}" for k, v in sorted(ops.items()))


def format_table1(rows: List[Table1Row]) -> str:
    """Render Table 1 rows as aligned text."""
    lines = [
        "Table 1: collective operations per ODE time step",
        f"{'benchmark':>12s} | {'global':>28s} | {'group-based':>22s} | "
        f"{'orthogonal':>14s} | match",
    ]
    lines.insert(1, "-" * len(lines[1]))
    lines.append("-" * len(lines[1]))
    for r in rows:
        m = r.measured
        lines.append(
            f"{r.method.upper() + '(' + r.version + ')':>12s} | "
            f"{_fmt(m.global_ops):>28s} | {_fmt(m.group_ops):>22s} | "
            f"{_fmt(m.orthogonal_ops):>14s} | {'OK' if r.matches else 'MISMATCH'}"
        )
    return "\n".join(lines)
