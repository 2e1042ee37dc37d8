"""Shared harness of the per-figure experiment runners.

Every ``fig*.py`` module produces :class:`ExperimentResult` objects --
labelled series over a shared x axis -- which ``python -m
repro.experiments`` prints in the layout of the paper's figures and the
tests assert shape properties on (who wins, by what factor, where the
optimum sits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster.platforms import Platform
from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..obs import Instrumentation
from ..mapping.strategies import MappingStrategy
from ..ode.problems import ODEProblem
from ..ode.programs import MethodConfig, step_graph
from ..pipeline import PipelineResult, SchedulingPipeline
from ..scheduling import SCHEDULERS, Scheduler
from ..sim.executor import SimulationOptions

__all__ = [
    "Series",
    "ExperimentResult",
    "sequential_step_time",
    "ode_pipeline",
    "simulate_ode_step",
    "paper_group_count",
    "paper_scheduler",
]


@dataclass
class Series:
    """One labelled curve of an experiment."""

    label: str
    y: List[float]


@dataclass
class ExperimentResult:
    """A figure-shaped result: series over a common x axis."""

    title: str
    xlabel: str
    x: List
    series: List[Series] = field(default_factory=list)
    ylabel: str = "time per step [s]"

    def add(self, label: str, y: Sequence[float]) -> None:
        """Append a named series (must match the x grid length)."""
        if len(y) != len(self.x):
            raise ValueError(
                f"series {label!r} has {len(y)} points, x axis has {len(self.x)}"
            )
        self.series.append(Series(label, list(y)))

    def get(self, label: str) -> Series:
        """Look up a series by label."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(
            f"no series {label!r}; have {[s.label for s in self.series]}"
        )

    def table_str(self, value_format: str = "{:11.4g}") -> str:
        """Render all series as an aligned text table."""
        width = max(12, max((len(s.label) for s in self.series), default=12) + 1)
        header = f"{self.xlabel:>{width}} | " + " | ".join(
            f"{s.label:>11s}" for s in self.series
        )
        lines = [self.title, "-" * len(header), header, "-" * len(header)]
        for i, xv in enumerate(self.x):
            row = f"{str(xv):>{width}} | " + " | ".join(
                value_format.format(s.y[i]) for s in self.series
            )
            lines.append(row)
        lines.append("-" * len(header))
        return "\n".join(lines)


def sequential_step_time(graph: TaskGraph, cost: CostModel) -> float:
    """Sequential execution time of one step (for speedup figures)."""
    return sum(cost.sequential_time(t) for t in graph if not t.meta.get("structural"))


def paper_group_count(cfg: MethodConfig) -> int:
    """Group count of the paper's task-parallel program versions:
    ``R/2`` for the extrapolation method (approximations ``i`` and
    ``R+1-i`` share a group, Fig. 6 middle), ``K`` for the stage-vector
    methods."""
    if cfg.method == "epol":
        return max(1, cfg.K // 2)
    return cfg.K


def paper_scheduler(
    cfg: MethodConfig,
    cost: CostModel,
    version: str = "tp",
    groups: Optional[int] = None,
) -> Scheduler:
    """Scheduler of one of the paper's two program versions.

    ``"tp"`` is the task-parallel version (:func:`paper_group_count`
    groups unless ``groups`` is given), ``"dp"`` the data-parallel one;
    both are keys of :data:`repro.scheduling.SCHEDULERS`, and this
    function adds only the paper's group-count rule.
    :func:`ode_pipeline`, the service's workload requests and Fig. 13
    all come through here.
    """
    if version == "tp":
        return SCHEDULERS["tp"](cost, g=groups or paper_group_count(cfg))
    if version == "dp":
        return SCHEDULERS["dp"](cost)
    raise ValueError("version must be 'dp' or 'tp'")


def ode_pipeline(
    problem: ODEProblem,
    cfg: MethodConfig,
    platform: Platform,
    strategy: MappingStrategy,
    version: str = "tp",
    cost: Optional[CostModel] = None,
    groups: Optional[int] = None,
    options: SimulationOptions = SimulationOptions(),
    obs: Optional[Instrumentation] = None,
) -> PipelineResult:
    """Run one ODE time step through the scheduling pipeline.

    ``version`` is ``"tp"`` (task parallel, paper group counts unless
    ``groups`` given) or ``"dp"`` (data parallel).  Returns the full
    :class:`~repro.pipeline.PipelineResult` with schedule, placement,
    trace and per-stage diagnostics.
    """
    if cost is None:
        cost = CostModel(platform)
    scheduler = paper_scheduler(cfg, cost, version, groups)
    pipe = SchedulingPipeline(scheduler, strategy=strategy, options=options)
    return pipe.run(step_graph(problem, cfg), obs)


def simulate_ode_step(
    problem: ODEProblem,
    cfg: MethodConfig,
    platform: Platform,
    strategy: MappingStrategy,
    version: str = "tp",
    cost: Optional[CostModel] = None,
    groups: Optional[int] = None,
    options: SimulationOptions = SimulationOptions(),
):
    """Schedule, map and simulate one ODE time step.

    Returns the :class:`~repro.sim.trace.ExecutionTrace` (the pipeline's
    simulation-stage output; see :func:`ode_pipeline` for the full
    result).
    """
    return ode_pipeline(
        problem, cfg, platform, strategy, version, cost, groups, options
    ).trace
