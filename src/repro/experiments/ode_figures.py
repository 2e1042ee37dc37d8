"""Shared runner of the ODE mapping figures (Figs. 15 and 16).

Each panel of the paper's Figs. 15/16 sweeps the core count for one
(method, platform, ODE system) combination and compares the mapping
strategies of the task-parallel program version, usually with the data
parallel version as an extra curve.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..cluster.platforms import Platform
from ..core.costmodel import CostModel
from ..mapping.strategies import MappingStrategy, consecutive, mixed, scattered
from ..ode.problems import ODEProblem
from ..ode.programs import MethodConfig, step_graph
from .common import ExperimentResult, sequential_step_time, simulate_ode_step

__all__ = ["mapping_sweep", "speedup_sweep"]


def platform_strategies(platform: Platform) -> List[MappingStrategy]:
    """The strategies the paper compares on a platform (node-width
    dependent: d=2 on quad-core nodes, plus d=4 on eight-core nodes)."""
    per_node = platform.machine.cores_per_node(0)
    out: List[MappingStrategy] = [consecutive()]
    d = per_node // 2
    while d >= 2:
        out.append(mixed(d))
        d //= 2
    out.append(scattered())
    return out


def mapping_sweep(
    problem: ODEProblem,
    cfg: MethodConfig,
    platform_factory: Callable[[], Platform],
    core_counts: Sequence[int],
    include_dp: bool = True,
    strategies: Optional[Sequence[MappingStrategy]] = None,
    title: str = "",
) -> ExperimentResult:
    """Time per step vs core count, one series per mapping strategy."""
    base = platform_factory()
    strategies = list(strategies or platform_strategies(base))
    result = ExperimentResult(
        title=title or f"{cfg.method.upper()} on {base.name}, {problem.name}",
        xlabel="cores",
        x=list(core_counts),
    )
    for strat in strategies:
        ys = []
        for p in core_counts:
            plat = base.with_cores(p)
            ys.append(simulate_ode_step(problem, cfg, plat, strat, "tp").makespan)
        result.add(strat.name, ys)
    if include_dp:
        ys = []
        for p in core_counts:
            plat = base.with_cores(p)
            ys.append(
                simulate_ode_step(problem, cfg, plat, consecutive(), "dp").makespan
            )
        result.add("data-parallel", ys)
    return result


def speedup_sweep(
    problem: ODEProblem,
    cfg: MethodConfig,
    platform_factory: Callable[[], Platform],
    core_counts: Sequence[int],
    strategies: Optional[Sequence[MappingStrategy]] = None,
    include_dp: bool = True,
    title: str = "",
) -> ExperimentResult:
    """Speedup over the sequential execution (Fig. 16 bottom-left style):
    the series of :func:`mapping_sweep`, each point ``t_seq / t``."""
    base = platform_factory()
    times = mapping_sweep(
        problem, cfg, platform_factory, core_counts, include_dp, strategies
    )
    t_seq = sequential_step_time(step_graph(problem, cfg), CostModel(base))
    result = ExperimentResult(
        title=title or f"{cfg.method.upper()} speedups on {base.name}, {problem.name}",
        xlabel="cores",
        x=list(core_counts),
        ylabel="speedup",
    )
    for s in times.series:
        result.add(s.label, [t_seq / t for t in s.y])
    return result
