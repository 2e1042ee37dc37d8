"""Figure 13: layer-based scheduling vs CPA vs CPR (Section 4.3).

Left: PABM with K=8 stage vectors on the CHiC cluster -- speedups of the
four scheduling decisions (task parallel = layer-based algorithm, CPA,
CPR, data parallel).  CPA over-allocates the independent stage chains,
serialising them; CPR converges to the same schedule as the layer-based
algorithm.

Right: EPOL with R=8 approximations -- time per step.  CPA finds a good
mixed schedule; CPR pours cores into the longest micro-step chain,
producing an almost data-parallel schedule whose extra re-distributions
make it *worse* than plain data parallelism.

All schedulers run on the chain-contracted step graph (the layer-based
algorithm contracts internally; handing CPA/CPR the same contracted
graph keeps the comparison about allocation policy, not chain handling).
"""

from __future__ import annotations

from typing import List, Sequence

from ..cluster.platforms import Platform, chic
from ..core.costmodel import CostModel
from ..mapping.strategies import MappingStrategy, consecutive
from ..ode.problems import ODEProblem, bruss2d
from ..ode.programs import MethodConfig, step_graph
from ..pipeline import SchedulingPipeline
from ..scheduling.base import Scheduler
from ..scheduling.cpa import CPAScheduler
from ..scheduling.cpr import CPRScheduler
from ..scheduling.mcpa import MCPAScheduler
from .common import ExperimentResult, paper_scheduler, sequential_step_time

__all__ = ["SCHEDULERS", "make_scheduler", "schedule_and_simulate", "run_pabm_speedups", "run_epol_times", "run_fig13"]

#: the four scheduling decisions the paper compares; ``"MCPA"`` (the
#: allocation-bounded CPA variant of reference [4]) is additionally
#: accepted by :func:`schedule_and_simulate` as an extension
SCHEDULERS = ("task parallel", "CPA", "CPR", "data parallel")

#: the two decisions that are program versions of the paper, by the
#: ``version`` name :func:`~repro.experiments.common.paper_scheduler` takes
PAPER_VERSIONS = {"task parallel": "tp", "data parallel": "dp"}


def make_scheduler(name: str, cost: CostModel, cfg: MethodConfig) -> Scheduler:
    """Scheduler instance behind one of Fig. 13's scheduling decisions.

    CPA/CPR/MCPA do not handle linear chains themselves; the pipeline's
    contraction stage hands them the chain-contracted step graph, which
    keeps the comparison about allocation policy, not chain handling.
    """
    if name in PAPER_VERSIONS:
        return paper_scheduler(cfg, cost, PAPER_VERSIONS[name])
    gran = max(1, cost.platform.total_cores // 128)
    if name == "CPA":
        return CPAScheduler(cost, granularity=gran)
    if name == "MCPA":
        return MCPAScheduler(cost, granularity=gran)
    if name == "CPR":
        return CPRScheduler(cost, granularity=gran)
    raise ValueError(f"unknown scheduler {name!r}")


def schedule_and_simulate(
    problem: ODEProblem,
    cfg: MethodConfig,
    platform: Platform,
    scheduler: str,
    strategy: MappingStrategy = consecutive(),
) -> float:
    """Time per step under one of the four scheduling decisions."""
    cost = CostModel(platform)
    graph = step_graph(problem, cfg)
    pipe = SchedulingPipeline(make_scheduler(scheduler, cost, cfg), strategy=strategy)
    return pipe.run(graph).makespan


def run_pabm_speedups(
    cores: Sequence[int] = (64, 128, 256, 512, 1024),
    N: int = 500,
    schedulers: Sequence[str] = SCHEDULERS,
) -> ExperimentResult:
    """Fig 13 left: PABM K=8 speedups per scheduler on CHiC."""
    problem = bruss2d(N)
    cfg = MethodConfig("pabm", K=8, m=2)
    base = chic()
    result = ExperimentResult(
        title="Fig 13 (left): PABM K=8 speedups by scheduler, BRUSS2D, CHiC",
        xlabel="cores",
        x=list(cores),
        ylabel="speedup",
    )
    t_seq = sequential_step_time(step_graph(problem, cfg), CostModel(base))
    for name in schedulers:
        ys = []
        for p in cores:
            plat = base.with_cores(p)
            ys.append(t_seq / schedule_and_simulate(problem, cfg, plat, name))
        result.add(name, ys)
    return result


def run_epol_times(
    cores: Sequence[int] = (64, 128, 256, 512),
    N: int = 500,
    schedulers: Sequence[str] = SCHEDULERS,
) -> ExperimentResult:
    """Fig 13 right: EPOL R=8 time per step per scheduler on CHiC."""
    problem = bruss2d(N)
    cfg = MethodConfig("epol", K=8)
    base = chic()
    result = ExperimentResult(
        title="Fig 13 (right): EPOL R=8 time/step by scheduler, BRUSS2D, CHiC",
        xlabel="cores",
        x=list(cores),
    )
    for name in schedulers:
        ys = []
        for p in cores:
            plat = base.with_cores(p)
            ys.append(schedule_and_simulate(problem, cfg, plat, name))
        result.add(name, ys)
    return result


def run_fig13(quick: bool = False) -> List[ExperimentResult]:
    """Run the Fig. 13 scheduling-algorithm comparison."""
    if quick:
        return [
            run_pabm_speedups(cores=(64, 256), N=180),
            run_epol_times(cores=(64, 256), N=180),
        ]
    return [run_pabm_speedups(), run_epol_times()]
