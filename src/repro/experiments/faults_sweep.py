"""Fault-injection sweep: degraded makespans across the paper solvers.

Not a figure of the paper -- the paper assumes a failure-free platform.
This artefact quantifies what the fault-tolerance subsystem costs: for a
``SEED:RATE[:LAYER:NODES]`` spec (see
:func:`~repro.faults.parse_faults_spec`) every solver's time step is
scheduled and simulated twice, fault-free and under the plan, and the
sweep reports both makespans, their ratio and the injected retry count.
Runs are deterministic: the same spec yields the same table.
"""

from __future__ import annotations

from typing import List

from ..cluster.platforms import chic
from ..faults import parse_faults_spec
from ..mapping.strategies import consecutive
from ..ode import PAPER_CONFIGS, bruss2d
from ..sim.executor import SimulationOptions
from .common import ExperimentResult, ode_pipeline

__all__ = ["run_faults_sweep"]


def run_faults_sweep(spec: str = "7:0.15", quick: bool = False) -> ExperimentResult:
    """Fault-free vs degraded makespan of every solver under ``spec``."""
    plan = parse_faults_spec(spec)
    cores = 64 if quick else 256
    n = 120 if quick else 360
    platform = chic().with_cores(cores)
    problem = bruss2d(n)

    result = ExperimentResult(
        title=(
            f"fault sweep (spec {spec}: seed {plan.seed}, "
            f"failure rate {plan.failure_rate:g}"
            + (
                f", -{plan.core_loss.nodes} node(s) before layer "
                f"{plan.core_loss.after_layer}"
                if plan.core_loss
                else ""
            )
            + f") on {platform.name}, {cores} cores, BRUSS2D N={n}"
        ),
        xlabel="solver",
        x=list(PAPER_CONFIGS),
    )
    clean: List[float] = []
    degraded: List[float] = []
    overhead: List[float] = []
    retries: List[float] = []
    for cfg in PAPER_CONFIGS.values():
        base = ode_pipeline(problem, cfg, platform, consecutive())
        faulted = ode_pipeline(
            problem,
            cfg,
            platform,
            consecutive(),
            options=SimulationOptions(faults=plan),
        )
        clean.append(base.makespan)
        degraded.append(faulted.makespan)
        overhead.append(faulted.makespan / base.makespan if base.makespan > 0 else 1.0)
        retries.append(
            sum(getattr(e, "retries", 0) for e in faulted.trace.entries)
            if faulted.trace is not None
            else 0.0
        )
    result.add("fault-free [s]", clean)
    result.add("degraded [s]", degraded)
    result.add("slowdown [x]", overhead)
    result.add("retries", retries)
    return result
