"""Speculation sweep: straggler mitigation across the paper solvers.

Not a figure of the paper -- the paper assumes uniformly fast cores.
This artefact quantifies what speculative backup attempts buy under a
deterministic straggler plan: for every solver the time step is
scheduled and simulated three times -- straggler-free, with stragglers,
and with stragglers plus a :class:`~repro.recovery.SpeculationPolicy` --
and the sweep reports the makespans, the fraction of the straggler
penalty recovered and the backup win/loss counts.  Runs are
deterministic: the same specs yield the same table.
"""

from __future__ import annotations

from typing import List

from ..cluster.platforms import chic
from ..faults import parse_faults_spec
from ..mapping.strategies import consecutive
from ..ode import PAPER_CONFIGS, bruss2d
from ..recovery import parse_speculation_spec
from ..sim.executor import SimulationOptions
from .common import ExperimentResult, ode_pipeline

__all__ = ["run_speculation_sweep"]


def run_speculation_sweep(
    spec: str = "1.5",
    faults: str = "7:0.5",
    quick: bool = False,
) -> ExperimentResult:
    """Straggler vs speculated makespan of every solver.

    ``spec`` is the ``FACTOR[:QUANTILE]`` speculation policy
    (:func:`~repro.recovery.parse_speculation_spec`); ``faults`` is the
    ``SEED:RATE`` straggler plan (:func:`~repro.faults.parse_faults_spec`
    -- the straggler rate is ``RATE/2``, so the default injects
    stragglers into a quarter of the tasks).
    """
    policy = parse_speculation_spec(spec)
    plan = parse_faults_spec(faults)
    cores = 64 if quick else 256
    n = 120 if quick else 360
    platform = chic().with_cores(cores)
    problem = bruss2d(n)

    result = ExperimentResult(
        title=(
            f"speculation sweep (policy {spec}, stragglers {faults}: "
            f"seed {plan.seed}, straggler rate {plan.slowdown_rate:g}) "
            f"on {platform.name}, {cores} cores, BRUSS2D N={n}"
        ),
        xlabel="solver",
        x=list(PAPER_CONFIGS),
    )
    clean: List[float] = []
    straggled: List[float] = []
    speculated: List[float] = []
    recovered: List[float] = []
    wins: List[float] = []
    losses: List[float] = []
    for cfg in PAPER_CONFIGS.values():
        base = ode_pipeline(problem, cfg, platform, consecutive())
        slow = ode_pipeline(
            problem,
            cfg,
            platform,
            consecutive(),
            options=SimulationOptions(faults=plan),
        )
        spec_run = ode_pipeline(
            problem,
            cfg,
            platform,
            consecutive(),
            options=SimulationOptions(faults=plan, speculation=policy),
        )
        clean.append(base.makespan)
        straggled.append(slow.makespan)
        speculated.append(spec_run.makespan)
        penalty = slow.makespan - base.makespan
        recovered.append(
            (slow.makespan - spec_run.makespan) / penalty if penalty > 0 else 0.0
        )
        summary = (
            spec_run.trace.speculation_summary()
            if spec_run.trace is not None
            else {"wins": 0, "losses": 0}
        )
        wins.append(float(summary["wins"]))
        losses.append(float(summary["losses"]))
    result.add("fault-free [s]", clean)
    result.add("stragglers [s]", straggled)
    result.add("speculated [s]", speculated)
    result.add("recovered", recovered)
    result.add("backup wins", wins)
    result.add("backup losses", losses)
    return result
