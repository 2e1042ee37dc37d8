"""Functional integration of solver M-task programs.

Drives the hierarchical programs of :mod:`repro.ode.programs` through the
functional runtime: the upper-level graph runs once (initialisation), the
``while`` body runs once per time step with the loop condition evaluated
on the live variable store -- exactly the execution model of the
hierarchical schedules in Section 2.2.3.  The result is a *numerically
real* integration whose output the tests compare against the sequential
solvers and the SciPy reference.

:func:`run_functional_step` runs one such time step by itself, optionally
under a write-ahead journal: it is the computation of the service's
``/v1/run`` endpoint, of every ``python -m repro.obs ... --checkpoint-dir``
run and of the chaos scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.graph import TaskGraph
from ..core.task import MTask
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..recovery import CheckpointStore, RunJournal, SpeculationPolicy
from ..runtime.executor import RunResult, run_program
from ..spec.ast_nodes import Compare, Name, Num, eval_expr
from ..spec.build import BuildResult
from .problems import ODEProblem
from .programs import MethodConfig, build_ode_program

__all__ = [
    "FunctionalIntegration",
    "functional_step",
    "run_functional_step",
    "integrate_functional",
]


@dataclass
class FunctionalIntegration:
    """Outcome of a functional M-task integration."""

    t: float
    y: np.ndarray
    steps: int
    collective_counts: Dict[str, int] = field(default_factory=dict)
    redistributed_bytes: int = 0


def _eval_operand(expr, store: Dict[str, np.ndarray], consts: Dict[str, int]) -> float:
    if isinstance(expr, Num):
        return float(expr.value)
    if isinstance(expr, Name):
        if expr.ident in store:
            return float(np.atleast_1d(store[expr.ident])[0])
        return float(eval_expr(expr, consts))
    return float(eval_expr(expr, consts))


def _eval_cond(cond: Compare, store: Dict[str, np.ndarray], consts: Dict[str, int]) -> bool:
    a = _eval_operand(cond.left, store, consts)
    b = _eval_operand(cond.right, store, consts)
    return {
        "<": a < b,
        ">": a > b,
        "<=": a <= b,
        ">=": a >= b,
        "==": a == b,
        "!=": a != b,
    }[cond.op]


def _solution_name(loop: MTask) -> str:
    """Name of a program's solution variable (``eta_k`` for EPOL)."""
    params = {p.name for p in loop.params}
    return next((c for c in ("eta", "eta_k", "y") if c in params), "eta")


def functional_step(
    problem: ODEProblem, cfg: MethodConfig
) -> Tuple[BuildResult, MTask, TaskGraph, Dict[str, np.ndarray]]:
    """Build a solver's functional program up to its first time step.

    Returns ``(build, loop, body, store)``: the built hierarchical
    program, its one ``while`` node, that node's body graph (one time
    step) and the body's live-in variable store, produced by running the
    upper (initialisation) graph once.  The init graph is deterministic
    -- one replicated scalar task, no collectives, no re-distribution --
    so every caller (integration, journaled runs, ``/v1/run``, the
    backend tests) reconstructs the same store.
    """
    build = build_ode_program(problem, cfg, functional=True)
    composed = build.composed_nodes()
    if len(composed) != 1:
        raise ValueError("expected exactly one time-stepping loop")
    loop = composed[0]
    # Loop-carried variables that are first written inside the body
    # (e.g. the approximation vectors V of EPOL) are conservatively
    # declared live-in by the builder; seed them with zeros
    # ("uninitialised memory") -- the bodies never use a stale value
    # before writing it.
    inputs: Dict[str, np.ndarray] = {_solution_name(loop): problem.y0}
    for p in loop.params:
        if p.mode.reads and p.name not in inputs:
            inputs[p.name] = np.zeros(p.elements)
    store = dict(run_program(build.graph, inputs).variables)
    return build, loop, build.body_of(loop), store


def run_functional_step(
    problem: ODEProblem,
    cfg: MethodConfig,
    checkpoint_dir=None,
    resume: bool = False,
    speculation: Optional[SpeculationPolicy] = None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    crash_after: Optional[int] = None,
    backend=None,
    obs=None,
) -> Tuple[RunResult, Dict[str, Any], TaskGraph]:
    """Run one functional time step of a solver's program.

    Builds the program and runs its init graph once
    (:func:`functional_step`), then executes the step body on
    ``backend`` (serial when ``None``), recording into ``obs``.  With a
    ``checkpoint_dir`` the step runs under a write-ahead
    :class:`~repro.recovery.RunJournal` backed by a content-addressed
    :class:`~repro.recovery.CheckpointStore` rooted there: killing the
    process mid-step leaves a consistent journal, and ``resume=True``
    restores the journaled tasks and yields a run bit-identical to an
    uninterrupted one (the init graph is deterministic, so a resumed
    process rebuilds the same input store, which the journal header
    digests verify).  ``crash_after`` arms the journal's deterministic
    kill switch for chaos tests.

    Returns ``(run, recovery, body)``: the step's
    :class:`~repro.runtime.RunResult`, a flat recovery summary (tasks
    executed/resumed, checkpoint bytes, speculation wins/losses and the
    backend's name) and the body graph that ran.
    """
    _, _, body, store = functional_step(problem, cfg)
    journal = None
    if checkpoint_dir is not None:
        root = Path(checkpoint_dir)
        journal = RunJournal(
            root / "journal.jsonl", store=CheckpointStore(root), crash_after=crash_after
        )
    run = run_program(
        body,
        store,
        journal=journal,
        resume=resume,
        speculation=speculation,
        faults=faults,
        retry=retry,
        backend=backend,
        obs=obs,
    )
    recovery: Dict[str, Any] = {
        "tasks_executed": run.stats.tasks_executed,
        "resumed_tasks": run.stats.resumed_tasks,
        "checkpoint_bytes": run.stats.checkpoint_bytes,
        "speculation_wins": sum(1 for s in run.stats.speculations if s.win),
        "speculation_losses": sum(1 for s in run.stats.speculations if not s.win),
    }
    if backend is not None:
        recovery["backend"] = backend.name
    return run, recovery, body


def integrate_functional(
    problem: ODEProblem, cfg: MethodConfig, max_steps: int = 10_000, backend=None
) -> FunctionalIntegration:
    """Run a solver program functionally until its loop condition fails.

    Every time step runs the same body graph on ``backend`` (serial when
    ``None``), so a worker backend forks its workers for the first step
    and keeps them for every later one.
    """
    # 1. initialisation: run the upper graph once
    result, loop, body, store = functional_step(problem, cfg)
    cond: Compare = loop.meta["cond"]  # type: ignore[assignment]
    counts: Dict[str, int] = {}
    moved = 0

    # 2. time stepping
    steps = 0
    while _eval_cond(cond, store, result.consts) and steps < max_steps:
        run = run_program(body, store, backend=backend)
        store.update(run.variables)
        for op, k in run.stats.collective_counts().items():
            counts[op] = counts.get(op, 0) + k
        moved += run.stats.redistributed_bytes
        steps += 1
    if steps >= max_steps:
        raise RuntimeError(f"loop did not terminate within {max_steps} steps")

    t_final = float(np.atleast_1d(store.get("t", np.array([problem.t0])))[0])
    return FunctionalIntegration(
        t=t_final,
        y=np.asarray(store[_solution_name(loop)]),
        steps=steps,
        collective_counts=counts,
        redistributed_bytes=moved,
    )
