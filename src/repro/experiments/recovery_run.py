"""Journaled functional solver runs (the ``--checkpoint-dir`` CLI path).

Behind ``python -m repro.obs ... --checkpoint-dir`` and the two chaos
scripts: one time step of a solver's functional M-task program executes under a
write-ahead :class:`~repro.recovery.RunJournal` backed by a
content-addressed :class:`~repro.recovery.CheckpointStore`.  Killing the
process mid-step leaves a consistent journal; re-running with
``resume=True`` skips the journaled tasks, restores their outputs and
yields a run bit-identical to an uninterrupted one (the determinism the
kill-and-resume chaos job asserts).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..ode.integrate import functional_step
from ..ode.problems import ODEProblem
from ..ode.programs import MethodConfig
from ..recovery import CheckpointStore, RunJournal, SpeculationPolicy, Supervisor
from ..runtime.executor import RunResult, run_program

__all__ = ["run_checkpointed_step", "recovery_line"]


def run_checkpointed_step(
    problem: ODEProblem,
    cfg: MethodConfig,
    checkpoint_dir,
    resume: bool = False,
    speculation: Optional[SpeculationPolicy] = None,
    supervisor: Optional[Supervisor] = None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    crash_after: Optional[int] = None,
    backend=None,
    obs=None,
) -> Tuple[RunResult, Dict[str, Any]]:
    """Run one functional time step under a write-ahead journal.

    The program's upper (initialisation) graph runs journal-free to
    produce the step's live-in variables -- it is deterministic, so both
    the original and the resumed process reconstruct the same input
    store, which the journal header digests verify.  Returns the step's
    :class:`~repro.runtime.RunResult` and a flat summary dict (tasks
    executed/resumed, checkpoint bytes, speculation wins/losses) for CLI
    reporting.  ``crash_after`` forwards the journal's deterministic
    kill switch to chaos tests.  ``backend`` selects the
    :class:`~repro.runtime.backends.ExecutionBackend` of the journaled
    step (the init graph always runs serially); ``obs`` threads an
    :class:`~repro.obs.Instrumentation` through it so per-worker spans
    reach the trace exporter.
    """
    _, _, body, store = functional_step(problem, cfg)

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
        supervisor=supervisor,
        faults=faults,
        retry=retry,
        backend=backend,
        obs=obs,
    )
    summary: Dict[str, Any] = {
        "tasks_executed": run.stats.tasks_executed,
        "resumed_tasks": run.stats.resumed_tasks,
        "checkpoint_bytes": run.stats.checkpoint_bytes,
        "speculation_wins": sum(1 for s in run.stats.speculations if s.win),
        "speculation_losses": sum(1 for s in run.stats.speculations if not s.win),
    }
    if backend is not None:
        summary["backend"] = backend.name
    if run.stats.cancel_reason:
        summary["cancelled"] = run.stats.cancel_reason
    return run, summary


def recovery_line(summary: Dict[str, Any]) -> str:
    """One-line rendering of :func:`run_checkpointed_step`'s summary."""
    line = (
        f"{summary['tasks_executed']} tasks executed, "
        f"{summary['resumed_tasks']} resumed from journal, "
        f"{summary['checkpoint_bytes']} checkpoint bytes"
    )
    if summary.get("speculation_wins") or summary.get("speculation_losses"):
        line += (
            f", speculation {summary['speculation_wins']} win(s) / "
            f"{summary['speculation_losses']} loss(es)"
        )
    if summary.get("cancelled"):
        line += f", cancelled: {summary['cancelled']}"
    return line
