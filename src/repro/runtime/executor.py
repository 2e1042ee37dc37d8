"""Functional execution of M-task programs on real numpy data.

This runtime gives the M-task model *semantics*: every basic task with a
Python body is executed in dependency order, variables flow along the
graph edges, and the data re-distributions between producer and consumer
distributions are byte-accounted: each is charged the off-diagonal bytes
of its :func:`~repro.distribution.transfer_counts` matrix, while bodies
receive the global arrays.  It is the executable counterpart
of the simulator -- the simulator predicts *when* things happen, the
runtime checks *what* they compute.

Task bodies have the signature::

    def body(ctx: RuntimeContext, values: dict[str, np.ndarray]) -> dict[str, np.ndarray]

``values`` maps each input parameter instance (e.g. ``"eta_k"`` or
``"V[2]"``) to its global array; the body returns the arrays of its
output parameters.  Scalars travel as 1-element arrays.

Fault tolerance
---------------
``run_program`` optionally executes under a
:class:`~repro.faults.FaultPlan` (deterministic fault injection) and a
:class:`~repro.faults.RetryPolicy` (per-task timeout, bounded retries
with seeded exponential backoff).  Backoff is accounted, never slept.
A task that retried and then succeeded leaves a
:class:`~repro.faults.FailureRecord` in ``RunResult.failures``, and the
run's ``retries`` and ``backoff_seconds`` are totals of those records.
A task whose attempts (or deadline budget) are exhausted leaves no
record: it fails the run, counts ``faults.gave_up`` (and
``faults.deadline_exceeded`` for the budget) and raises
:class:`RuntimeError` -- like a program step in the CM-task model,
which either completes all its M-tasks or produces no outputs.  With no
plan and no policy the execution path is exactly the historical one --
bit-identical results.

Checkpoint / resume
-------------------
With a :class:`~repro.recovery.RunJournal`, every task completion is
appended to a crash-consistent write-ahead log (outputs checkpointed to
a content-addressed store) *before* the run proceeds.  After a crash,
``run_program(..., journal=..., resume=True)`` skips the journaled
prefix, restores its outputs and retry accounting, and re-executes only
the rest; because fault/retry draws are keyed per ``(task, attempt)``,
the resumed run's variables, failures and accounting are bit-identical
to an uninterrupted one, and a task that gave up re-executes with the
same draws and raises again.  Task bodies are assumed pure (no in-place
mutation of input arrays) -- the same assumption the simulator makes.

A :class:`~repro.recovery.SpeculationPolicy` races a backup attempt
against any attempt whose effective duration exceeds the policy's
threshold ("first finisher wins").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.graph import TaskGraph
from ..core.task import MTask
from ..distribution import transfer_counts
from ..faults.plan import FaultPlan
from ..faults.retry import FailureRecord, RetryPolicy
from ..obs import Instrumentation
from ..recovery.checkpoint import array_digest
from ..recovery.journal import JournalError, JournalMismatch, RunJournal
from ..recovery.speculation import SpeculationPolicy, SpeculationRecord
from .backends.base import (
    ExecutionBackend,
    RunContext,
    TaskOutcome,
    TaskRequest,
    independent_batches,
)
from .backends.serial import SerialBackend
from .context import RuntimeContext

__all__ = ["RunStats", "RunResult", "run_program"]

#: ranks per task: the group size every task's distributions are
#: instantiated on for re-distribution accounting, and its
#: ``RuntimeContext.group_size``
GROUP_SIZE = 4


@dataclass
class RunStats:
    """Accounting collected over one program run."""

    #: bytes that logically moved between distinct ranks in re-distributions
    redistributed_bytes: int = 0
    #: per-task collective logs
    contexts: Dict[MTask, RuntimeContext] = field(default_factory=dict)
    tasks_executed: int = 0
    #: tasks that retried and recovered, in commit order
    failures: List[FailureRecord] = field(default_factory=list)
    #: tasks restored from the journal instead of re-executed
    resumed_tasks: int = 0
    #: bytes newly written to the checkpoint store this run
    checkpoint_bytes: int = 0
    #: tasks whose slow attempt raced a speculative backup
    speculations: List[SpeculationRecord] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """Failed attempts over all recovered tasks."""
        return sum(f.attempts - 1 for f in self.failures)

    @property
    def backoff_seconds(self) -> float:
        """Backoff accounted (not slept) over all recovered tasks.

        Added up one record at a time in commit order, the same on a
        resumed run: builtin ``sum`` of floats is compensated from
        Python 3.12 on, and this total must not move with the version.
        """
        total = 0.0
        for f in self.failures:
            total += f.backoff_seconds
        return total

    def collective_counts(self) -> Dict[str, int]:
        """Total recorded collectives per operation, over all groups."""
        out: Dict[str, int] = {}
        for ctx in self.contexts.values():
            for op, k in ctx.counts_by_op().items():
                out[op] = out.get(op, 0) + k
        return out


@dataclass
class RunResult:
    """Final variable store plus accounting."""

    variables: Dict[str, np.ndarray]
    stats: RunStats

    def __getitem__(self, var: str) -> np.ndarray:
        return self.variables[var]

    @property
    def failures(self) -> List[FailureRecord]:
        """The record of every task that retried and recovered (empty
        for a clean run)."""
        return self.stats.failures


def _recovered(
    task_name: str, info: Mapping[str, Any], obs: Instrumentation, stats: RunStats
) -> None:
    """Account a task that completed after failed attempts: executed
    now (``info`` is the attempt engine's) or restored from the journal
    (``info`` is its record; both carry ``attempts``, ``error`` and
    ``backoff_seconds``)."""
    attempts = info["attempts"]
    obs.observe("task_retries", attempts - 1)
    obs.count("faults.retries", attempts - 1)
    stats.failures.append(
        FailureRecord(task_name, attempts, info["error"], info["backoff_seconds"])
    )


def _replay_events(
    task_name: str,
    q: int,
    outcome: TaskOutcome,
    obs: Instrumentation,
    stats: RunStats,
) -> None:
    """Apply the side effects of a task's attempts at commit time.

    Backends run attempts through the pure engine
    (:mod:`repro.runtime.backends.attempts`) and report one
    :class:`~repro.runtime.backends.AttemptEvent` each; this helper is
    the single place that turns them into counters, histograms and the
    record of a recovered task, plus one wall-clock span per
    attempt -- tagged with the executing worker when there was one
    (rendered as per-worker Perfetto tracks).
    """
    for ev in outcome.events:
        meta: Dict[str, object] = {"task": task_name, "q": q}
        if ev.attempt:
            meta["attempt"] = ev.attempt
        if ev.worker is not None:
            meta["worker"] = ev.worker
        if ev.kind == "ok":
            obs.emit_span("task", ev.start, ev.duration, **meta)
            obs.observe("runtime.task_seconds", ev.duration)
            if ev.attempt:
                _recovered(task_name, outcome.info, obs, stats)
        else:
            meta["error"] = ev.kind
            obs.emit_span("task", ev.start, ev.duration, **meta)
            obs.count("faults.failed_attempts")
            if ev.kind == "timeout":
                obs.count("faults.timeouts")
            elif ev.kind == "injected":
                obs.count("faults.injected")
            if ev.backoff:
                obs.observe("runtime.backoff_seconds", ev.backoff)


def _check_header(
    stored: Dict[str, Any], expected: Dict[str, Any], path
) -> None:
    """Refuse to resume a journal written by a different run."""
    for key, want in expected.items():
        got = stored.get(key)
        if got != want:
            raise JournalMismatch(
                f"journal {path} belongs to a different run: field {key!r} "
                f"is {got!r}, this run has {want!r}"
            )


def run_program(
    graph: TaskGraph,
    inputs: Mapping[str, np.ndarray],
    obs: Optional[Instrumentation] = None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    speculation: Optional[SpeculationPolicy] = None,
    backend: Optional[ExecutionBackend] = None,
) -> RunResult:
    """Execute an M-task graph functionally.

    Parameters
    ----------
    graph:
        The program.  Tasks without a ``func`` are treated as no-ops
        (structural nodes); tasks with outputs but no ``func`` must have
        all their outputs provided via ``inputs`` or produced upstream.
    inputs:
        Initial values of variables (live-ins, i.e. what the structural
        start node "writes").
    obs:
        Optional :class:`~repro.obs.Instrumentation`: records one span
        per executed task and totals for tasks executed and bytes
        re-distributed.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injecting deterministic
        task failures and straggler factors.  A disabled plan
        (``FaultPlan()``) leaves the execution bit-identical to
        running without one.
    retry:
        Optional :class:`~repro.faults.RetryPolicy`: per-attempt timeout
        and bounded retries with seeded exponential backoff (accounted
        in the stats, not slept).  Without a policy any failure
        (injected or real) propagates as before; with one, a task that
        exhausts it raises :class:`RuntimeError`.
    journal:
        Optional :class:`~repro.recovery.RunJournal`: every task
        completion is appended to a crash-consistent write-ahead log,
        with the output arrays checkpointed to the journal's
        content-addressed store.
    resume:
        With ``True`` and a non-empty ``journal``, completed tasks are
        restored from it instead of re-executed; the header must match
        this run (program, input digests, fault/retry configuration) or
        :class:`~repro.recovery.JournalMismatch` is raised.  With
        ``False`` a non-empty journal raises rather than silently
        double-appending.
    speculation:
        Optional :class:`~repro.recovery.SpeculationPolicy`: attempts
        whose effective duration exceeds the policy's threshold race a
        backup attempt; the first finisher wins (accounting only --
        variables are identical for pure bodies).
    backend:
        Optional :class:`~repro.runtime.backends.ExecutionBackend`
        deciding *how* ready task bodies run.  ``None`` (the default)
        uses the in-process
        :class:`~repro.runtime.backends.SerialBackend`, which is
        bit-identical to the historical executor; a
        :class:`~repro.runtime.backends.ProcessPoolBackend` runs each
        batch of independent tasks concurrently on forked workers while
        committing results in the same order, so variables, journals,
        failure records and the error of a task that gives up stay
        identical.  One documented semantic difference on the pool:
        speculation backups become genuinely concurrent races.
    """
    obs = obs if obs is not None else Instrumentation()
    if faults is not None and not faults.enabled:
        faults = None
    if speculation is not None and not speculation.enabled:
        speculation = None
    store: Dict[str, np.ndarray] = {
        k: np.atleast_1d(np.asarray(v, dtype=float)).copy() for k, v in inputs.items()
    }
    producer_dist: Dict[str, Tuple[object, int]] = {}
    stats = RunStats()
    #: effective durations of completed primaries (speculation history)
    history: Optional[List[float]] = [] if speculation is not None else None

    # --- journal: load the completed prefix, arm the append log ----------
    completed: Dict[str, Dict[str, Any]] = {}
    if journal is not None:
        header: Dict[str, Any] = {
            "graph": graph.name,
            "tasks": len(graph),
            "inputs": {k: array_digest(store[k]) for k in sorted(store)},
            "faults": faults.to_dict() if faults is not None else None,
            "retry": dataclasses.asdict(retry) if retry is not None else None,
        }
        state = journal.load()
        if not state.empty and not resume:
            raise JournalError(
                f"journal {journal.path} is not empty; pass resume=True to "
                "continue the run it records"
            )
        if resume and state.header is not None:
            _check_header(state.header, header, journal.path)
        journal.begin(header)
        if resume:
            completed = state.completed

    def prepare(task: MTask) -> Optional[TaskRequest]:
        """Pre-execution phase of one task (always in topological order).

        Handles resume restoration and input collection with
        re-distribution accounting.  Returns the :class:`TaskRequest`
        the backend should execute, or ``None`` when the task needs no
        execution (every side effect already applied here).
        """
        q = GROUP_SIZE
        # --- resume: restore the journaled prefix instead of re-running --
        if task.func is not None and task.name in completed:
            rec = completed[task.name]
            q_rec = int(rec.get("q", q))
            for name, digest in rec["outputs"].items():
                p = task.param(name)
                store[name] = journal.store.get(digest)
                producer_dist[name] = (p.dist.instantiate(p.elements, q_rec), q_rec)
            stats.tasks_executed += 1
            stats.resumed_tasks += 1
            stats.redistributed_bytes += int(rec.get("redist_bytes", 0))
            if history is not None:
                history.append(float(rec.get("seconds", 0.0)))
            if rec["attempts"] > 1:
                _recovered(task.name, rec, obs, stats)
            stats.contexts[task] = RuntimeContext(task.name, q_rec)
            return None
        # --- collect inputs, accounting re-distribution ------------------
        redist_before = stats.redistributed_bytes
        values: Dict[str, np.ndarray] = {}
        for p in task.params:
            if not p.mode.reads:
                continue
            if p.name not in store:
                if task.meta.get("structural"):
                    continue
                raise KeyError(
                    f"task {task.name!r} reads {p.name!r} which has no value"
                )
            arr = store[p.name]
            if p.name in producer_dist:
                src_dist, _ = producer_dist[p.name]
                counts = transfer_counts(src_dist, p.dist.instantiate(p.elements, q))
                # same group size on both sides: the diagonal stays put
                stats.redistributed_bytes += int(counts.sum() - np.trace(counts)) * p.itemsize
            values[p.name] = arr
        env = task.meta.get("env", {})
        ctx = RuntimeContext(task.name, q, env=dict(env) if isinstance(env, dict) else {})
        if task.func is None:
            stats.contexts[task] = ctx
            return None
        return TaskRequest(
            task=task,
            ctx=ctx,
            values=values,
            q=q,
            redist_bytes=stats.redistributed_bytes - redist_before,
        )

    run_backend = backend if backend is not None else SerialBackend()

    def commit(request: TaskRequest, outcome: TaskOutcome) -> None:
        """Post-execution phase of one task (always in commit order).

        Replays the attempts' side effects, raises for a task that gave
        up, validates and stores the outputs and journals the completion
        -- identical bookkeeping regardless of which backend executed
        the body.
        """
        task, ctx, q = request.task, request.ctx, request.q
        ctx.log.extend(outcome.collectives)
        _replay_events(task.name, q, outcome, obs, stats)
        if outcome.speculation is not None:
            spec_record, backup_event = outcome.speculation
            if backup_event is not None:
                meta: Dict[str, object] = {"task": task.name, "q": q}
                if backup_event.worker is not None:
                    meta["worker"] = backup_event.worker
                obs.emit_span(
                    "task_backup", backup_event.start, backup_event.duration, **meta
                )
            stats.speculations.append(spec_record)
            if spec_record.win:
                obs.count("speculation.wins")
                obs.observe(
                    "speculation.saved_seconds",
                    spec_record.primary_seconds - spec_record.backup_seconds,
                )
            else:
                obs.count("speculation.losses")
            if journal is not None:
                journal.record_speculation(spec_record.to_dict())
        if history is not None and outcome.produced is not None:
            history.append(float(outcome.info.get("seconds", 0.0)))
        if outcome.gave_up:
            obs.count("faults.gave_up")
            if outcome.gave_up == "deadline":
                obs.count("faults.deadline_exceeded")
            raise RuntimeError(
                f"task {task.name!r} failed after {outcome.info['attempts']} "
                f"attempt(s): {outcome.info['error']}"
            )
        produced = outcome.produced
        if produced is None and "crash" in outcome.info:
            raise RuntimeError(
                f"task {task.name!r} crashed in a {run_backend.name} worker:\n"
                f"{outcome.info['crash']}"
            )
        if produced is None:
            produced = {}
        if not isinstance(produced, dict):
            raise TypeError(
                f"task {task.name!r} body must return a dict of outputs"
            )
        expected = {p.name for p in task.outputs}
        missing = expected - set(produced)
        extra = set(produced) - expected
        if missing:
            raise ValueError(
                f"task {task.name!r} did not produce outputs: {sorted(missing)}"
            )
        if extra:
            raise ValueError(
                f"task {task.name!r} produced undeclared outputs: {sorted(extra)}"
            )
        for name, arr in produced.items():
            p = task.param(name)
            out = np.atleast_1d(np.asarray(arr, dtype=float))
            if out.size != p.elements and p.elements > 1:
                raise ValueError(
                    f"task {task.name!r} output {name!r} has {out.size} "
                    f"elements, declared {p.elements}"
                )
            store[name] = out
            producer_dist[name] = (p.dist.instantiate(p.elements, q), q)
        stats.tasks_executed += 1
        if journal is not None:
            journal.record_completion(
                task.name,
                {name: store[name] for name in produced},
                attempts=outcome.info["attempts"],
                seconds=outcome.info["seconds"],
                redist_bytes=request.redist_bytes,
                q=q,
                error=outcome.info["error"],
                backoff_seconds=outcome.info["backoff_seconds"],
            )
        stats.contexts[task] = ctx

    run_backend.open(
        RunContext(
            graph=graph,
            obs=obs,
            stats=stats,
            faults=faults,
            retry=retry,
            speculation=speculation,
            history=history,
        )
    )
    try:
        for batch in independent_batches(graph):
            run_backend.run_batch(batch, prepare, commit)
    finally:
        run_backend.close()
    obs.count("runtime.tasks_executed", stats.tasks_executed)
    obs.count("runtime.redistributed_bytes", stats.redistributed_bytes)
    obs.record(
        "run_program",
        tasks=stats.tasks_executed,
        redistributed_bytes=stats.redistributed_bytes,
    )
    if journal is not None:
        stats.checkpoint_bytes = journal.store.bytes_written
        obs.count("recovery.resume_skipped_tasks", stats.resumed_tasks)
        obs.count("recovery.checkpoint_bytes", stats.checkpoint_bytes)
    if stats.speculations:
        obs.record(
            "run_speculation",
            speculated=len(stats.speculations),
            wins=sum(1 for s in stats.speculations if s.win),
            losses=sum(1 for s in stats.speculations if not s.win),
        )
    if stats.failures:
        obs.record(
            "run_failures",
            retries=stats.retries,
            backoff_seconds=stats.backoff_seconds,
        )
    return RunResult(variables=store, stats=stats)
