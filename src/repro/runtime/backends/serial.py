"""The serial, accounted execution backend (the default).

Every task body runs in-process, one at a time, in topological order,
through the same attempt engine the worker backends use
(:mod:`repro.runtime.backends.attempts`) -- timed on the
instrumentation's own clock, with backoff delays *accounted*, never
slept.  It does not go through the shared batch driver: the loop
commits each task before preparing the next, and a speculation "race"
is resolved analytically, not concurrently -- the backup launches at
the threshold and its effective finish is ``threshold + duration``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...recovery.speculation import SpeculationRecord
from .attempts import backup_finish, run_attempts, run_backup
from .base import AttemptEvent, ExecutionBackend, RunContext, TaskOutcome, TaskRequest

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Execute every task in-process, one at a time, in commit order.

    The default backend of :func:`~repro.runtime.run_program`.  Like
    every backend it reports what happened as
    :class:`~repro.runtime.backends.base.AttemptEvent` records and
    leaves spans, counters and failure records to the executor's commit
    phase; a real (non-injected) error with no fault plan or retry
    policy in force propagates with its original type.
    """

    name = "serial"

    def __init__(self) -> None:
        self._run: Optional[RunContext] = None
        self._done = 0

    def open(self, run: RunContext) -> None:
        """Remember the run context and publish the progress baseline."""
        self._run = run
        self._done = 0
        run.obs.publish(
            "backend_tasks_total", float(len(run.graph)), backend=self.name
        )
        run.obs.publish("backend_tasks_done", 0.0, backend=self.name)

    def run_batch(self, tasks, prepare, commit) -> None:
        """Prepare, execute and commit each task strictly in order.

        A heartbeat gauge (``backend_tasks_done``) is published after
        each task -- resumed and structural tasks count as done
        immediately.
        """
        run = self._run
        assert run is not None, "open() must be called before run_batch()"
        for task in tasks:
            request = prepare(task)
            if request is not None:
                commit(request, self._execute(request))
            self._done += 1
            run.obs.publish(
                "backend_tasks_done", float(self._done), backend=self.name
            )

    def _execute(self, request: TaskRequest) -> TaskOutcome:
        run = self._run
        result = run_attempts(
            request.task, request.q, request.ctx.env, request.values,
            run.faults, run.retry, run.obs.now,
        )
        outcome = TaskOutcome(
            produced=result["produced"],
            failure=result["failure"],
            info=result["info"],
            events=[AttemptEvent(**e) for e in result["events"]],
            collectives=result["collectives"],
        )
        if (
            outcome.failure is None
            and run.speculation is not None
            and run.history is not None
        ):
            threshold = run.speculation.threshold(completed=run.history)
            if threshold is not None and outcome.info["seconds"] > threshold:
                outcome.speculation = self._race(request, outcome.info, threshold)
        return outcome

    def _race(
        self, request: TaskRequest, info, threshold: float
    ) -> Tuple[SpeculationRecord, AttemptEvent]:
        """Race a backup attempt against a straggling (finished) primary.

        Execution is sequential, so the race is accounted rather than
        concurrent: the backup launches at ``threshold`` and its
        effective finish is ``threshold + duration``.  Both attempts
        compute identical outputs for pure bodies, so the winner only
        changes the accounting (``info["seconds"]``, fed into the
        quantile history), never the variables.
        """
        run = self._run
        name = request.task.name
        result = run_backup(
            request.task, request.q, request.ctx.env, request.values, run.obs.now
        )
        event = AttemptEvent(**result["events"][0])
        eff_backup = -1.0
        if result["produced"] is not None:
            eff_backup = backup_finish(run.faults, name, threshold, event.duration)
        record = SpeculationRecord(
            task=name,
            primary_seconds=info["seconds"],
            backup_seconds=eff_backup,
            win=0.0 <= eff_backup < info["seconds"],
        )
        if record.win:
            info["seconds"] = eff_backup
        return record, event

    def close(self) -> None:
        """Nothing to release."""
        self._run = None
        self._done = 0
