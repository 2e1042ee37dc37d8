"""The batch driver: one dispatch/gather loop for every worker backend.

An out-of-process backend differs from its siblings only in *how jobs
and results cross the process boundary* -- a shared-memory arena and
queues for the pool, framed sockets for the cluster.  That difference
is the :class:`Transport` interface; everything else lives here, once,
in :class:`DriverBackend`:

* prepare the batch in order, submit one :class:`Job` per request;
* gather results as they arrive, in any order;
* watch the age of every outstanding primary and race a speculative
  backup against it once the :class:`~repro.recovery.SpeculationPolicy`
  threshold is passed -- first successful arrival supplies the outputs,
  the loser is dropped when it finally arrives;
* assemble the :class:`~repro.runtime.backends.base.TaskOutcome` of a
  primary or a winning backup (worker clock converted into the parent
  instrumentation's frame);
* commit in batch order and publish the ``backend_*`` heartbeat gauges
  (tasks done/total, workers, per-worker busy fraction, speculation in
  flight).

A backend is a :class:`DriverBackend` subclass that fills in the six
:class:`Transport` methods; the tests drive the same loop through an
in-memory transport with no processes at all.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ...recovery.speculation import SpeculationRecord
from .attempts import backup_finish
from .base import (
    AttemptEvent,
    ExecutionBackend,
    RunContext,
    TaskOutcome,
    TaskRequest,
)

__all__ = ["Job", "Transport", "DriverBackend"]


class Job:
    """Driver-side state of one dispatched job (a primary or a backup).

    ``arrived`` marks a job whose result is in (a second result for it
    is a duplicate and is dropped).  A primary leaves the job table only
    once its own result *and* its backup's have arrived, so a backup that
    lost its race is still accounted for when it finally reports.
    """

    __slots__ = (
        "jid", "request", "backup_of", "dispatched", "threshold",
        "backup_jid", "arrived",
    )

    def __init__(self, jid: int, request: TaskRequest, backup_of: Optional[int] = None):
        self.jid = jid
        self.request = request
        self.backup_of = backup_of
        self.dispatched = time.perf_counter()
        self.threshold: Optional[float] = None
        self.backup_jid: Optional[int] = None
        self.arrived = False


class Transport:
    """How jobs reach workers and results come back.

    The only thing the pool and cluster backends differ in.  A result is
    ``(jid, worker, payload)``: ``payload`` is what
    :func:`~repro.runtime.backends.attempts.run_job` returned on the
    worker, with ``"outputs"`` (a ``{name: array}`` dict the caller
    owns, or ``None``) in place of ``"produced"``.
    """

    def start(self, run: RunContext) -> int:
        """Bring the workers up for ``run``; returns how many there are."""
        raise NotImplementedError

    def submit(self, jobs: List[Job]) -> None:
        """Hand a batch of primaries to the workers."""
        raise NotImplementedError

    def submit_backup(self, backup: Job, owner: Job) -> None:
        """Hand a speculative backup of ``owner`` to some other worker."""
        raise NotImplementedError

    def poll(self, timeout: float) -> Optional[Tuple[int, Optional[int], Dict[str, Any]]]:
        """Next result, or ``None`` when none arrived within ``timeout``.

        Raises when the run cannot continue (every worker gone, a job
        out of dispatch attempts).
        """
        raise NotImplementedError

    def idle(self, waiting: List[Job]) -> None:
        """Called after an empty poll with the primaries still awaited.

        The place for liveness checks: raise if those jobs can never
        complete.
        """
        raise NotImplementedError

    def stop(self) -> None:
        """Shut the workers down; must tolerate a failed :meth:`start`."""
        raise NotImplementedError


class DriverBackend(Transport, ExecutionBackend):
    """Execute batches on workers reached through the :class:`Transport`.

    Subclasses set ``name`` and ``poll_interval`` (seconds one
    :meth:`~Transport.poll` may block; also how quickly a speculation
    threshold is noticed) and implement the transport methods.
    """

    poll_interval: float = 0.02

    def __init__(self) -> None:
        self._run: Optional[RunContext] = None
        self._jobs: Dict[int, Job] = {}
        self._next_jid = 0
        self._offset = 0.0
        self._done = 0
        self._opened = 0.0
        self._busy: Dict[int, float] = {}
        self._spec_inflight = 0

    # ------------------------------------------------------------------
    def open(self, run: RunContext) -> None:
        """Start the transport and publish the progress baseline."""
        self._run = run
        # worker events use time.monotonic(); instrumentation spans use
        # time.perf_counter() -- convert at the boundary
        self._offset = time.perf_counter() - time.monotonic()
        self._done = 0
        self._opened = time.perf_counter()
        self._busy = {}
        try:
            workers = self.start(run)
        except Exception:
            self.close()
            raise
        self._publish("backend_tasks_total", len(run.graph))
        self._publish("backend_tasks_done", 0)
        self._publish("backend_workers", workers)
        self._publish("backend_speculation_in_flight", 0)

    def _publish(self, gauge: str, value: float, **labels: Any) -> None:
        self._run.obs.publish(gauge, float(value), backend=self.name, **labels)

    def _advance(self, tasks: int) -> None:
        """Count ``tasks`` more as done (resumed and structural ones too)."""
        if tasks:
            self._done += tasks
            self._publish("backend_tasks_done", self._done)

    # ------------------------------------------------------------------
    def run_batch(self, tasks, prepare, commit) -> None:
        """Prepare in order, execute on the workers, commit in order."""
        assert self._run is not None, "open() must be called before run_batch()"
        requests = [r for r in (prepare(t) for t in tasks) if r is not None]
        self._advance(len(tasks) - len(requests))
        if not requests:
            return
        jobs = [self._new_job(request) for request in requests]
        self.submit(jobs)
        resolved = self._gather({job.jid for job in jobs})
        for job in jobs:
            commit(job.request, resolved[job.jid])
            self._advance(1)

    def _new_job(self, request: TaskRequest, backup_of: Optional[int] = None) -> Job:
        job = Job(self._next_jid, request, backup_of)
        self._next_jid += 1
        self._jobs[job.jid] = job
        return job

    # ------------------------------------------------------------------
    def _gather(self, pending: Set[int]) -> Dict[int, TaskOutcome]:
        run = self._run
        resolved: Dict[int, TaskOutcome] = {}
        while pending:
            arrival = self.poll(self.poll_interval)
            if arrival is not None:
                self._handle_result(arrival, pending, resolved)
                continue
            self.idle([self._jobs[jid] for jid in sorted(pending)])
            if run.speculation is not None and run.history is not None:
                self._maybe_speculate(pending)
        return resolved

    def _maybe_speculate(self, pending: Set[int]) -> None:
        run = self._run
        threshold = run.speculation.threshold(completed=run.history)
        if threshold is None:
            return
        now = time.perf_counter()
        for jid in sorted(pending):
            owner = self._jobs[jid]
            if owner.backup_jid is None and now - owner.dispatched > threshold:
                backup = self._new_job(owner.request, backup_of=owner.jid)
                owner.backup_jid = backup.jid
                owner.threshold = threshold
                self.submit_backup(backup, owner)
                self._spec_inflight += 1
                self._publish("backend_speculation_in_flight", self._spec_inflight)

    def _handle_result(self, arrival, pending: Set[int], resolved: Dict[int, TaskOutcome]) -> None:
        jid, wid, payload = arrival
        self._heartbeat(wid, payload)
        job = self._jobs.get(jid)
        if job is None or job.arrived:  # already forgotten, or a duplicate
            return
        job.arrived = True
        owner = job
        if job.backup_of is not None:
            owner = self._jobs[job.backup_of]
            self._spec_inflight -= 1
            self._publish("backend_speculation_in_flight", self._spec_inflight)
        if owner.jid in pending:  # else the race is already decided
            if job is owner:
                outcome = self._primary_outcome(payload, wid, owner)
            else:
                outcome = self._backup_outcome(payload, wid, owner)
            if outcome is not None:
                resolved[owner.jid] = outcome
                pending.discard(owner.jid)
        backup = self._jobs.get(owner.backup_jid)
        if owner.arrived and (backup is None or backup.arrived):
            self._jobs.pop(owner.jid, None)
            self._jobs.pop(owner.backup_jid, None)

    def _heartbeat(self, wid: Optional[int], payload: Dict[str, Any]) -> None:
        """Publish one worker's cumulative busy fraction.

        Attempt durations reported by the worker accumulate into its
        busy total; the fraction is busy seconds over seconds since the
        backend opened, clamped to 1.0 (clock-frame jitter on very short
        runs can nudge it past the bound).
        """
        busy = sum(e["duration"] for e in payload["events"])
        self._busy[wid] = self._busy.get(wid, 0.0) + busy
        elapsed = time.perf_counter() - self._opened
        fraction = min(1.0, self._busy[wid] / elapsed) if elapsed > 0 else 0.0
        self._publish("backend_worker_busy_fraction", fraction, worker=wid)

    # ------------------------------------------------------------------
    def _event(self, event: Dict[str, Any], wid: Optional[int]) -> AttemptEvent:
        return AttemptEvent(
            worker=wid, **dict(event, start=event["start"] + self._offset)
        )

    def _primary_outcome(self, payload, wid, owner: Job) -> TaskOutcome:
        outcome = TaskOutcome(
            produced=payload["outputs"],
            failure=payload["failure"],
            info=dict(payload["info"]),
            events=[self._event(e, wid) for e in payload["events"]],
            collectives=payload.get("collectives", []),
            worker=wid,
        )
        if owner.backup_jid is not None and outcome.produced is not None:
            # primary finished first: the backup lost the race (its
            # result, still in flight, is dropped on arrival)
            outcome.speculation = (
                SpeculationRecord(
                    task=owner.request.task.name,
                    primary_seconds=float(outcome.info.get("seconds", 0.0)),
                    backup_seconds=-1.0,
                    win=False,
                ),
                None,
            )
        return outcome

    def _backup_outcome(self, payload, wid, owner: Job) -> Optional[TaskOutcome]:
        if payload["outputs"] is None:
            return None  # backup crashed or misbehaved: just a lost race
        name = owner.request.task.name
        event = self._event(payload["events"][0], wid)
        eff_backup = backup_finish(
            self._run.faults, name, owner.threshold, event.duration
        )
        record = SpeculationRecord(
            task=name,
            primary_seconds=time.perf_counter() - owner.dispatched,
            backup_seconds=eff_backup,
            win=True,
        )
        return TaskOutcome(
            produced=payload["outputs"],
            info={"attempts": 1, "seconds": eff_backup, "error": "",
                  "backoff_seconds": 0.0},
            collectives=payload.get("collectives", []),
            speculation=(record, event),
            worker=wid,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the transport, forget every outstanding job."""
        self.stop()
        self._jobs = {}
        if self._run is not None:
            # lost backups still running when the run ends never report
            self._publish("backend_speculation_in_flight", 0)
        self._spec_inflight = 0
        self._run = None
