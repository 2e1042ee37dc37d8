"""The batch driver: one dispatch/gather loop for every worker backend.

An out-of-process backend differs from its siblings only in *how jobs
and results cross the process boundary* -- a shared-memory arena and
queues for the pool, framed sockets for the cluster.  That difference
is the :class:`Transport` interface; everything else lives here, once,
in :class:`DriverBackend`:

* keep each transport's forked workers -- its :class:`Crew` -- for the
  next run, and decide at every ``open`` whether the kept crew can run
  the new one (see below);
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

**Crews outlive a run.**  A solver runs its step body once per time
step on the same workers (:func:`~repro.ode.integrate_functional` with a
``backend``); forking them anew for every
:func:`~repro.runtime.run_program` would cost more than the step.  So
the workers a transport forks form a :class:`Crew` that stays alive
after ``close`` in a process-wide slot, one per transport name, and the
next ``open`` of a backend of the same class takes it over when all of
these hold:

* it is **whole**: every member alive and nothing of the last run still
  running (:meth:`Crew.whole`) -- no member was lost, spawned or
  joined from outside, and no job (a lost speculation backup, say) was
  outstanding when that run closed, which also ended without an
  exception;
* it was forked with the same **fork-time arguments**
  (:meth:`Transport.fork_args`: worker count, fault plan, retry policy,
  and whatever else a member inherits);
* it **inherited every body** of the new graph: each task is registered
  at ``open`` under a token that is never reused, keyed on the task
  object *and* its ``func`` (rebinding ``task.func`` registers it
  again), and a crew holds exactly the bodies registered before it
  forked.  Jobs name their body by token, so a member runs this run's
  exact task, never a same-named task of an earlier graph.

Otherwise the kept crew is stopped and a fresh one forked.  Whatever
the transport keeps *per run* (the pool's arena, the cluster members'
array tables) is set up in :meth:`Transport.reset` and dropped in
:meth:`Transport.end`; a kept crew's members let go of it
(:meth:`Crew.park`: the pool's workers detach the arena) before the
next run takes the crew over.  An :mod:`atexit` hook stops every crew
of the process, on a normal exit and on ``SystemExit``; a forked child
starts with none.

A backend is a :class:`DriverBackend` subclass that fills in the
:class:`Transport` methods; the tests drive the same loop through an
in-memory transport with no processes at all.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ...recovery.speculation import SpeculationRecord
from .attempts import backup_finish
from .base import (
    AttemptEvent,
    ExecutionBackend,
    RunContext,
    TaskOutcome,
    TaskRequest,
)

__all__ = ["Body", "Crew", "Job", "Transport", "DriverBackend"]


class Body(NamedTuple):
    """A task body as a forked worker runs it: the name and the ``func``
    the task had when it was registered (what
    :func:`~repro.runtime.backends.attempts.run_job` reads of a task)."""

    name: str
    func: Optional[Callable]


class Crew:
    """The workers a transport forked, kept from one run to the next.

    A transport's :meth:`Transport.fork` returns its subclass (the
    processes, channels or coordinator it started); the driver owns the
    rest: ``key`` (the backend class and its fork-time arguments),
    ``issued`` (tokens below it were registered before the fork, so the
    members inherited those bodies) and ``busy`` (a run holds it).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.key: Any = None
        self.issued = 0
        self.busy = True

    def whole(self) -> bool:
        """Every member alive, and none still busy with an earlier job
        or still holding what it let go of in :meth:`park`."""
        return True

    def park(self) -> bool:
        """Have every member let go of the finished run as the crew is
        kept (the next take-over may wait for that in :meth:`whole`);
        ``False`` if one cannot (the crew is stopped instead)."""
        return True

    def stop(self) -> None:
        """Stop every member; must tolerate a partial fork."""


# ----------------------------------------------------------------------
# the process-wide bodies and crews
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
#: task -> (its ``func`` when registered, token); tokens are never reused
_TOKENS: "weakref.WeakKeyDictionary[Any, Tuple[Optional[Callable], int]]" = (
    weakref.WeakKeyDictionary()
)
_issued = 0
#: the crew of each transport name, idle or busy
_CREWS: Dict[str, Crew] = {}
#: every crew not stopped yet (a busy slot makes a concurrent run fork
#: a crew of its own, stopped when that run closes)
_LIVE: Set[Crew] = set()
_exit_hook = False


def _register(graph) -> Dict[str, int]:
    """Token of every task of ``graph``, registering what is new.

    A task is new when it was never registered or its ``func`` is not
    the one it was registered with.  Call with :data:`_LOCK` held.
    """
    global _issued
    tokens = {}
    for task in graph.topological_order():
        entry = _TOKENS.get(task)
        if entry is None or entry[0] is not task.func:
            entry = _TOKENS[task] = (task.func, _issued)
            _issued += 1
        tokens[task.name] = entry[1]
    return tokens


def _bodies() -> Tuple[Dict[int, Body], int]:
    """``(token -> body, first unissued token)``: what a crew forked now
    inherits.  Call with :data:`_LOCK` held."""
    bodies = {token: Body(task.name, func) for task, (func, token) in list(_TOKENS.items())}
    return bodies, _issued


def _release(name: str, crew: Crew, keep: bool) -> None:
    """Park ``crew`` for the next run, or stop it."""
    with _LOCK:
        parked = _CREWS.get(name) is crew
        if keep and parked:
            crew.busy = False
            return
        if parked:
            del _CREWS[name]
        _LIVE.discard(crew)
    crew.stop()


def _stop_crews() -> None:
    """Stop every crew of this process (at interpreter exit)."""
    with _LOCK:
        crews = list(_LIVE)
        _LIVE.clear()
        _CREWS.clear()
    for crew in crews:
        crew.stop()


def _forget_crews() -> None:
    """In a forked child: the parent's crews are not this process's."""
    global _LOCK
    _LOCK = threading.Lock()
    _LIVE.clear()
    _CREWS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_crews)


class Job:
    """Driver-side state of one dispatched job (a primary or a backup).

    ``body`` is the token of the task's registered body (what a forked
    worker looks the body up by); ``arrived`` marks a job whose result
    is in (a second result for it is a duplicate and is dropped).  A
    primary leaves the job table only once its own result *and* its
    backup's have arrived, so a backup that lost its race is still
    accounted for when it finally reports.
    """

    __slots__ = (
        "jid", "request", "body", "backup_of", "dispatched", "threshold",
        "backup_jid", "arrived",
    )

    def __init__(
        self, jid: int, request: TaskRequest, body: int, backup_of: Optional[int] = None
    ):
        self.jid = jid
        self.request = request
        self.body = body
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

    def fork_args(self, run: RunContext) -> Tuple:
        """What a member inherits at fork besides the bodies: a kept crew
        runs ``run`` only if these equal the ones it was forked with."""
        return ()

    def fork(self, run: RunContext, bodies: Dict[int, "Body"]) -> Crew:
        """Fork a crew whose members inherit ``bodies`` (token -> body).

        On failure, stop whatever was started before raising.
        """
        raise NotImplementedError

    def reset(self, run: RunContext) -> None:
        """Set up the per-run state of ``self._crew``, fresh or kept."""
        raise NotImplementedError

    def end(self) -> None:
        """Drop the per-run state; must tolerate a failed :meth:`reset`,
        no crew at all and a second call."""
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


class DriverBackend(Transport, ExecutionBackend):
    """Execute batches on workers reached through the :class:`Transport`.

    Subclasses set ``name`` and ``poll_interval`` (seconds one
    :meth:`~Transport.poll` may block; also how quickly a speculation
    threshold is noticed) and implement the transport methods.
    """

    poll_interval: float = 0.02

    def __init__(self) -> None:
        self._run: Optional[RunContext] = None
        self._crew: Optional[Crew] = None
        self._bodies: Dict[str, int] = {}
        self._failed = False
        self._jobs: Dict[int, Job] = {}
        self._next_jid = 0
        self._offset = 0.0
        self._done = 0
        self._opened = 0.0
        self._busy: Dict[int, float] = {}
        self._spec_inflight = 0

    # ------------------------------------------------------------------
    def open(self, run: RunContext) -> None:
        """Take over or fork a crew and publish the progress baseline."""
        self._run = run
        # worker events use time.monotonic(); instrumentation spans use
        # time.perf_counter() -- convert at the boundary
        self._offset = time.perf_counter() - time.monotonic()
        self._done = 0
        self._opened = time.perf_counter()
        self._busy = {}
        self._failed = False
        try:
            self._crew = self._acquire(run)
            self.reset(run)
        except BaseException:
            self._failed = True
            self.close()
            raise
        self._publish("backend_tasks_total", len(run.graph))
        self._publish("backend_tasks_done", 0)
        self._publish("backend_workers", self._crew.size)
        self._publish("backend_speculation_in_flight", 0)

    def _acquire(self, run: RunContext) -> Crew:
        """The kept crew if it can run ``run`` (module docstring), else a fresh one."""
        global _exit_hook
        key = (type(self), self.fork_args(run))
        with _LOCK:
            self._bodies = _register(run.graph)
            crew = _CREWS.get(self.name)
            if crew is not None and crew.busy:
                crew = None  # a concurrent run holds it
            elif crew is not None:
                crew.busy = True
        if crew is not None:
            kept = False
            try:
                kept = (
                    crew.key == key
                    and max(self._bodies.values(), default=-1) < crew.issued
                    and crew.whole()
                )
            finally:
                if not kept:
                    _release(self.name, crew, keep=False)
            if kept:
                return crew
        with _LOCK:
            bodies, issued = _bodies()
        crew = self.fork(run, bodies)
        crew.key, crew.issued = key, issued
        with _LOCK:
            _LIVE.add(crew)
            _CREWS.setdefault(self.name, crew)
            if not _exit_hook:
                # registered after a fork, so it runs before
                # multiprocessing's own exit hook reaps the daemons
                atexit.register(_stop_crews)
                _exit_hook = True
        return crew

    def _publish(self, gauge: str, value: float, **labels: Any) -> None:
        self._run.obs.publish(gauge, float(value), backend=self.name, **labels)

    def _advance(self, tasks: int) -> None:
        """Count ``tasks`` more as done (resumed and structural ones too)."""
        if tasks:
            self._done += tasks
            self._publish("backend_tasks_done", self._done)

    # ------------------------------------------------------------------
    def run_batch(self, tasks, prepare, commit) -> None:
        """Prepare in order, execute on the workers, commit in order.

        An exception on the way (a worker lost for good, a task that
        gave up) keeps the crew from the next run.
        """
        assert self._run is not None, "open() must be called before run_batch()"
        try:
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
        except BaseException:
            self._failed = True
            raise

    def _new_job(self, request: TaskRequest, backup_of: Optional[int] = None) -> Job:
        job = Job(self._next_jid, request, self._bodies[request.task.name], backup_of)
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
            gave_up=payload["gave_up"],
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
        """End the run; keep the crew for the next one if it is whole,
        nothing is outstanding, the run raised nothing and the members
        parked, else stop it."""
        crew = self._crew
        keep = False
        try:
            self.end()
            keep = (
                crew is not None and not self._failed and not self._jobs
                and crew.whole() and crew.park()
            )
        finally:
            self._crew = None
            if crew is not None:
                _release(self.name, crew, keep)
        self._jobs = {}
        if self._run is not None:
            # lost backups still running when the run ends never report
            self._publish("backend_speculation_in_flight", 0)
        self._spec_inflight = 0
        self._run = None
