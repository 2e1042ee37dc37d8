"""Elastic socket-cluster execution backend with failure detection.

:class:`ClusterBackend` is the socket
:class:`~repro.runtime.backends.driver.Transport`: batch dispatch,
gathering, speculation races, outcome assembly and in-order commit are
the shared :class:`~repro.runtime.backends.driver.DriverBackend`'s, and
each worker runs tasks through
:func:`~repro.runtime.backends.attempts.run_job` like a pool worker
does.  What this module adds is how jobs reach worker *processes*
connected over TCP sockets (localhost by default): a **coordinator**
-- one ``selectors`` wait over the listening socket and every member
connection, stepped on the driver's own thread inside
:meth:`ClusterBackend.poll` -- speaks a length-prefixed, array-chunked
pickle protocol (:mod:`repro.runtime.backends.wire`), and each worker
is a forked child
(:mod:`repro.runtime.backends.cluster_worker`) that inherits the task
registry, fault plan and retry policy at fork time, exactly like a pool
worker.  The same per-``(task, attempt)`` seeded draws make every
outcome independent of *which* worker executes it -- the basis of the
serial/cluster bit-identity guarantee.

Robustness is the point of this backend:

* **membership by heartbeat.**  Every worker sends a heartbeat frame on
  an interval; the coordinator's membership table marks a worker dead
  once it has been silent for ``heartbeat_timeout`` seconds (a closed
  connection -- e.g. a SIGKILLed worker -- is detected at the next
  step).  Silence is judged from what the sockets hold, not from what
  has been read (:meth:`_Coordinator.step`), so a driver busy elsewhere
  or a peer stalled mid-frame never costs a healthy worker.
  Workers may join at any time (:meth:`ClusterBackend.spawn_worker`, or
  an external ``python -m repro.runtime.backends.cluster_worker``) and
  leave at any time; both are membership events, not crashes.
* **lost-worker requeue.**  Tasks in flight on (or queued behind) a
  dead worker are redispatched to the survivors with an incremented
  dispatch attempt; accounted backoff between redispatches reuses
  :class:`~repro.faults.RetryPolicy` seeded delays (``dispatch_retry``).
  Only when *no* worker remains does the run fail, naming the stranded
  tasks.  Each permanent departure is reported once, in the run's
  instrumentation: a ``worker_crash`` record (shared with the pool
  backend, naming the tasks in flight and their dispatch attempts), the
  ``cluster.worker_losses`` counter and the ``backend_workers`` gauge.
* **per-task dispatch deadlines.**  With ``dispatch_retry``, a worker
  holding a task longer than ``dispatch_retry.timeout`` seconds is
  treated as hung: the task is redispatched elsewhere (bounded by the
  policy's ``max_attempts``), and the hung worker receives no new work
  until it answers.
* **work stealing.**  Batch tasks are sharded round-robin into
  per-worker queues; a worker that drains its own queue steals from the
  most loaded one (``cluster.steals``), so one slow worker cannot
  strand a batch's tail.  A newly joined worker starts stealing
  immediately -- elasticity and stealing are one mechanism.
* **arrays ship once per worker.**  A worker keeps every array it has
  received or produced for the life of its connection
  (:mod:`~repro.runtime.backends.cluster_worker`), and the coordinator
  records per member what that worker holds.  A job frame names its
  inputs by token (from the parent's
  :class:`~repro.runtime.backends.arrays.ArrayLedger`, keyed by the
  identity of the ``store`` entry); :meth:`_Coordinator._dispatch` --
  where the target is finally known, after sharding, stealing or a
  requeue -- attaches bytes only for the tokens that member lacks.  A
  batch job is placed on the live member already holding most of its
  input bytes (round-robin on ties and on empty tables), so data moves
  only along a dependence edge that crosses workers.  The parent still
  receives and owns every output: the tables are a cache, and losing a
  worker loses nothing that needs recovering.
* **exactly-once commit.**  Every dispatch carries ``(task, attempt)``;
  the coordinator resolves each job once and drops late duplicates --
  e.g. the answer of a slow worker whose task was already stolen,
  re-executed and committed elsewhere (``cluster.duplicate_results``).
  Together with the executor's single in-order commit per request and
  the :class:`~repro.recovery.RunJournal`'s duplicate-completion guard,
  a task outcome reaches the journal exactly once, so a cluster run
  under injected worker kills resumes bit-identical to an uninterrupted
  serial run.
* **backups avoid the straggler.**  When the driver races a
  speculative backup (:class:`~repro.recovery.SpeculationPolicy`), the
  coordinator queues it at the head of the least-loaded worker *other
  than* the one holding the primary -- the mitigation for *slow*
  (rather than dead) remote workers.

Commit order is the batch's topological order regardless of completion
order, so journals, failure records and variable stores stay
bit-identical across serial, pool and cluster backends.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import selectors
import signal
import socket
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from .arrays import ArrayLedger, Traffic
from .base import RunContext, emit_worker_crash, pin_worker
from .cluster_worker import serve
from .driver import DriverBackend, Job
from .wire import WireError, recv_message, send_message

__all__ = ["ClusterBackend"]


# ----------------------------------------------------------------------
# coordinator (stepped on the driver's thread)
# ----------------------------------------------------------------------
class _Member:
    """Coordinator-side membership-table row for one worker."""

    __slots__ = (
        "wid", "pid", "sock", "last_seen", "alive", "inflight", "queue",
        "steals", "held",
    )

    def __init__(self, wid: int, pid: Optional[int], sock) -> None:
        self.wid = wid
        self.pid = pid
        self.sock = sock
        self.last_seen = time.monotonic()
        self.alive = True
        self.inflight: Optional[int] = None
        self.queue: Deque[int] = collections.deque()
        self.steals = 0
        #: tokens of the arrays in this worker's table (sent or produced)
        self.held: set = set()


class _CoordJob:
    """Coordinator-side state of one dispatchable job."""

    __slots__ = ("jid", "frame", "attempt", "worker", "dispatched", "resolved")

    def __init__(self, jid: int, frame: Dict[str, Any]) -> None:
        self.jid = jid
        # kept whole -- every input array included -- so a requeue can
        # redispatch to a worker that holds none of them
        self.frame = frame
        self.attempt = 0
        self.worker: Optional[int] = None
        self.dispatched: Optional[float] = None
        self.resolved = False


def _held_bytes(member: _Member, arrays: Dict[Any, np.ndarray]) -> int:
    """Input bytes of a job already in ``member``'s table."""
    return sum(arr.nbytes for token, arr in arrays.items() if token in member.held)


class _Coordinator:
    """The membership/dispatch engine behind a cluster run.

    It has no thread of its own: its sockets are read, and its clocks
    consulted, only inside :meth:`step`, which the backend calls from
    the driver's thread (``poll``, ``start``, :meth:`alive_count`).
    ``submit`` / ``submit_backup`` are ordinary calls; results and
    membership events are appended to the two deques the backend owns.
    Every member socket carries ``heartbeat_timeout`` as its timeout, so
    no read or write can hold the thread longer than that, and a member
    whose stream times out or fails is closed and declared lost -- never
    retried on the same stream.
    """

    def __init__(
        self,
        heartbeat_timeout: float,
        dispatch_retry,
        results: Deque[Tuple],
        events: Deque[Tuple],
    ) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        self.dispatch_retry = dispatch_retry
        self.results = results
        self.events = events
        self.members: Dict[int, _Member] = {}
        self.jobs: Dict[int, _CoordJob] = {}
        self.port: Optional[int] = None
        self._listener: Optional[socket.socket] = None
        #: listener and connections (a connection's data is its ``_Member``,
        #: ``None`` until its ``hello``)
        self._sel: Optional[selectors.BaseSelector] = None

    # -- lifecycle ------------------------------------------------------
    def start(self, host: str = "127.0.0.1") -> int:
        """Open the listening socket; returns the port."""
        self._listener = socket.create_server((host, 0))
        self._listener.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ)
        self.port = self._listener.getsockname()[1]
        return self.port

    def stop(self) -> None:
        """Stop serving: send ``stop`` to the workers, close every socket."""
        if self._sel is None:
            return
        for member in self._live():
            try:
                send_message(member.sock, {"type": "stop"})
            except OSError:
                pass
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()
        self._sel.close()
        self._sel = self._listener = None

    def step(self, timeout: float) -> None:
        """One turn: wait for sockets, judge liveness, read, sweep deadlines.

        The order is the point.  A read may block for up to
        ``heartbeat_timeout`` (a peer stalled mid-frame) and the caller
        is away between batches (commit, journal fsync), so "time since
        this thread last read a frame" says nothing about a worker.
        Liveness is therefore judged from the ready set, before any
        read: a member whose socket has bytes waiting is alive *now*,
        however old those bytes are, and silence is measured against
        that.  Frames are read next (one per ready socket; whatever is
        left makes the next wait return at once), and a dispatch
        deadline is swept last and only for a member with nothing
        waiting -- a result already queued must be taken before its job
        can be called overdue.
        """
        ready = self._sel.select(timeout)
        now = time.monotonic()
        for key, _ in ready:
            if key.data is not None:
                key.data.last_seen = now
        for member in self._live():
            if now - member.last_seen > self.heartbeat_timeout:
                self._mark_lost(member, "heartbeat timeout")
        for key, _ in ready:
            if key.fileobj is self._listener:
                self._accept()
            elif key.data is None or key.data.alive:
                self._read(key.fileobj, key.data)
        deadline = (
            self.dispatch_retry.timeout if self.dispatch_retry is not None else None
        )
        heard = {key.data for key, _ in ready}
        for member in self._live():
            job = self.jobs.get(member.inflight)
            if (
                deadline is not None
                and member not in heard
                and job is not None
                and not job.resolved
                and job.dispatched is not None
                and now - job.dispatched > deadline
            ):
                # hung dispatch: requeue elsewhere, keep the suspect
                # busy (no new work until it answers)
                self.events.append(
                    ("deadline", job.frame["name"], job.attempt, member.wid)
                )
                self._requeue(job, f"dispatch deadline on worker {member.wid}")
            # an idle member may have missed a pump (e.g. joined while
            # every queue was momentarily empty)
            self._pump(member)

    # -- membership -----------------------------------------------------
    def _accept(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:  # the peer gave up between select and accept
            return
        conn.settimeout(self.heartbeat_timeout)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sel.register(conn, selectors.EVENT_READ)

    def _drop(self, sock: socket.socket) -> None:
        self._sel.unregister(sock)
        sock.close()

    def _read(self, sock: socket.socket, member: Optional[_Member]) -> None:
        """Take one frame off a ready connection (its ``hello`` if it has no member)."""
        try:
            msg = recv_message(sock)
        except (EOFError, OSError, WireError) as exc:
            if member is None:
                self._drop(sock)
            else:
                stalled = isinstance(exc, socket.timeout)
                self._mark_lost(
                    member, "heartbeat timeout" if stalled else "connection lost"
                )
            return
        if member is not None:
            if msg.get("type") == "result":
                self._on_result(member, msg)
            return
        if not isinstance(msg, dict) or msg.get("type") != "hello":
            self._drop(sock)
            return
        wid = int(msg["worker"])
        if wid in self.members and self.members[wid].alive:
            # duplicate id: refuse the newcomer, keep the incumbent
            self.events.append(("rejected", wid))
            self._drop(sock)
            return
        member = self.members[wid] = _Member(wid, msg.get("pid"), sock)
        self._sel.modify(sock, selectors.EVENT_READ, member)
        self.events.append(("worker_joined", wid, member.pid, len(self._live())))
        self._pump(member)

    def _live(self) -> List[_Member]:
        return [m for m in self.members.values() if m.alive]

    def alive_count(self) -> int:
        """Number of live members, after reading what the sockets hold."""
        self.step(0.0)
        return len(self._live())

    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each live member was last seen."""
        now = time.monotonic()
        return {m.wid: now - m.last_seen for m in self._live()}

    def _mark_lost(self, member: _Member, reason: str) -> None:
        """Declare a member dead and requeue everything it held."""
        if not member.alive:
            return
        member.alive = False
        self._drop(member.sock)
        at_risk: List[_CoordJob] = []
        if member.inflight is not None:
            job = self.jobs.get(member.inflight)
            if job is not None and not job.resolved:
                at_risk.append(job)
            member.inflight = None
        for jid in member.queue:
            job = self.jobs.get(jid)
            if job is not None and not job.resolved:
                at_risk.append(job)
        member.queue.clear()
        self.events.append(
            (
                "worker_lost",
                member.wid,
                member.pid,
                reason,
                # (name, dispatch attempt) of what was running, read
                # before the requeue below counts the next attempt
                tuple((j.frame["name"], j.attempt) for j in at_risk
                      if j.dispatched is not None),
                len(self._live()),
            )
        )
        for job in at_risk:
            self._requeue(job, f"worker {member.wid} {reason}")

    # -- dispatch / stealing -------------------------------------------
    def submit(self, frames: List[Dict[str, Any]]) -> None:
        """Register a batch of job frames and place each near its inputs.

        A job goes to the live member whose table already holds most of
        its input bytes; on a tie -- always, while the tables are empty
        -- to the member round-robin sharding would pick.  An idle
        member still steals, so locality never strands a batch's tail.
        """
        targets = sorted(self._live(), key=lambda m: m.wid)
        for i, frame in enumerate(frames):
            job = _CoordJob(frame["job"], frame)
            self.jobs[job.jid] = job
            if targets:
                turn = targets[i % len(targets)]
                max(
                    targets,
                    key=lambda m: (_held_bytes(m, frame["arrays"]), m is turn),
                ).queue.append(job.jid)
        if not targets:
            self._check_stranded()
            return
        for member in targets:
            self._pump(member)

    def submit_backup(self, frame: Dict[str, Any], avoid_jid: int) -> None:
        """Register a speculative backup, preferring a different worker."""
        job = _CoordJob(frame["job"], frame)
        self.jobs[job.jid] = job
        owner = self.jobs.get(avoid_jid)
        avoid = owner.worker if owner is not None else None
        candidates = sorted(
            (m for m in self._live() if m.wid != avoid),
            key=lambda m: (m.inflight is not None, len(m.queue), m.wid),
        )
        if not candidates:
            candidates = sorted(self._live(), key=lambda m: m.wid)
        if not candidates:
            self._check_stranded()
            return
        candidates[0].queue.appendleft(job.jid)
        self._pump(candidates[0])

    def _pump(self, member: _Member) -> None:
        """Hand an idle member its next job (own queue first, then steal)."""
        if not member.alive or member.inflight is not None:
            return
        jid = self._next_for(member)
        if jid is not None:
            self._dispatch(member, jid)

    def _next_for(self, member: _Member) -> Optional[int]:
        while member.queue:
            jid = member.queue.popleft()
            if not self.jobs[jid].resolved:
                return jid
        victims = [m for m in self._live() if m.wid != member.wid and m.queue]
        if not victims:
            return None
        victim = max(victims, key=lambda m: (len(m.queue), m.wid))
        while victim.queue:
            jid = victim.queue.pop()  # steal from the tail, owner keeps the head
            if not self.jobs[jid].resolved:
                member.steals += 1
                self.events.append(
                    ("steal", member.wid, victim.wid, self.jobs[jid].frame["name"])
                )
                return jid
        return None

    def _dispatch(self, member: _Member, jid: int) -> None:
        """Send ``jid`` to ``member``: bytes for what it lacks, tokens for the rest."""
        job = self.jobs[jid]
        job.worker = member.wid
        job.dispatched = time.monotonic()
        member.inflight = jid
        frame = dict(job.frame, attempt=job.attempt)
        arrays = frame.pop("arrays")
        frame["new"] = new = {
            token: arr for token, arr in arrays.items() if token not in member.held
        }
        member.held.update(new)
        self.events.append(
            ("shipped", sum(a.nbytes for a in new.values()), len(arrays) - len(new))
        )
        self._send(member, frame)

    def _send(self, member: _Member, frame: Dict[str, Any]) -> None:
        try:
            send_message(member.sock, frame)
        except OSError:
            self._mark_lost(member, "connection lost")

    def _requeue(self, job: _CoordJob, reason: str) -> None:
        """Redispatch an at-risk job, with accounted seeded backoff."""
        name = job.frame["name"]
        retry = self.dispatch_retry
        if retry is not None and job.attempt + 1 >= retry.max_attempts:
            job.resolved = True
            self.results.append(
                ("dispatch_failed", job.jid, name, job.attempt + 1, reason)
            )
            return
        backoff = retry.delay(name, job.attempt) if retry is not None else 0.0
        job.attempt += 1
        job.worker = None
        job.dispatched = None
        self.events.append(("requeue", name, job.attempt, reason, backoff))
        targets = self._live()
        if not targets:
            self._check_stranded()
            return
        target = min(targets, key=lambda m: (len(m.queue), m.wid))
        target.queue.append(job.jid)
        self._pump(target)

    def _check_stranded(self) -> None:
        """With no live members, unresolved jobs can never complete."""
        stranded = sorted(
            j.frame["name"] for j in self.jobs.values() if not j.resolved
        )
        if stranded:
            for job in self.jobs.values():
                job.resolved = True
            self.results.append(("stranded", tuple(stranded)))

    # -- results --------------------------------------------------------
    def _on_result(self, member: _Member, msg: Dict[str, Any]) -> None:
        jid = msg.get("job")
        job = self.jobs.get(jid)
        if member.inflight == jid:
            member.inflight = None
        if job is None or job.resolved:
            # late answer of a requeued/stolen dispatch: exactly-once
            # commit drops everything after the first arrival
            name = job.frame["name"] if job is not None else "?"
            self.events.append(("duplicate", name, msg.get("attempt", 0)))
        else:
            job.resolved = True
            # the producer's table holds its outputs under (job, name)
            member.held.update((jid, name) for name in msg["payload"].get("outputs") or ())
            self.results.append(
                ("result", jid, member.wid, msg.get("attempt", 0), msg["payload"])
            )
        self._pump(member)


# ----------------------------------------------------------------------
# backend (main thread)
# ----------------------------------------------------------------------
def _forked_worker(
    host, port, wid, registry, faults, retry, parent_pid, heartbeat_interval, delay
) -> None:
    """Fork target: serve the coordinator from a fresh child process."""
    pin_worker(wid)
    serve(
        host,
        port,
        wid,
        registry,
        faults=faults,
        retry=retry,
        parent_pid=parent_pid,
        heartbeat_interval=heartbeat_interval,
        delay=delay,
    )


class ClusterBackend(DriverBackend):
    """Run M-task batches on socket-connected worker processes.

    Parameters
    ----------
    workers:
        Workers forked at :meth:`open` (default ``os.cpu_count()``, at
        least 2).  More can join later (:meth:`spawn_worker`); the run
        survives any number of departures as long as one member lives.
    heartbeat_interval / heartbeat_timeout:
        Workers heartbeat every ``heartbeat_interval`` seconds; the
        coordinator declares a silent worker dead after
        ``heartbeat_timeout`` seconds (default ``40 ×`` the interval).
        A closed connection is detected immediately, so the timeout only
        gates *hung* (not crashed) workers.
    dispatch_retry:
        Optional :class:`~repro.faults.RetryPolicy` for *dispatch-level*
        robustness: ``timeout`` is the per-task dispatch deadline
        (a worker holding a task longer is treated as hung and the task
        redispatched), ``max_attempts`` bounds redispatches, and
        ``delay()`` supplies the accounted seeded backoff between them.
        Dispatch accounting is infrastructure-level -- it never touches
        ``RunStats``, so bit-identity with the serial backend holds.
    poll_interval:
        Main-thread result poll period; also bounds how quickly
        speculation thresholds and chaos triggers are noticed.
    worker_delay:
        ``{worker_id: seconds}`` straggler injection -- those workers
        sleep before every task (the chaos harness races speculation
        against them).
    chaos_kill:
        ``(worker_id, after_results)``: SIGKILL that worker once the
        backend has gathered that many results -- the deterministic
        worker-kill hook of the cluster chaos job (the analogue of
        ``RunJournal.crash_after``).
    host:
        Bind address of the coordinator socket (default localhost).
    """

    name = "cluster"

    def __init__(
        self,
        workers: Optional[int] = None,
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: Optional[float] = None,
        dispatch_retry=None,
        poll_interval: float = 0.02,
        worker_delay: Optional[Dict[int, float]] = None,
        chaos_kill: Optional[Tuple[int, int]] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else 40.0 * heartbeat_interval
        )
        self.dispatch_retry = dispatch_retry
        self.poll_interval = poll_interval
        self.worker_delay = dict(worker_delay or {})
        self.chaos_kill = chaos_kill
        self.host = host
        super().__init__()
        self._coord: Optional[_Coordinator] = None
        self._results: Deque[Tuple] = collections.deque()
        self._events: Deque[Tuple] = collections.deque()
        self._procs: Dict[int, Any] = {}
        self._next_wid = 0
        self._gathered = 0
        self._chaos_fired = False
        self._registry: Dict[str, Any] = {}
        self._ledger = ArrayLedger()
        self._tokens = itertools.count()
        self._traffic = Traffic()

    # ------------------------------------------------------------------
    def start(self, run: RunContext) -> int:
        """Start the coordinator, fork the workers, await the handshakes."""
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ClusterBackend requires the 'fork' start method (task bodies "
                "are closures and cannot be pickled); it is not available on "
                "this platform -- use the serial backend"
            )
        self._results = collections.deque()
        self._events = collections.deque()
        self._gathered = 0
        self._chaos_fired = False
        self._registry = {t.name: t for t in run.graph.topological_order()}
        self._traffic = Traffic()
        self._coord = _Coordinator(
            heartbeat_timeout=self.heartbeat_timeout,
            dispatch_retry=self.dispatch_retry,
            results=self._results,
            events=self._events,
        )
        self._coord.start(self.host)
        n = self.workers if self.workers is not None else max(2, os.cpu_count() or 1)
        for _ in range(n):
            self.spawn_worker()
        deadline = time.monotonic() + 15.0
        while len(self._coord.members) < n:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise RuntimeError(
                    f"cluster backend: only {len(self._coord.members)} of {n} "
                    "workers joined within 15s"
                )
            self._coord.step(left)
        self._drain_events()
        return n

    # ------------------------------------------------------------------
    @property
    def worker_pids(self) -> Dict[int, int]:
        """Live mapping of worker id to process id (forked workers only)."""
        return {wid: p.pid for wid, p in self._procs.items() if p.is_alive()}

    @property
    def coordinator_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` external workers can join, once open."""
        if self._coord is None or self._coord.port is None:
            return None
        return (self.host, self._coord.port)

    def spawn_worker(self, delay: Optional[float] = None) -> int:
        """Fork one more worker into the membership (elastic join).

        Returns the new worker id at once, at fork; the worker becomes a
        member when the coordinator reads its ``hello``, at the next
        :meth:`poll`.  ``delay`` overrides the per-worker straggler
        injection for this worker.
        """
        run, coord = self._run, self._coord
        if run is None or coord is None or coord.port is None:
            raise RuntimeError("spawn_worker() requires an open backend")
        wid = self._next_wid
        self._next_wid += 1
        mp_ctx = multiprocessing.get_context("fork")
        proc = mp_ctx.Process(
            target=_forked_worker,
            args=(
                self.host,
                coord.port,
                wid,
                self._registry,
                run.faults,
                run.retry,
                os.getpid(),
                self.heartbeat_interval,
                self.worker_delay.get(wid, 0.0) if delay is None else delay,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[wid] = proc
        return wid

    def kill_worker(self, wid: int) -> None:
        """SIGKILL a forked worker (chaos testing)."""
        proc = self._procs.get(wid)
        if proc is not None and proc.is_alive() and proc.pid:
            os.kill(proc.pid, signal.SIGKILL)

    # ------------------------------------------------------------------
    def _frame(self, job: Job) -> Dict[str, Any]:
        """The coordinator's copy of a job: inputs by token, arrays beside.

        ``values`` maps each parameter to the token of its array and
        ``arrays`` each token to the array; ``_Coordinator._dispatch``
        turns ``arrays`` into the frame's ``new`` -- the subset the
        chosen worker lacks.
        """
        req = job.request
        values, arrays = {}, {}
        for key, arr in req.values.items():
            token = self._ledger.get(arr)
            if token is None:
                token = next(self._tokens)
                self._ledger.add(arr, token)
            values[key] = token
            arrays[token] = arr
        return {
            "type": "task",
            "job": job.jid,
            "name": req.task.name,
            "q": req.q,
            "env": dict(req.ctx.env),
            "values": values,
            "arrays": arrays,
            "backup": job.backup_of is not None,
        }

    def submit(self, jobs: List[Job]) -> None:
        """Frame the batch and let the coordinator shard it."""
        self._coord.submit([self._frame(job) for job in jobs])

    def submit_backup(self, backup: Job, owner: Job) -> None:
        """Queue a backup on a worker other than the owner's."""
        self._coord.submit_backup(self._frame(backup), owner.jid)

    def poll(self, timeout: float):
        """Step the coordinator until a result is in or ``timeout`` is up.

        This is where the coordinator runs: joins, losses, steals and
        deadlines are noticed by the steps taken here and applied
        (:meth:`_drain_events`) before the result is handed on.  Raises
        when the batch cannot finish.
        """
        self._maybe_chaos_kill()
        end = time.monotonic() + timeout
        while not self._results:
            self._coord.step(max(0.0, end - time.monotonic()))
            if time.monotonic() >= end:
                break
        self._drain_events()
        if not self._results:
            return None
        item = self._results.popleft()
        kind = item[0]
        if kind == "stranded":
            raise RuntimeError(
                "cluster backend: every worker died; stranded tasks: "
                + ", ".join(repr(t) for t in item[1])
            )
        if kind == "dispatch_failed":
            _, jid, name, attempts, reason = item
            raise RuntimeError(
                f"cluster backend: task {name!r} exhausted {attempts} "
                f"dispatch attempt(s): {reason}"
            )
        _, jid, wid, attempt, payload = item
        self._gathered += 1
        for name, arr in (payload["outputs"] or {}).items():
            # the token its producer's table (and ``_Member.held``) has it under
            self._ledger.add(arr, (jid, name))
            self._traffic.to_parent += arr.nbytes
        self._traffic.publish(self._publish)
        return jid, wid, payload

    def idle(self, waiting: List[Job]) -> None:
        """Publish every live member's heartbeat age."""
        for wid, age in sorted(self._coord.heartbeat_ages().items()):
            self._publish("backend_worker_heartbeat_age_seconds", age, worker=wid)

    def _maybe_chaos_kill(self) -> None:
        if self.chaos_kill is None or self._chaos_fired:
            return
        wid, after = self.chaos_kill
        if self._gathered >= after:
            self._chaos_fired = True
            self.kill_worker(wid)

    # ------------------------------------------------------------------
    def _drain_events(self) -> None:
        """Apply the coordinator's membership/steal events, in order.

        The coordinator never touches the instrumentation -- it appends
        structured events, and this method turns them into counters,
        gauges and ``worker_crash`` records.
        """
        run = self._run
        if run is None:
            return
        obs = run.obs
        while True:
            try:
                event = self._events.popleft()
            except IndexError:
                return
            tag = event[0]
            if tag == "worker_joined":
                _, wid, pid, alive = event
                obs.count("cluster.worker_joins")
                obs.publish("backend_workers", float(alive), backend=self.name)
            elif tag == "worker_lost":
                _, wid, pid, reason, in_flight, alive = event
                obs.count("cluster.worker_losses")
                obs.publish("backend_workers", float(alive), backend=self.name)
                emit_worker_crash(
                    obs,
                    self.name,
                    wid,
                    pid,
                    reason,
                    [{"task": t, "attempt": a} for t, a in in_flight],
                )
            elif tag == "requeue":
                _, name, attempt, reason, backoff = event
                obs.count("cluster.requeues")
                if backoff:
                    obs.observe("cluster.requeue_backoff_seconds", backoff)
            elif tag == "steal":
                _, thief, victim, name = event
                obs.count("cluster.steals")
            elif tag == "duplicate":
                _, name, attempt = event
                obs.count("cluster.duplicate_results")
                obs.record("duplicate_result", task=name, attempt=attempt,
                           backend=self.name)
            elif tag == "deadline":
                obs.count("cluster.dispatch_deadlines")
            elif tag == "rejected":
                obs.count("cluster.rejected_joins")
            elif tag == "shipped":
                _, nbytes, reused = event
                self._traffic.to_workers += nbytes
                self._traffic.reused += reused
                self._traffic.publish(self._publish)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the coordinator, reap every worker, thaw the ledger's arrays."""
        if self._coord is not None:
            self._coord.stop()
            self._coord = None
        self._ledger.clear()
        for proc in self._procs.values():
            proc.join(timeout=0.25)
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = {}
