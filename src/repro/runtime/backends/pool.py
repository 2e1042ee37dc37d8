"""Genuinely parallel execution on a persistent process pool.

:class:`ProcessPoolBackend` is the shared-memory/queue
:class:`~repro.runtime.backends.driver.Transport`: a pool of long-lived
``multiprocessing`` workers pulling jobs from one queue.  Dispatch,
gathering, speculation races, outcome assembly and in-order commit are
the shared :class:`~repro.runtime.backends.driver.DriverBackend`'s, the
retry loop each worker runs is
:func:`~repro.runtime.backends.attempts.run_job`; what is specific to
the pool:

* **fork start method.**  Task bodies are closures defined inside the
  program builders (e.g. the IRK stage functions), which cannot be
  pickled; the pool therefore *requires* the ``fork`` start method so
  workers inherit the registered bodies from the parent's address
  space.  On platforms without ``fork`` (Windows, and macOS defaults
  since Python 3.8) :meth:`ProcessPoolBackend.open` raises with a
  one-line explanation.
* **workers outlive a run.**  The workers and their two queues are the
  pool's :class:`~repro.runtime.backends.driver.Crew`: forked at the
  first ``open``, kept after ``close`` and taken over by the next run
  whose bodies, worker count, fault plan and retry policy they
  inherited (the driver decides; a worker that died, an exception or a
  job still running -- a lost speculation backup -- retires them).  A
  job names its body by the token it was registered under.
* **one arena per run.**  Arrays cross the process boundary through a
  per-run shared-memory arena (:class:`~repro.runtime.backends.arrays.Arena`):
  the parent writes an input into it the first time any task needs it,
  a worker writes its outputs into it, and jobs and results carry only
  ``(chunk, offset, shape, dtype)`` descriptors.  An array read by K
  tasks is written once and an output is never written back for its
  consumers -- the parent's
  :class:`~repro.runtime.backends.arrays.ArrayLedger` maps each
  ``store`` entry to the descriptor it already has.  A worker attaches
  a chunk once and hands bodies read-only views; the parent copies
  each output out once, in :meth:`ProcessPoolBackend.poll`.  The arena
  is a handful of chunks (the first sized from the graph's declared
  ``elements``, more only when something does not fit), each
  registered with the fork-shared ``resource_tracker`` by its creator
  and unlinked by name by the parent when the run closes, on every exit
  path -- kept workers or not, ``/dev/shm`` is back to where it was.
  When a crew is kept, every worker drops its mappings of the run's
  chunks (:meth:`_PoolCrew.park`), and the next run takes the crew over
  only once all have: the pages of an unlinked chunk are freed only
  when nobody maps it, so an idle crew holds none and ``/dev/shm``
  never holds two runs' arenas.
* **deterministic faults.**  Workers inherit the run's
  :class:`~repro.faults.FaultPlan` and :class:`~repro.faults.RetryPolicy`
  at fork time (a kept crew serves only runs with equal ones); because
  both draw from per-``(task, attempt)`` seeded streams, injected
  failures, straggler factors and backoff jitter are identical no
  matter which worker runs which attempt -- the basis of the
  serial/pool equivalence guarantee.
* **backups on the shared queue.**  A speculative backup carries the
  descriptors the primary's inputs already have and goes on the same
  queue, so whichever worker is free takes it -- never the one still
  busy with the straggler.

Caveats: a task body that raises a *real* (non-injected) error with no
retry policy surfaces as a :class:`RuntimeError` carrying the worker
traceback rather than the original exception type, and a hard worker
death (segfault, ``os._exit``) aborts the run.  ``time.sleep``-free
backoff accounting matches the serial backend; delays are never slept
in workers.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .arrays import Arena, ArrayLedger, Descriptor, Traffic, declared_bytes
from .attempts import crash_result, run_job
from .base import RunContext, emit_worker_crash, pin_worker
from .driver import Body, Crew, DriverBackend, Job

__all__ = ["ProcessPoolBackend"]


#: how long a take-over waits for every worker of a kept crew to park
_PARK_SECONDS = 5.0


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _execute(arena: Arena, bodies, faults, retry, msg) -> Dict[str, Any]:
    """Run one ``task`` message against ``arena``; returns the result.

    Inputs are read-only views of the arena (bodies are pure, and the
    next reader of the same bytes may be another task on this worker);
    outputs are written into this worker's chunks and travel as
    descriptors in ``result["outputs"]``.
    """
    _, _job_id, body, q, env, payload, backup, _arena = msg
    try:
        values = {key: arena.view(desc) for key, desc in payload.items()}
        result = run_job(bodies[body], q, env, values, faults, retry, backup)
        outputs = None
        if result["produced"] is not None:
            outputs = {
                out_name: arena.put(np.atleast_1d(np.asarray(arr, dtype=float)))
                for out_name, arr in result["produced"].items()
            }
    except BaseException:  # noqa: BLE001 - never kill the worker loop
        result, outputs = crash_result(), None
    del result["produced"]  # arrays travel as arena descriptors
    result["outputs"] = outputs
    return result


def _worker_main(worker_id, parent_pid, inq, outq, resume, bodies, faults, retry) -> None:
    """Entry point of one pool worker (forked child).

    Loops on the shared job queue until a ``stop`` message arrives or
    the parent disappears (``getppid`` watchdog -- the journal's
    ``crash_after`` chaos hook kills the parent with ``os._exit``, which
    skips any orderly shutdown); one worker serves every run of its
    crew.  A ``park`` message ends a run: the worker detaches the run's
    chunks, says so, and waits for ``resume`` before it reads the queue
    again, so each worker takes exactly one.  A job names its run's
    arena; the first job of a run opens the worker's side of it.
    Worker processes are best-effort pinned to distinct cores.
    """
    pin_worker(worker_id)
    arena = Arena("", str(worker_id), 0)  # no run yet: every prefix is new
    while True:
        try:
            msg = inq.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != parent_pid:
                break
            continue
        if msg[0] == "stop":
            break
        if msg[0] == "park":
            arena.close()
            outq.put(("parked", None, worker_id, None))
            while not resume.acquire(timeout=1.0):
                if os.getppid() != parent_pid:
                    return
            continue
        prefix, chunk_bytes = msg[-1]
        if prefix != arena.prefix:
            arena.close()
            arena = Arena(prefix, str(worker_id), chunk_bytes)
        result = _execute(arena, bodies, faults, retry, msg)
        outq.put(("result", msg[1], worker_id, result))
    arena.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _PoolCrew(Crew):
    """The forked workers, their two queues, the semaphore that lets
    parked workers go and the open run's arena."""

    def __init__(self, size: int, inq, outq) -> None:
        super().__init__(size)
        self.inq = inq
        self.outq = outq
        self.resume: Any = None
        self.parked = False
        self.procs: List[Any] = []
        self.arena: Optional[Arena] = None

    def whole(self) -> bool:
        """Every forked worker is alive -- and, on a parked crew, has
        detached the last run's chunks; then they are let go."""
        if not all(p.is_alive() for p in self.procs):
            return False
        if self.parked:
            deadline = time.monotonic() + _PARK_SECONDS
            for _ in self.procs:
                try:
                    self.outq.get(timeout=max(0.0, deadline - time.monotonic()))
                except queue.Empty:
                    return False
            self._let_go()
        return True

    def park(self) -> bool:
        """Ask every worker to detach the run's chunks; does not wait.

        A worker that took its ``park`` message waits for :attr:`resume`,
        so it cannot take a second; :meth:`whole` collects the answers
        when the next run takes the crew over.
        """
        for _ in self.procs:
            self.inq.put(("park",))
        self.parked = True
        return True

    def _let_go(self) -> None:
        for _ in self.procs:
            self.resume.release()
        self.parked = False

    def unlink(self) -> None:
        """Unlink the open run's arena -- by name, so the chunks of a
        worker that died before reporting them go too."""
        if self.arena is not None:
            self.arena.destroy(["p", *map(str, range(self.size))])
            self.arena = None

    def stop(self) -> None:
        """Stop the workers, unlink the arena, close the queues."""
        if self.parked:
            self._let_go()
        for _ in self.procs:
            try:
                self.inq.put(("stop",))
            except Exception:  # pragma: no cover - queue torn down
                break
        # a worker still computing holds a lost speculation race (or a
        # stale result) nobody will read -- give it a short grace
        # period, then terminate it rather than wait out the very
        # straggler speculation already beat
        for proc in self.procs:
            proc.join(timeout=0.25)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self.unlink()
        self.procs = []
        for chan in (self.inq, self.outq):
            chan.cancel_join_thread()
            chan.close()


class ProcessPoolBackend(DriverBackend):
    """Run independent M-tasks concurrently on forked worker processes.

    The shared-memory/queue :class:`~repro.runtime.backends.driver.Transport`:
    dispatch, gathering, speculation and commit order are the
    :class:`~repro.runtime.backends.driver.DriverBackend`'s.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` (at least 2).  More
        workers than cores is fine -- sleeping task bodies still
        overlap, which is how the backend tests check dispatch
        concurrency on small machines.
    poll_interval:
        Parent-side result-queue poll period in seconds; also bounds
        how quickly speculation thresholds are noticed.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None, poll_interval: float = 0.02):
        super().__init__()
        self.workers = workers
        self.poll_interval = poll_interval
        self._ledger = ArrayLedger()
        self._traffic = Traffic()

    # ------------------------------------------------------------------
    def fork_args(self, run: RunContext) -> Tuple:
        """Worker count, fault plan and retry policy: what a worker inherits."""
        n = self.workers if self.workers is not None else max(2, os.cpu_count() or 1)
        return (n, run.faults, run.retry)

    def fork(self, run: RunContext, bodies: Dict[int, Body]) -> _PoolCrew:
        """Fork the workers (inheriting ``bodies`` and the fault plan)."""
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessPoolBackend requires the 'fork' start method (task "
                "bodies are closures and cannot be pickled); it is not "
                "available on this platform -- use the serial backend"
            )
        mp_ctx = multiprocessing.get_context("fork")
        # the resource tracker must exist *before* the fork: started
        # lazily afterwards, every worker would spawn a private tracker
        # and register/unregister pairs would land on different ones
        resource_tracker.ensure_running()
        crew = _PoolCrew(self.fork_args(run)[0], mp_ctx.Queue(), mp_ctx.Queue())
        crew.resume = mp_ctx.Semaphore(0)
        try:
            for wid in range(crew.size):
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(wid, os.getpid(), crew.inq, crew.outq, crew.resume,
                          bodies, run.faults, run.retry),
                    daemon=True,
                )
                proc.start()
                crew.procs.append(proc)
        except BaseException:
            crew.stop()
            raise
        return crew

    def reset(self, run: RunContext) -> None:
        """Create the run's arena, its first chunk sized from the graph."""
        self._crew.arena = Arena(Arena.new_prefix(), "p", declared_bytes(run.graph))
        self._traffic = Traffic()

    def end(self) -> None:
        """Unlink the run's arena, thaw the ledger's arrays."""
        self._ledger.clear()
        if self._crew is not None:
            self._crew.unlink()

    # ------------------------------------------------------------------
    def submit(self, jobs: List[Job]) -> None:
        """Write the inputs the arena lacks and enqueue each job."""
        for job in jobs:
            self._enqueue(job)
        self._traffic.publish(self._publish)

    def submit_backup(self, backup: Job, owner: Job) -> None:
        """Enqueue a backup; its inputs are the owner's, already shipped.

        Workers pull from one shared queue, so whichever is free takes
        it -- never the one still busy with the straggling primary.
        """
        self.submit([backup])

    def _enqueue(self, job: Job) -> None:
        req, crew = job.request, self._crew
        payload: Dict[str, Descriptor] = {}
        for key, arr in req.values.items():
            desc = self._ledger.get(arr)
            if desc is None:
                desc = crew.arena.put(arr)
                self._ledger.add(arr, desc)
                self._traffic.to_workers += arr.nbytes
            else:
                self._traffic.reused += 1
            payload[key] = desc
        crew.inq.put(
            ("task", job.jid, job.body, req.q, dict(req.ctx.env), payload,
             job.backup_of is not None, (crew.arena.prefix, crew.arena.chunk_bytes))
        )

    def poll(self, timeout: float):
        """Next worker result, its outputs copied out of the arena.

        The copy is the ``store`` entry from here on; the ledger maps it
        to the descriptor the worker wrote, so no consumer's submit
        writes those bytes again.
        """
        try:
            _, jid, wid, payload = self._crew.outq.get(timeout=timeout)
        except queue.Empty:
            return None
        if payload["outputs"] is not None:
            outputs = {}
            for name, desc in payload["outputs"].items():
                outputs[name] = arr = np.array(self._crew.arena.view(desc))
                self._ledger.add(arr, desc)
                self._traffic.to_parent += arr.nbytes
            payload["outputs"] = outputs
            self._traffic.publish(self._publish)
        return jid, wid, payload

    def idle(self, waiting: List[Job]) -> None:
        """Abort the run if a worker process died.

        Pool workers pull from one shared queue, so the parent cannot
        attribute a specific job to the dead worker -- it names every
        task still in flight (the candidates) alongside the dead
        worker's id, pid and exit code, and emits the structured
        ``worker_crash`` record the cluster backend shares.
        """
        dead = [
            (wid, proc) for wid, proc in enumerate(self._crew.procs)
            if not proc.is_alive()
        ]
        if not dead:
            return
        in_flight = []
        for owner in waiting:
            in_flight.append({"task": owner.request.task.name, "attempt": 0})
            if owner.backup_jid is not None:
                in_flight.append(
                    {"task": owner.request.task.name, "attempt": 0,
                     "backup": True}
                )
        for wid, proc in dead:
            emit_worker_crash(
                self._run.obs,
                self.name,
                wid,
                proc.pid,
                f"process exited with code {proc.exitcode}",
                in_flight,
            )
        dead_desc = ", ".join(
            f"worker {wid} (pid {proc.pid}, exit code {proc.exitcode})"
            for wid, proc in dead
        )
        tasks_desc = ", ".join(
            f"{row['task']!r}" + (" [backup]" if row.get("backup") else "")
            for row in in_flight
        ) or "none"
        raise RuntimeError(
            f"pool {dead_desc} died while tasks were in flight; "
            f"at-risk task(s): {tasks_desc}"
        )
