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
  workers inherit the task registry -- and with it every body -- from
  the parent's address space.  On platforms without ``fork`` (Windows,
  and macOS defaults since Python 3.8) :meth:`ProcessPoolBackend.open`
  raises with a one-line explanation.
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
  and unlinked by the parent in :meth:`ProcessPoolBackend.stop`, on
  every exit path.
* **deterministic faults.**  Workers inherit the run's
  :class:`~repro.faults.FaultPlan` and :class:`~repro.faults.RetryPolicy`
  at fork time; because both draw from per-``(task, attempt)`` seeded
  streams, injected failures, straggler factors and backoff jitter are
  identical no matter which worker runs which attempt -- the basis of
  the serial/pool equivalence guarantee.
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
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional

import numpy as np

from .arrays import Arena, ArrayLedger, Descriptor, Traffic, declared_bytes
from .attempts import crash_result, run_job
from .base import RunContext, emit_worker_crash, pin_worker
from .driver import DriverBackend, Job

__all__ = ["ProcessPoolBackend"]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _execute(arena: Arena, registry, faults, retry, msg) -> Dict[str, Any]:
    """Run one ``task`` message against ``arena``; returns the result.

    Inputs are read-only views of the arena (bodies are pure, and the
    next reader of the same bytes may be another task on this worker);
    outputs are written into this worker's chunks and travel as
    descriptors in ``result["outputs"]``.
    """
    _, _job_id, name, q, env, payload, backup = msg
    try:
        values = {key: arena.view(desc) for key, desc in payload.items()}
        result = run_job(registry[name], q, env, values, faults, retry, backup)
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


def _worker_main(worker_id, parent_pid, inq, outq, arena, registry, faults, retry) -> None:
    """Entry point of one pool worker (forked child).

    Loops on the shared job queue until a ``stop`` message arrives or
    the parent disappears (``getppid`` watchdog -- the journal's
    ``crash_after`` chaos hook kills the parent with ``os._exit``, which
    skips any orderly shutdown).  Worker processes are best-effort
    pinned to distinct cores.
    """
    pin_worker(worker_id)
    arena.grow()  # now, off the first result's critical path
    while True:
        try:
            msg = inq.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != parent_pid:
                break
            continue
        if msg[0] == "stop":
            break
        result = _execute(arena, registry, faults, retry, msg)
        outq.put(("result", msg[1], worker_id, result))
    arena.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessPoolBackend(DriverBackend):
    """Run independent M-tasks concurrently on forked worker processes.

    The shared-memory/queue :class:`~repro.runtime.backends.driver.Transport`:
    dispatch, gathering, speculation and commit order are the
    :class:`~repro.runtime.backends.driver.DriverBackend`'s.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` (at least 2).  More
        workers than cores is fine -- and is exactly how the runtime
        benchmark demonstrates dispatch concurrency on small machines.
    poll_interval:
        Parent-side result-queue poll period in seconds; also bounds
        how quickly speculation thresholds are noticed.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None, poll_interval: float = 0.02):
        super().__init__()
        self.workers = workers
        self.poll_interval = poll_interval
        self._procs: List[Any] = []
        self._inq: Optional[Any] = None
        self._outq: Optional[Any] = None
        self._arena: Optional[Arena] = None
        self._ledger = ArrayLedger()
        self._traffic = Traffic()

    # ------------------------------------------------------------------
    def start(self, run: RunContext) -> int:
        """Fork the workers (inheriting task bodies and fault plans)."""
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
        self._inq = mp_ctx.Queue()
        self._outq = mp_ctx.Queue()
        registry = {t.name: t for t in run.graph.topological_order()}
        n = self.workers if self.workers is not None else max(2, os.cpu_count() or 1)
        prefix, chunk_bytes = Arena.new_prefix(), declared_bytes(run.graph)
        self._arena = Arena(prefix, "p", chunk_bytes)
        self._traffic = Traffic()
        for wid in range(n):
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(wid, os.getpid(), self._inq, self._outq,
                      Arena(prefix, str(wid), chunk_bytes), registry,
                      run.faults, run.retry),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        return n

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
        req = job.request
        payload: Dict[str, Descriptor] = {}
        for key, arr in req.values.items():
            desc = self._ledger.get(arr)
            if desc is None:
                desc = self._arena.put(arr)
                self._ledger.add(arr, desc)
                self._traffic.to_workers += arr.nbytes
            else:
                self._traffic.reused += 1
            payload[key] = desc
        self._inq.put(
            ("task", job.jid, req.task.name, req.q, dict(req.ctx.env), payload,
             job.backup_of is not None)
        )

    def poll(self, timeout: float):
        """Next worker result, its outputs copied out of the arena.

        The copy is the ``store`` entry from here on; the ledger maps it
        to the descriptor the worker wrote, so no consumer's submit
        writes those bytes again.
        """
        try:
            _, jid, wid, payload = self._outq.get(timeout=timeout)
        except queue.Empty:
            return None
        if payload["outputs"] is not None:
            outputs = {}
            for name, desc in payload["outputs"].items():
                outputs[name] = arr = np.array(self._arena.view(desc))
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
            (wid, proc) for wid, proc in enumerate(self._procs)
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

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the workers, unlink the arena, thaw the ledger's arrays."""
        if self._inq is not None:
            for _ in self._procs:
                try:
                    self._inq.put(("stop",))
                except Exception:  # pragma: no cover - queue torn down
                    break
        # every batch has committed by now, so a worker still computing
        # holds a lost speculation race (or a stale result) nobody will
        # read -- give it a short grace period, then terminate it rather
        # than wait out the very straggler speculation already beat
        for proc in self._procs:
            proc.join(timeout=0.25)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._arena is not None:
            # by name, so the chunks of a worker that died (or was just
            # terminated) before reporting them go too
            self._arena.destroy(["p", *map(str, range(len(self._procs)))])
            self._arena = None
        self._ledger.clear()
        self._procs = []
        for chan in (self._inq, self._outq):
            if chan is not None:
                chan.cancel_join_thread()
                chan.close()
        self._inq = None
        self._outq = None
