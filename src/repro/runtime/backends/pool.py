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
* **shared-memory transfer.**  Input and output numpy arrays cross the
  process boundary through ``multiprocessing.shared_memory`` segments
  instead of being pickled through the queues; only the segment
  descriptors (name, shape, dtype) travel as messages.  Each segment is
  registered with the (fork-shared) ``resource_tracker`` exactly once
  by its creator, attached everywhere else without re-registering (see
  :func:`_attach`), and unlinked exactly once by the parent -- so the
  tracker neither double-frees nor complains about unknown names.
* **deterministic faults.**  Workers inherit the run's
  :class:`~repro.faults.FaultPlan` and :class:`~repro.faults.RetryPolicy`
  at fork time; because both draw from per-``(task, attempt)`` seeded
  streams, injected failures, straggler factors and backoff jitter are
  identical no matter which worker runs which attempt -- the basis of
  the serial/pool equivalence guarantee.
* **backups on the shared queue.**  A speculative backup re-reads the
  primary's exported input segments and goes on the same queue, so
  whichever worker is free takes it -- never the one still busy with
  the straggler.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from .attempts import crash_result, run_job
from .base import RunContext, emit_worker_crash
from .driver import DriverBackend, Job

__all__ = ["ProcessPoolBackend"]


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------
def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without re-registering it.

    With the ``fork`` start method parent and workers share one
    resource-tracker process whose per-name bookkeeping is a *set*:
    the safe protocol is exactly one register (the creator's) and one
    unregister (the final ``unlink``) per segment.  Python 3.13 exposes
    ``track=False`` for this; on older versions the tracker's
    ``register`` is swapped for a no-op around the attach (both the
    worker loop and the parent's gather loop are single-threaded, so
    the swap cannot race).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on Python version
        register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


def _export_array(arr: np.ndarray) -> Tuple[shared_memory.SharedMemory, Tuple]:
    """Copy ``arr`` into a fresh shared-memory segment.

    Returns the open segment (caller closes/unlinks) and the picklable
    descriptor ``(name, shape, dtype)`` the other side attaches with.
    """
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    if arr.nbytes:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
    return shm, (shm.name, arr.shape, str(arr.dtype))


def _import_array(desc: Tuple, unlink: bool = False) -> np.ndarray:
    """Attach a segment descriptor, copy the array out, detach.

    The returned array owns its memory (bodies may keep references long
    after the segment is gone).  The attach never registers with the
    resource tracker -- the segment stays owned by its creator, unless
    ``unlink`` says this reader is its last.
    """
    name, shape, dtype = desc
    shm = _attach(name)
    try:
        if int(np.prod(shape)):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
            return np.array(view, copy=True)
        return np.empty(shape, dtype=np.dtype(dtype))
    finally:
        shm.close()
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass


def _claim_outputs(outputs: Optional[Dict[str, Tuple]]) -> Optional[Dict[str, np.ndarray]]:
    """Copy a result's output segments out and unlink them (parent side)."""
    if outputs is None:
        return None
    return {name: _import_array(desc, unlink=True) for name, desc in outputs.items()}


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(worker_id, parent_pid, inq, outq, registry, faults, retry) -> None:
    """Entry point of one pool worker (forked child).

    Loops on the shared job queue until a ``stop`` message arrives or
    the parent disappears (``getppid`` watchdog -- the journal's
    ``crash_after`` chaos hook kills the parent with ``os._exit``, which
    skips any orderly shutdown).  Worker processes are best-effort
    pinned to distinct cores.
    """
    try:
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[worker_id % len(cores)]})
    except (AttributeError, OSError, IndexError):  # pragma: no cover
        pass
    while True:
        try:
            msg = inq.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != parent_pid:
                break
            continue
        if msg[0] == "stop":
            break
        _, job_id, name, q, env, payload, backup = msg
        try:
            values = {k: _import_array(desc) for k, desc in payload.items()}
            result = run_job(registry[name], q, env, values, faults, retry, backup)
            outputs = None
            if result["produced"] is not None:
                outputs = {}
                for out_name, arr in result["produced"].items():
                    out = np.atleast_1d(np.asarray(arr, dtype=float))
                    shm, outputs[out_name] = _export_array(out)
                    shm.close()
        except BaseException:  # noqa: BLE001 - never kill the worker loop
            result, outputs = crash_result(), None
        del result["produced"]  # arrays travel as segment descriptors
        result["outputs"] = outputs
        outq.put(("result", job_id, worker_id, result))


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
        for wid in range(n):
            proc = mp_ctx.Process(
                target=_worker_main,
                args=(wid, os.getpid(), self._inq, self._outq, registry, run.faults, run.retry),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        return n

    # ------------------------------------------------------------------
    def submit(self, jobs: List[Job]) -> None:
        """Export each job's inputs to shared memory and enqueue it."""
        for job in jobs:
            segments, payload = [], {}
            for key, arr in job.request.values.items():
                shm, payload[key] = _export_array(arr)
                segments.append(shm)
            job.carrier = (segments, payload)
            self._enqueue(job, payload, backup=False)

    def submit_backup(self, backup: Job, owner: Job) -> None:
        """Enqueue a backup reading the owner's exported inputs.

        Workers pull from one shared queue, so whichever is free takes
        it -- never the one still busy with the straggling primary.
        """
        self._enqueue(backup, owner.carrier[1], backup=True)

    def _enqueue(self, job: Job, payload: Dict[str, Tuple], backup: bool) -> None:
        req = job.request
        self._inq.put(
            ("task", job.jid, req.task.name, req.q, dict(req.ctx.env), payload, backup)
        )

    def poll(self, timeout: float):
        """Next worker result, its output segments claimed and unlinked."""
        try:
            _, jid, wid, payload = self._outq.get(timeout=timeout)
        except queue.Empty:
            return None
        payload["outputs"] = _claim_outputs(payload["outputs"])
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

    def release(self, job: Job) -> None:
        """Unlink the job's exported input segments."""
        segments, _ = job.carrier or ((), None)
        for shm in segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        job.carrier = None

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the workers and unlink the outputs nobody collected."""
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
        self._procs = []
        if self._outq is not None:
            while True:
                try:
                    msg = self._outq.get_nowait()
                except Exception:
                    break
                _claim_outputs(msg[3]["outputs"])
        for chan in (self._inq, self._outq):
            if chan is not None:
                chan.cancel_join_thread()
                chan.close()
        self._inq = None
        self._outq = None
