"""The attempt engine: one task body under a fault plan and retry policy.

Every backend -- serial, pool worker, cluster worker -- executes a task
through the same two functions, so retries, timeouts, deadlines and
backoff are decided in exactly one place:

* :func:`run_attempts` runs the *primary*: up to
  ``retry.max_attempts`` attempts, each checked against the injected
  failure draw, the per-attempt ``timeout`` (on the straggler-scaled
  duration) and the overall ``deadline_seconds`` budget;
* :func:`run_backup` runs a *speculative backup*: one attempt, no fault
  draws, and a failure is only a lost race.

Both are pure functions of their arguments: they touch no
instrumentation and no run statistics.  What happened is returned as
plain data -- the produced arrays, the give-up cause of a task that
spent its attempts, the journal ``info`` and one *event dict* per
attempt (``attempt``, ``start``, ``duration``, ``kind``, ``error``,
``backoff``; the keys of
:class:`~repro.runtime.backends.base.AttemptEvent`) -- and
:func:`~repro.runtime.run_program` turns the events into spans,
counters and the record of a recovered task when the task commits, or
raises for a task that gave up.  Because the
fault/retry draws are seeded per ``(task, attempt)``, the result does
not depend on which process ran the attempt: the basis of the
serial/pool/cluster bit-identity guarantee.

:func:`run_job` is the worker-side entry point shared by the pool and
cluster workers: it picks primary or backup and turns anything the body
raised past the retry boundary into a ``crash`` result instead of
killing the worker.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from ...faults.retry import InjectedFault, TaskTimeout
from ..context import RuntimeContext

__all__ = ["run_attempts", "run_backup", "backup_finish", "run_job", "crash_result"]


def run_attempts(
    task,
    q: int,
    env: Dict[str, Any],
    values: Dict[str, Any],
    faults,
    retry,
    clock: Callable[[], float] = time.monotonic,
) -> Dict[str, Any]:
    """Execute one task body under the fault plan and retry policy.

    Returns ``{"produced", "gave_up", "info", "events", "collectives"}``:
    ``produced`` is the body's output dict on success, ``gave_up`` the
    cause when the task gave up instead -- ``"attempts"`` (every attempt
    spent) or ``"deadline"`` (the budget spent) -- and ``""`` otherwise;
    ``info`` carries the journal accounting (attempts used, effective
    seconds, last error, total backoff).  Backoff delays are
    accounted in the events, never slept.
    A real error with neither a plan nor a policy in force propagates
    unchanged -- there is no retry boundary to stop it.
    """
    name = task.name
    ctx = RuntimeContext(name, q, env=env)
    attempts = retry.max_attempts if retry is not None else 1
    deadline = retry.deadline_seconds if retry is not None else None
    slowdown = faults.slowdown(name) if faults is not None else 1.0
    total_backoff = 0.0
    budget_used = 0.0  # effective attempt seconds + accounted backoff
    last_error = ""
    events: List[Dict[str, Any]] = []
    produced = None
    gave_up = ""
    seconds = 0.0
    for attempt in range(attempts):
        start = clock()
        error: Optional[Exception] = None
        try:
            if faults is not None and faults.fails(name, attempt):
                raise InjectedFault(
                    f"injected fault: task {name!r}, attempt {attempt}"
                )
            produced = task.func(ctx, values)
        except Exception as exc:  # noqa: BLE001 - retry boundary
            if retry is None and faults is None:
                raise
            error = exc
        duration = clock() - start
        if error is None and retry is not None and retry.timeout is not None:
            # the injected straggler factor scales the measured wall
            # clock, so timeout behaviour is testable deterministically
            effective = duration * slowdown
            if effective > retry.timeout:
                error = TaskTimeout(
                    f"task {name!r}, attempt {attempt}: effective duration "
                    f"{effective:.3g}s exceeds timeout {retry.timeout:g}s"
                )
        event = {"attempt": attempt, "start": start, "duration": duration}
        events.append(event)
        if error is None:
            event["kind"] = "ok"
            seconds = duration * slowdown
            if produced is None:
                produced = {}
            break
        produced = None  # a timed-out body's outputs are discarded
        last_error = str(error)
        budget_used += duration * slowdown
        backoff = 0.0
        if attempt + 1 == attempts:
            gave_up = "attempts"
        else:
            backoff = retry.delay(name, attempt)
            if deadline is not None and budget_used + backoff > deadline:
                # retrying would bust the overall budget: give up now
                gave_up, backoff = "deadline", 0.0
            else:
                total_backoff += backoff
                budget_used += backoff
        event.update(
            kind="timeout" if isinstance(error, TaskTimeout)
            else "injected" if isinstance(error, InjectedFault)
            else "error",
            error=last_error,
            backoff=backoff,
        )
        if gave_up:
            break
    return {
        "produced": produced,
        "gave_up": gave_up,
        "info": {
            "attempts": len(events),
            "seconds": seconds,
            "error": last_error,
            "backoff_seconds": total_backoff,
        },
        "events": events,
        "collectives": list(ctx.log),
    }


def backup_finish(faults, name: str, threshold: float, duration: float) -> float:
    """Effective finish time of a backup that took ``duration`` seconds.

    The scoring convention of every speculation race: the backup
    launches at ``threshold`` and runs under the fault plan's *second*
    straggler stream of the task (stream 1; the primary used stream 0).
    """
    slow = faults.slowdown(name, 1) if faults is not None else 1.0
    return threshold + duration * slow


def run_backup(
    task,
    q: int,
    env: Dict[str, Any],
    values: Dict[str, Any],
    clock: Callable[[], float] = time.monotonic,
) -> Dict[str, Any]:
    """Execute a speculative backup: one attempt, no fault injection.

    Backups never consume fault draws (their slowdown stream is applied
    when the race is scored, :func:`backup_finish`) and a failing backup
    is just a lost race, not a task failure: ``produced`` is ``None``
    and ``info["seconds"]`` is ``-1.0``.
    """
    ctx = RuntimeContext(task.name, q, env=env)
    start = clock()
    error = ""
    try:
        produced = task.func(ctx, values)
        if produced is None:
            produced = {}
        if not isinstance(produced, dict):
            raise TypeError("backup body returned a non-dict")
    except Exception as exc:  # noqa: BLE001 - lost race
        produced, error = None, str(exc)
    duration = clock() - start
    lost = produced is None
    return {
        "produced": produced,
        "info": {
            "attempts": 1,
            "seconds": -1.0 if lost else duration,
            "error": error,
            "backoff_seconds": 0.0,
        },
        "events": [
            {
                "attempt": 0,
                "start": start,
                "duration": duration,
                "kind": "error" if lost else "ok",
                "error": error,
            }
        ],
        "collectives": list(ctx.log),
    }


def crash_result() -> Dict[str, Any]:
    """The result of a job whose worker-side handling raised.

    Call from an ``except`` block: the formatted traceback travels in
    ``info["crash"]`` and the executor raises it as a ``RuntimeError``
    naming the backend when the task commits.
    """
    return {
        "produced": None,
        "gave_up": "",
        "info": {"crash": traceback.format_exc()},
        "events": [],
    }


def run_job(task, q, env, values, faults, retry, backup: bool) -> Dict[str, Any]:
    """Worker-side entry: run the primary or the backup, never raise.

    Workers must ship outputs as arrays, so a body returning something
    other than a dict is a crash here (the serial backend leaves that
    check to the executor's commit).
    """
    try:
        if backup:
            return run_backup(task, q, env, values)
        result = run_attempts(task, q, env, values, faults, retry)
        produced = result["produced"]
        if produced is not None and not isinstance(produced, dict):
            raise TypeError(
                f"task {task.name!r} body must return a dict of outputs, "
                f"got {type(produced).__name__}"
            )
        return result
    except Exception:  # noqa: BLE001 - reported at commit, worker lives on
        return crash_result()
