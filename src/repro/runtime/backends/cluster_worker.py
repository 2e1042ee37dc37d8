"""Cluster worker: connects to a coordinator socket and executes tasks.

A worker is one OS process serving one coordinator connection -- for
one run, or for every run of a kept crew.  Its life cycle:

1. connect to ``host:port`` and send a ``hello`` frame (worker id, pid);
2. start a **heartbeat thread** that sends a ``heartbeat`` frame every
   ``heartbeat_interval`` seconds (sharing the socket under a lock) and
   doubles as the orphan watchdog -- if the parent process disappears
   the worker exits instead of lingering;
3. loop on the socket: each ``task`` frame is executed by the attempt
   engine every backend shares
   (:func:`repro.runtime.backends.attempts.run_job` -- per
   ``(task, attempt)`` seeded fault/retry draws, so *which* worker runs
   an attempt never changes its outcome), and the result (output arrays
   chunked by the wire layer) is sent back as a ``result`` frame
   echoing the job id and dispatch attempt;
4. a ``reset`` frame ends a run: the worker stays for the next one and
   its heartbeat thread goes quiet (it keeps watching the parent) until
   the next frame -- the ``run`` frame that starts a run -- so an idle
   crew fills no socket nobody reads; a ``stop`` frame -- or the
   connection closing -- ends the loop.

**The array table.**  For the rest of a run a worker keeps every array
it has received or produced, keyed by the token the coordinator knows
it under: a ``task`` frame names each input by token (``values``) and
carries bytes only for the tokens this worker lacks (``new``); the
task's outputs enter the table as ``(job id, output name)``.  The
coordinator mirrors what it has sent and heard back, so a token it
sends alone is always resolvable.  The table is a cache and nothing
else -- the parent receives and owns every output -- so it is simply
dropped at the ``reset`` that ends the run (the next run numbers its
tokens from 0 again) and when the connection ends.

Workers are normally **forked** by :class:`~repro.runtime.backends.cluster.ClusterBackend`
so they inherit the registered task bodies (closures, which cannot be
pickled) plus the run's fault plan and retry policy, and look each
job's body up by the token it was registered under (``by="body"``).
For programs whose bodies *are* importable, ``python -m repro.runtime.backends.cluster_worker
HOST:PORT --program pkg.mod:factory`` joins an already-running
coordinator from a fresh interpreter -- the elastic-membership path: the
coordinator admits any worker that completes the hello handshake, at
any point of the run; such a worker looks bodies up by task name.

``delay`` turns the worker into a *deliberate straggler* (it sleeps
that long before every task body) -- the chaos harness uses it to prove
speculation wins against a slow remote worker.
"""

from __future__ import annotations

import argparse
import importlib
import os
import socket
import threading
import time
from typing import Any, Dict, Optional

import numpy as np

from .attempts import crash_result, run_job
from .wire import recv_message, send_message

__all__ = ["serve", "main"]


def serve(
    host: str,
    port: int,
    worker_id: int,
    registry: Dict[str, Any],
    faults: Optional[Any] = None,
    retry: Optional[Any] = None,
    parent_pid: Optional[int] = None,
    heartbeat_interval: float = 0.05,
    delay: float = 0.0,
    by: str = "name",
) -> None:
    """Serve one coordinator connection until ``stop`` or disconnect.

    ``registry`` maps the ``by`` field of a ``task`` frame -- the task
    ``"name"``, or the ``"body"`` token a forked worker inherited its
    bodies under -- to what runs: an object with the ``name`` and
    ``func`` of a :class:`~repro.core.task.MTask`.  ``faults``/``retry``
    drive the same deterministic attempt loop as the serial and pool
    backends.  ``parent_pid`` arms the orphan watchdog.
    """
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    stop = threading.Event()
    quiet = threading.Event()  # between runs: no heartbeats
    send_message(
        sock,
        {"type": "hello", "worker": worker_id, "pid": os.getpid()},
        lock=send_lock,
    )

    def heartbeat() -> None:
        while not stop.wait(heartbeat_interval):
            if parent_pid is not None and os.getppid() != parent_pid:
                os._exit(0)  # orphaned: the coordinator process is gone
            if quiet.is_set():
                continue
            try:
                send_message(
                    sock, {"type": "heartbeat", "worker": worker_id}, lock=send_lock
                )
            except OSError:
                return

    hb = threading.Thread(target=heartbeat, daemon=True)
    hb.start()
    table: Dict[Any, np.ndarray] = {}
    try:
        while True:
            try:
                msg = recv_message(sock)
            except (EOFError, OSError):
                break
            if msg["type"] == "stop":
                break
            if msg["type"] == "reset":
                table.clear()
                quiet.set()
                continue
            quiet.clear()
            if msg["type"] != "task":
                continue
            if delay > 0.0:
                time.sleep(delay)
            payload = _run_task(table, registry[msg[by]], msg, faults, retry)
            try:
                send_message(
                    sock,
                    {
                        "type": "result",
                        "job": msg["job"],
                        "attempt": msg["attempt"],
                        "worker": worker_id,
                        "payload": payload,
                    },
                    lock=send_lock,
                )
            except OSError:
                break
    finally:
        stop.set()
        table.clear()
        try:
            sock.close()
        except OSError:  # pragma: no cover - racing teardown
            pass


def _run_task(table: Dict[Any, np.ndarray], task, msg, faults, retry) -> Dict[str, Any]:
    """Resolve one ``task`` frame against ``table`` and run it.

    The frame's ``new`` arrays enter the table first, then every input
    is looked up by token; the outputs (normalised to the float arrays
    the executor stores) enter it as ``(job id, name)``.  Table arrays
    are shared by every task that reads them, so they are read-only.
    """
    for token, arr in msg["new"].items():
        arr.flags.writeable = False
        table[token] = arr
    try:
        values = {key: table[token] for key, token in msg["values"].items()}
        payload = run_job(
            task, msg["q"], msg["env"], values, faults, retry, bool(msg.get("backup"))
        )
        outputs = None
        if payload["produced"] is not None:
            outputs = {}
            for name, arr in payload["produced"].items():
                outputs[name] = arr = np.atleast_1d(np.asarray(arr, dtype=float))
                arr.flags.writeable = False
                table[(msg["job"], name)] = arr
    except Exception:  # noqa: BLE001 - reported at commit, worker lives on
        payload, outputs = crash_result(), None
    del payload["produced"]
    payload["outputs"] = outputs
    return payload


def _load_registry(spec: str) -> Dict[str, Any]:
    """Resolve ``module:callable`` to a task registry.

    The callable takes no arguments and returns either a
    :class:`~repro.core.graph.TaskGraph` or a ``{name: task}`` mapping.
    """
    mod_name, _, attr = spec.partition(":")
    if not mod_name or not attr:
        raise ValueError(f"--program must be 'module:callable', got {spec!r}")
    factory = getattr(importlib.import_module(mod_name), attr)
    program = factory()
    if isinstance(program, dict):
        return program
    return {t.name: t for t in program.topological_order()}


def main(argv=None) -> int:
    """``python -m repro.runtime.backends.cluster_worker HOST:PORT ...``"""
    ap = argparse.ArgumentParser(
        prog="python -m repro.runtime.backends.cluster_worker",
        description="join a running cluster coordinator as one worker",
    )
    ap.add_argument("address", metavar="HOST:PORT", help="coordinator address")
    ap.add_argument(
        "--worker-id",
        type=int,
        default=os.getpid(),
        help="membership id announced in the hello frame (default: pid)",
    )
    ap.add_argument(
        "--program",
        required=True,
        metavar="MODULE:CALLABLE",
        help="no-arg factory returning the TaskGraph (or name->task dict) "
        "whose bodies this worker executes",
    )
    ap.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="seconds between heartbeat frames (default 0.05)",
    )
    ap.add_argument(
        "--delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="straggler injection: sleep this long before every task",
    )
    args = ap.parse_args(argv)
    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        ap.error(f"address must be HOST:PORT, got {args.address!r}")
    serve(
        host,
        int(port),
        args.worker_id,
        _load_registry(args.program),
        heartbeat_interval=args.heartbeat_interval,
        delay=args.delay,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
