"""The execution-backend interface of the functional runtime.

:func:`~repro.runtime.run_program` owns the *semantics* of a run --
dependency order, data re-distribution accounting, failure handling,
journaling, supervision -- and delegates the *mechanics* of running
ready task bodies to an :class:`ExecutionBackend`.  The mechanics come
in three layers, each written once:

* the **attempt engine** (:mod:`~repro.runtime.backends.attempts`):
  one task body under the fault plan and retry policy, a pure function
  returning the produced arrays plus one event per attempt.  Every
  backend runs it -- in-process or inside a worker;
* the **batch driver** (:mod:`~repro.runtime.backends.driver`):
  prepare in order, submit, gather, age-based speculation, outcome
  assembly, commit in order and the ``backend_*`` gauges, for every
  backend whose bodies run in worker processes;
* a **transport** behind the driver, the only thing those backends
  differ in: :class:`~repro.runtime.backends.pool.ProcessPoolBackend`
  moves arrays through ``multiprocessing.shared_memory`` to a
  persistent ``fork``-start worker pool,
  :class:`~repro.runtime.backends.cluster.ClusterBackend` frames them
  over sockets to an elastic, failure-detected membership.

:class:`~repro.runtime.backends.serial.SerialBackend` calls the engine
directly, one task at a time with accounted (not concurrent) timing.

The executor hands the backend *batches*: maximal contiguous runs of the
graph's topological order in which no task depends on another
(:func:`independent_batches`).  Because batches are contiguous segments
of the topological order, committing results in batch order reproduces
exactly the serial commit order -- journals, failure records, variable
stores and the error of the first task that gives up (the one the
executor raises) stay bit-identical across backends.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "RunContext",
    "TaskRequest",
    "AttemptEvent",
    "TaskOutcome",
    "ExecutionBackend",
    "independent_batches",
    "parse_backend_spec",
    "emit_worker_crash",
    "pin_worker",
]


def emit_worker_crash(
    obs, backend: str, worker: Optional[int], pid: Optional[int], reason: str,
    in_flight: List[Dict[str, Any]],
) -> None:
    """Emit the structured ``worker_crash`` record the worker backends share.

    ``in_flight`` rows are ``{"task": name, "attempt": attempt}`` -- the
    work that was at risk when the worker died.  The pool backend emits
    it before aborting the run; the cluster backend emits it and carries
    on with the surviving members.
    """
    obs.record(
        "worker_crash",
        backend=backend,
        worker=worker,
        pid=pid,
        reason=reason,
        in_flight=in_flight,
    )


def pin_worker(worker_id: int) -> None:
    """Best-effort pin the calling worker process to one core.

    Worker ``i`` takes the ``i``-th core (modulo) of the affinity set
    it was forked with; platforms without ``sched_setaffinity`` skip it.
    """
    try:
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[worker_id % len(cores)]})
    except (AttributeError, OSError, IndexError):  # pragma: no cover
        pass


@dataclass
class RunContext:
    """Everything a backend needs to know about the current run.

    Built once per :func:`~repro.runtime.run_program` call and passed to
    :meth:`ExecutionBackend.open`.  ``history`` is the live list of
    completed effective durations (the speculation quantile history) --
    the executor appends to it at commit time, the backends read it
    when deciding whether a task is straggling.
    """

    graph: Any
    obs: Any
    stats: Any = None
    faults: Optional[Any] = None
    retry: Optional[Any] = None
    speculation: Optional[Any] = None
    history: Optional[List[float]] = None


@dataclass
class TaskRequest:
    """One ready task the executor wants executed.

    ``values`` maps each read parameter instance to its (already
    re-distribution-accounted) global array; ``redist_bytes`` is the
    re-distribution volume charged while collecting them (journaled with
    the completion record).
    """

    task: Any
    ctx: Any
    values: Dict[str, Any]
    q: int
    redist_bytes: int = 0


@dataclass
class AttemptEvent:
    """Wall-clock record of one attempt the attempt engine executed.

    ``start`` is in the run's instrumentation clock frame (the batch
    driver converts worker-side monotonic stamps before reporting), so
    the events can be emitted as real spans.  ``kind`` is ``"ok"``,
    ``"injected"``, ``"timeout"`` or ``"error"``; ``backoff`` the delay
    accounted before the next attempt (0.0 for the last one);
    ``worker`` the worker process that ran it (``None`` in-process),
    which puts the span on that worker's Perfetto track.
    """

    attempt: int
    start: float
    duration: float
    kind: str = "ok"
    error: str = ""
    backoff: float = 0.0
    worker: Optional[int] = None


@dataclass
class TaskOutcome:
    """What executing one :class:`TaskRequest` produced.

    Exactly one of ``produced`` / ``failure`` is non-``None`` (both are
    ``None`` for a worker-side crash, reported in ``info["crash"]``).
    ``info`` carries the journal accounting (attempts, effective
    seconds, last error, total backoff); ``events`` the per-attempt
    wall-clock records, ``collectives`` the body's collective log and
    ``speculation`` an optional ``(SpeculationRecord, backup event or
    None)`` pair.  The executor turns all of it into spans, counters,
    histograms and failure records when the task commits -- no backend
    touches the instrumentation's counters or the run statistics.
    """

    produced: Optional[Dict[str, Any]] = None
    failure: Optional[Any] = None
    info: Dict[str, Any] = field(default_factory=dict)
    events: List[AttemptEvent] = field(default_factory=list)
    collectives: List[Any] = field(default_factory=list)
    speculation: Optional[Any] = None
    worker: Optional[int] = None


class ExecutionBackend:
    """How ready task bodies actually run.

    Lifecycle: ``open(run_context)`` once per run, then one
    :meth:`run_batch` call per independent batch, then ``close()`` (in a
    ``finally``; backends must tolerate ``close()`` after errors and
    double ``close()``).
    """

    #: short name used by CLIs and run metadata
    name: str = "backend"

    def open(self, run: RunContext) -> None:
        """Prepare for a run (fork workers, allocate queues, ...)."""

    def run_batch(
        self,
        tasks: List[Any],
        prepare: Callable[[Any], Optional[TaskRequest]],
        commit: Callable[[TaskRequest, TaskOutcome], None],
    ) -> None:
        """Execute one batch of mutually independent tasks.

        ``prepare(task)`` performs the executor's pre-execution phase
        (resume restore, input collection) and returns the
        :class:`TaskRequest` to run -- or ``None`` when the task needs
        no execution.  ``commit(request, outcome)`` applies the result.
        Backends MUST call ``prepare`` in the given task order and
        ``commit`` in the same order (the serial commit order); only the
        execution in between may overlap.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; must be idempotent."""

    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def independent_batches(graph) -> List[List[Any]]:
    """Split the topological order into maximal independent segments.

    Returns consecutive slices of ``graph.topological_order()`` such
    that no task in a slice depends on another task of the same slice.
    Because every batch is a *contiguous* run of the topological order,
    a transitive dependency into the current batch always surfaces as a
    direct predecessor inside it, so checking direct predecessors is
    sufficient.  Concatenating the batches reproduces the topological
    order exactly -- the property the cross-backend bit-identity of
    journals and failure records rests on.
    """
    preds = graph.predecessor_index()
    batches: List[List[Any]] = []
    current: List[Any] = []
    names: set = set()
    for task in graph.topological_order():
        if any(p.name in names for p in preds[task]):
            batches.append(current)
            current, names = [], set()
        current.append(task)
        names.add(task.name)
    if current:
        batches.append(current)
    return batches


#: Every backend name ``parse_backend_spec`` accepts, in documentation
#: order.  The error message below is built from this tuple, and the
#: drift test in ``tests/test_docs_flags.py`` asserts each name appears
#: in it -- adding a backend here without teaching the parser about it
#: (or vice versa) fails fast.
ACCEPTED_BACKENDS = ("serial", "pool", "cluster")

#: The worker-taking subset of :data:`ACCEPTED_BACKENDS` (``NAME:N``).
_SIZED_BACKENDS = tuple(b for b in ACCEPTED_BACKENDS if b != "serial")


def _spec_grammar() -> str:
    """Human-readable list of accepted specs, e.g. ``'pool[:WORKERS]'``."""
    forms = [
        f"'{name}[:WORKERS]'" if name in _SIZED_BACKENDS else f"'{name}'"
        for name in ACCEPTED_BACKENDS
    ]
    return ", ".join(forms[:-1]) + " or " + forms[-1]


def parse_backend_spec(spec: str):
    """Parse the ``serial`` / ``pool[:N]`` / ``cluster[:N]`` backend spec.

    ``serial`` returns a
    :class:`~repro.runtime.backends.serial.SerialBackend`; ``pool``
    a :class:`~repro.runtime.backends.pool.ProcessPoolBackend` with the
    default worker count, ``pool:4`` one with four workers; ``cluster``
    and ``cluster:N`` the socket-based
    :class:`~repro.runtime.backends.cluster.ClusterBackend`.  Raises a
    one-line :class:`ValueError` naming every accepted spec
    (:data:`ACCEPTED_BACKENDS`) on anything else.
    """
    from .cluster import ClusterBackend
    from .pool import ProcessPoolBackend
    from .serial import SerialBackend

    parts = spec.split(":")
    if parts[0] == "serial" and len(parts) == 1:
        return SerialBackend()
    if parts[0] in _SIZED_BACKENDS and len(parts) in (1, 2):
        workers = None
        if len(parts) == 2:
            try:
                workers = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"backend spec {spec!r}: worker count must be an "
                    f"integer, got {parts[1]!r}"
                ) from None
            if workers < 1:
                raise ValueError(
                    f"backend spec {spec!r}: worker count must be >= 1"
                )
        if parts[0] == "cluster":
            return ClusterBackend(workers=workers)
        return ProcessPoolBackend(workers=workers)
    raise ValueError(f"backend spec {spec!r} must be {_spec_grammar()}")
