"""Execution backends for the functional runtime.

The executor (:func:`repro.runtime.run_program`) owns run *semantics*;
an :class:`ExecutionBackend` owns the *mechanics* of running ready task
bodies.  Three implementations ship: the historical, bit-identical
:class:`SerialBackend`, the genuinely parallel shared-memory
:class:`ProcessPoolBackend`, and the elastic socket-worker
:class:`ClusterBackend`.  See :mod:`repro.runtime.backends.base` for
the batching invariant the split rests on.
"""

from .base import (
    ACCEPTED_BACKENDS,
    AttemptEvent,
    ExecutionBackend,
    RunContext,
    TaskOutcome,
    TaskRequest,
    emit_worker_crash,
    independent_batches,
    parse_backend_spec,
)
from .cluster import ClusterBackend
from .pool import ProcessPoolBackend
from .serial import SerialBackend

__all__ = [
    "ACCEPTED_BACKENDS",
    "AttemptEvent",
    "ExecutionBackend",
    "RunContext",
    "TaskOutcome",
    "TaskRequest",
    "SerialBackend",
    "ProcessPoolBackend",
    "ClusterBackend",
    "emit_worker_crash",
    "independent_batches",
    "parse_backend_spec",
]
