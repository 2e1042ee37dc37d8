"""Functional (data-carrying) execution of M-task programs."""

from .backends import (
    ClusterBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    independent_batches,
    parse_backend_spec,
)
from .context import CollectiveRecord, RuntimeContext
from .executor import RunResult, RunStats, run_program

__all__ = [
    "RuntimeContext",
    "CollectiveRecord",
    "run_program",
    "RunResult",
    "RunStats",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ClusterBackend",
    "independent_batches",
    "parse_backend_spec",
]
