"""Execution context handed to M-task bodies by the functional runtime.

A basic task's ``func`` runs once per activation (the runtime emulates
the SPMD group as a whole).  The context tells the body how many ranks
execute it and records the collective operations the body *would* issue
on a real machine.  The runtime sums the log per operation into
``RunStats.collective_counts()``; the tests check those sums against the
per-step counts of the functional EPOL program and check that injected
faults leave them unchanged.  No test compares the log with the task's
declared :class:`~repro.core.task.CollectiveSpec` profile, which is what
the schedulers and the simulator price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["CollectiveRecord", "RuntimeContext"]


@dataclass(frozen=True)
class CollectiveRecord:
    """One collective operation logged by a task body."""

    op: str
    total_elements: float
    itemsize: int = 8


@dataclass
class RuntimeContext:
    """Per-activation runtime context.

    ``env`` carries the compile-time bindings of the activation (loop
    variables, constants) so a shared task body can tell which activation
    it implements -- e.g. the micro-step indices ``(i, j)`` of the
    extrapolation method.
    """

    task_name: str
    group_size: int
    env: Dict[str, int] = field(default_factory=dict)
    log: List[CollectiveRecord] = field(default_factory=list)

    def record(self, op: str, total_elements: float, itemsize: int = 8) -> None:
        """Log a collective the SPMD implementation would execute."""
        self.log.append(CollectiveRecord(op, total_elements, itemsize))

    # Convenience wrappers matching MPI vocabulary -----------------------
    def allgather(self, total_elements: float, itemsize: int = 8) -> None:
        """Record an allgather over the group."""
        self.record("allgather", total_elements, itemsize)

    def bcast(self, total_elements: float, itemsize: int = 8) -> None:
        """Record a broadcast over the group."""
        self.record("bcast", total_elements, itemsize)

    def allreduce(self, total_elements: float, itemsize: int = 8) -> None:
        """Record an allreduce over the group."""
        self.record("allreduce", total_elements, itemsize)

    def counts_by_op(self) -> Dict[str, int]:
        """Number of recorded collectives per operation name."""
        out: Dict[str, int] = {}
        for r in self.log:
            out[r.op] = out.get(r.op, 0) + 1
        return out
