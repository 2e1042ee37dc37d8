"""M-tasks (multiprocessor tasks) and their declared resources.

An M-task (Section 2.1) is a piece of parallel program code that can run
on an arbitrary number of cores.  For scheduling purposes a task is
described by

* its sequential computational work (flop count),
* its internal communication profile -- the collective operations one
  activation performs on its group of cores (Table 1 is built from these),
* its input/output parameters with their data-distribution types, from
  which the input-output relations (graph edges) and the re-distribution
  volumes are derived,
* optional moldability bounds ``min_procs``/``max_procs``.

For functional execution through :mod:`repro.runtime` a task may also
carry a Python callable implementing its body in an SPMD style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from ..distribution import (
    BlockCyclic,
    Distribution1D,
    Replicated,
    block,
)

__all__ = [
    "AccessMode",
    "DistributionSpec",
    "Parameter",
    "CollectiveSpec",
    "MTask",
    "COLLECTIVE_OPS",
    "COLLECTIVE_SCOPES",
]

#: Collective operations understood by the communication cost model.
COLLECTIVE_OPS = (
    "bcast",
    "allgather",
    "gather",
    "scatter",
    "reduce",
    "allreduce",
    "alltoall",
    "ptp",
    "barrier",
)


class AccessMode(Enum):
    """Access mode of an M-task parameter."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def reads(self) -> bool:
        return self in (AccessMode.IN, AccessMode.INOUT)

    @property
    def writes(self) -> bool:
        return self in (AccessMode.OUT, AccessMode.INOUT)


@dataclass(frozen=True)
class DistributionSpec:
    """Symbolic data-distribution type, instantiated per group size.

    ``kind`` is one of ``"replic"``, ``"block"``, ``"cyclic"`` or
    ``"blockcyclic"`` (the latter requires ``block_size``).
    """

    kind: str = "replic"
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("replic", "block", "cyclic", "blockcyclic"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "blockcyclic" and (self.block_size or 0) <= 0:
            raise ValueError("blockcyclic requires a positive block_size")

    def instantiate(self, elements: int, nprocs: int) -> Distribution1D:
        """Concrete distribution of ``elements`` items over ``nprocs`` ranks."""
        if self.kind == "replic":
            return Replicated(elements, nprocs)
        if self.kind == "block":
            return block(elements, nprocs)
        if self.kind == "cyclic":
            return BlockCyclic(elements, nprocs, 1)
        return BlockCyclic(elements, nprocs, int(self.block_size))  # blockcyclic


@dataclass(frozen=True)
class Parameter:
    """A named input/output parameter of an M-task.

    ``elements * itemsize`` bytes is the payload that potentially needs
    re-distribution along an input-output relation.
    """

    name: str
    mode: AccessMode
    elements: int
    itemsize: int = 8
    dist: DistributionSpec = field(default_factory=DistributionSpec)

    def __post_init__(self) -> None:
        if self.elements < 0:
            raise ValueError("elements must be non-negative")
        if self.itemsize <= 0:
            raise ValueError("itemsize must be positive")


#: Scopes of a task's collective operations (the three communication
#: pattern classes of Section 4.2).
COLLECTIVE_SCOPES = ("group", "global", "orthogonal")


@dataclass(frozen=True)
class CollectiveSpec:
    """One (repeated) internal collective operation of a task activation.

    ``total_elements`` is the payload in *elements of the full data
    structure*; the per-rank contribution follows from the operation's
    semantics (e.g. each of ``q`` ranks contributes ``total/q`` elements
    to an allgather).  ``count`` repeats the operation, e.g. the ``m``
    allgathers per time step of the IRK method (Table 1).

    ``scope`` selects the communicating cores:

    * ``"group"`` -- the cores executing this task (degenerates to a
      global operation in the data-parallel program version),
    * ``"global"`` -- all cores of the program,
    * ``"orthogonal"`` -- cores at the same rank position of the
      concurrently executing groups (a no-op when only one group exists,
      which is how the data-parallel rows of Table 1 lose their
      orthogonal entries).

    ``task_parallel_only`` marks operations that a data-parallel
    execution does not need at all (e.g. the global broadcast of the new
    approximation vector in the task-parallel extrapolation method):
    they are skipped when the task's group already spans all cores.
    """

    op: str
    total_elements: float
    itemsize: int = 8
    count: float = 1.0
    scope: str = "group"
    task_parallel_only: bool = False

    def __post_init__(self) -> None:
        if self.op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {self.op!r}; known: {COLLECTIVE_OPS}")
        if self.scope not in COLLECTIVE_SCOPES:
            raise ValueError(
                f"unknown scope {self.scope!r}; known: {COLLECTIVE_SCOPES}"
            )
        if self.total_elements < 0:
            raise ValueError("total_elements must be non-negative")
        if self.itemsize <= 0:
            raise ValueError("itemsize must be positive")
        if self.count < 0:
            raise ValueError("count must be non-negative")

    @property
    def total_bytes(self) -> float:
        return self.total_elements * self.itemsize


@dataclass(eq=False)
class MTask:
    """One activation of a parallel task (a node of the M-task graph).

    Instances compare by identity: the same subroutine activated twice
    (e.g. the micro-steps ``step(i, j)`` of the extrapolation method)
    yields two distinct :class:`MTask` nodes.
    """

    name: str
    work: float = 0.0  #: sequential computational work in flop
    comm: Tuple[CollectiveSpec, ...] = ()
    params: Tuple[Parameter, ...] = ()
    min_procs: int = 1
    max_procs: Optional[int] = None
    #: number of thread-synchronisation points per activation; only the
    #: hybrid MPI+OpenMP model (Section 4.7) charges for these.
    sync_points: float = 0
    #: optional SPMD body for functional execution; signature
    #: ``func(ctx: GroupContext, **local_params) -> dict``.
    func: Optional[Callable] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError("work must be non-negative")
        if self.min_procs < 1:
            raise ValueError("min_procs must be >= 1")
        if self.max_procs is not None and self.max_procs < self.min_procs:
            raise ValueError("max_procs must be >= min_procs")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate parameter names in task {self.name!r}")

    # ------------------------------------------------------------------
    def param(self, name: str) -> Parameter:
        """Look up a parameter by name."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"task {self.name!r} has no parameter {name!r}")

    @property
    def inputs(self) -> Tuple[Parameter, ...]:
        return tuple(p for p in self.params if p.mode.reads)

    @property
    def outputs(self) -> Tuple[Parameter, ...]:
        return tuple(p for p in self.params if p.mode.writes)

    def feasible_procs(self, q: int) -> bool:
        """Whether the task may run on ``q`` cores."""
        if q < self.min_procs:
            return False
        return self.max_procs is None or q <= self.max_procs

    def clamp_procs(self, q: int) -> int:
        """Largest feasible core count not exceeding ``q``."""
        if q < self.min_procs:
            raise ValueError(
                f"task {self.name!r} needs at least {self.min_procs} cores, got {q}"
            )
        return q if self.max_procs is None else min(q, self.max_procs)
