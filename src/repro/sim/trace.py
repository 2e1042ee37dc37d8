"""Execution traces produced by the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cluster.architecture import CoreId, Machine
from ..core.task import MTask

__all__ = ["TraceEntry", "ExecutionTrace"]


@dataclass(frozen=True)
class TraceEntry:
    """Simulated execution record of one task."""

    task: MTask
    start: float
    finish: float
    cores: Tuple[CoreId, ...]
    comp_time: float
    comm_time: float
    redist_wait: float  #: re-distribution delay charged before the start
    #: failed attempts charged before the successful one (fault injection)
    retries: int = 0
    #: seconds of failed attempts + backoff included in the duration
    fault_overhead: float = 0.0
    #: speculative backup outcome: ``""`` (none), ``"win"`` or ``"loss"``
    speculation: str = ""
    #: idle cores the backup attempt ran on
    backup_cores: Tuple[CoreId, ...] = ()
    #: launch time of the backup attempt (straggler threshold past start)
    backup_start: float = 0.0
    #: when the primary attempt would have finished without the backup
    primary_finish: float = 0.0

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def backup_duration(self) -> float:
        """Core-seconds span the backup attempt occupied (0 without one)."""
        return self.finish - self.backup_start if self.backup_cores else 0.0

    @property
    def speculation_saved(self) -> float:
        """Makespan seconds the winning backup shaved off this task."""
        return (
            self.primary_finish - self.finish if self.speculation == "win" else 0.0
        )


@dataclass
class ExecutionTrace:
    """Complete simulated run of an M-task program."""

    machine: Machine
    entries: List[TraceEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_task: Dict[MTask, TraceEntry] = {e.task: e for e in self.entries}

    def add(self, entry: TraceEntry) -> None:
        """Record one simulated task execution (each task once)."""
        if entry.task in self._by_task:
            raise ValueError(f"task {entry.task.name!r} traced twice")
        self.entries.append(entry)
        self._by_task[entry.task] = entry

    def replace(self, entry: TraceEntry) -> None:
        """Swap the recorded entry of ``entry.task`` (speculation updates)."""
        old = self._by_task.get(entry.task)
        if old is None:
            raise KeyError(f"task {entry.task.name!r} not traced yet")
        self.entries[self.entries.index(old)] = entry
        self._by_task[entry.task] = entry

    def __getitem__(self, task: MTask) -> TraceEntry:
        return self._by_task[task]

    def __contains__(self, task: MTask) -> bool:
        return task in self._by_task

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def makespan(self) -> float:
        return max((e.finish for e in self.entries), default=0.0)

    @property
    def total_comp(self) -> float:
        return sum(e.comp_time * len(e.cores) for e in self.entries)

    @property
    def total_comm(self) -> float:
        return sum(e.comm_time * len(e.cores) for e in self.entries)

    def comm_fraction(self) -> float:
        """Fraction of busy core-time spent communicating."""
        busy = self.total_comp + self.total_comm
        return self.total_comm / busy if busy > 0 else 0.0

    def utilization(self) -> float:
        """Busy core-time over the ``P x makespan`` area."""
        span = self.makespan
        if span <= 0:
            return 0.0
        area = span * self.machine.total_cores
        busy = sum(
            e.duration * len(e.cores) + e.backup_duration * len(e.backup_cores)
            for e in self.entries
        )
        return busy / area

    def per_core_busy(self) -> Dict[CoreId, float]:
        """Occupied seconds per physical core (only cores that ran)."""
        busy: Dict[CoreId, float] = {}
        for e in self.entries:
            for c in e.cores:
                busy[c] = busy.get(c, 0.0) + e.duration
            for c in e.backup_cores:
                busy[c] = busy.get(c, 0.0) + e.backup_duration
        return busy

    def actuals(self):
        """Per-task ``(task, width, actual_seconds)`` triples, name-sorted.

        The calibration join of :mod:`repro.obs.calibrate`: ``actual`` is
        the *fault-free* duration -- simulated duration minus injected
        fault overhead, clamped at zero -- because that is the quantity
        the symbolic cost model ``Tsymb`` predicts.
        """
        for e in sorted(self.entries, key=lambda e: e.task.name):
            yield e.task, len(e.cores), max(0.0, e.duration - e.fault_overhead)

    def speculation_summary(self) -> Dict[str, float]:
        """Win/loss counts and saved makespan seconds of backup attempts."""
        return {
            "wins": sum(1 for e in self.entries if e.speculation == "win"),
            "losses": sum(1 for e in self.entries if e.speculation == "loss"),
            "saved_seconds": sum(e.speculation_saved for e in self.entries),
        }

    def summary(self) -> str:
        """One-line human-readable trace summary."""
        return (
            f"makespan={self.makespan * 1e3:.3f} ms  "
            f"util={self.utilization() * 100:.1f}%  "
            f"comm-frac={self.comm_fraction() * 100:.1f}%  "
            f"tasks={len(self.entries)}"
        )
