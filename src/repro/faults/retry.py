"""Retry policies and the record of a recovered task.

The policy's backoff delays are *seeded*: the jitter of attempt ``a`` of
task ``t`` is drawn from ``random.Random(f"{seed}:{t}:{a}")``, so a
retried run is bit-reproducible no matter in which order tasks execute
and which executor (simulator or functional runtime) asks.

A task that exhausts its attempts (or its deadline budget) has no
record: it fails the run with :class:`RuntimeError`, so a
:class:`FailureRecord` always describes a task that retried and then
completed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = [
    "RetryPolicy",
    "FailureRecord",
    "TaskExecutionError",
    "InjectedFault",
    "TaskTimeout",
]


class TaskExecutionError(RuntimeError):
    """Base class of failures the retry machinery handles."""


class InjectedFault(TaskExecutionError):
    """A failure injected by a :class:`~repro.faults.FaultPlan`."""


class TaskTimeout(TaskExecutionError):
    """An attempt exceeded the policy's per-attempt timeout."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first one (``0`` disables retrying).
    timeout:
        Per-attempt timeout in seconds (``None`` disables the check).
        The functional runtime checks it against the attempt's effective
        duration (wall clock times the injected straggler factor, so
        timeout tests stay deterministic); the simulator charges it as
        the cost of a timed-out attempt.
    backoff / backoff_factor / jitter:
        Delay before retry ``a`` is ``backoff * backoff_factor**a``
        scaled by a uniform factor in ``[1 - jitter, 1 + jitter]``.
    max_delay:
        Hard cap on any single backoff delay.  The exponential
        ``backoff * backoff_factor**attempt`` grows without bound (and
        overflows to ``inf`` for large attempt numbers); every delay is
        clamped to ``max_delay`` after jitter is applied.
    deadline_seconds:
        Overall per-task budget in *effective* seconds (attempt
        durations times straggler factors, plus accounted backoff)
        across all attempts -- distinct from the per-attempt
        ``timeout``.  When retrying a failed attempt would push the
        accumulated budget past the deadline, the task gives up
        immediately: the functional runtime counts ``faults.gave_up``
        and ``faults.deadline_exceeded`` and raises
        :class:`RuntimeError`.  The check gates
        *retries* only: an attempt that eventually succeeds is never cut
        short.  Because every single delay is already
        clamped to ``max_delay``, the accumulated budget stays finite
        however many attempts the policy allows.  ``None`` disables the
        budget.
    seed:
        Seeds the jitter streams (see module docstring).
    """

    max_retries: int = 3
    timeout: Optional[float] = None
    backoff: float = 0.001
    backoff_factor: float = 2.0
    jitter: float = 0.1
    max_delay: float = 60.0
    deadline_seconds: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 and backoff_factor >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if not (self.max_delay > 0 and math.isfinite(self.max_delay)):
            raise ValueError("max_delay must be positive and finite")
        if self.deadline_seconds is not None:
            if not (
                self.deadline_seconds > 0 and math.isfinite(self.deadline_seconds)
            ):
                raise ValueError("deadline_seconds must be positive and finite")
            if self.timeout is not None and self.deadline_seconds < self.timeout:
                raise ValueError(
                    "deadline_seconds must be >= timeout (the budget must "
                    "admit at least one full attempt)"
                )

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def delay(self, task: str, attempt: int) -> float:
        """Backoff delay before retrying ``task`` after attempt ``attempt``.

        Never exceeds :attr:`max_delay`, whatever the attempt number.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        try:
            base = self.backoff * self.backoff_factor ** attempt
        except OverflowError:
            base = self.max_delay
        if not math.isfinite(base):
            base = self.max_delay
        if self.jitter <= 0 or base <= 0:
            return min(base, self.max_delay)
        u = random.Random(f"{self.seed}:{task}:{attempt}").uniform(
            -self.jitter, self.jitter
        )
        return min(base * (1.0 + u), self.max_delay)


@dataclass(frozen=True)
class FailureRecord:
    """One task that failed ``attempts - 1`` attempts and then completed
    (what ``RunResult.failures`` holds); ``error`` is the last failed
    attempt's, ``backoff_seconds`` the delay accounted between them."""

    task: str
    attempts: int
    error: str = ""
    backoff_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.attempts < 2:
            raise ValueError(
                f"a recovered task made at least two attempts, not {self.attempts}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Export the failure record as a dict; ``backoff_seconds`` is
        always there, also when no backoff was configured."""
        out: Dict[str, Any] = {"task": self.task, "attempts": self.attempts}
        if self.error:
            out["error"] = self.error
        out["backoff_seconds"] = self.backoff_seconds
        return out
