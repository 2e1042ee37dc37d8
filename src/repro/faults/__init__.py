"""Fault tolerance: deterministic injection, retries, rescheduling.

The subsystem has three pillars, mirroring the tentpole:

* :class:`FaultPlan` / :class:`CoreLoss` -- seeded, generative fault
  injection (task failures, stragglers, permanent node loss) answering
  identically for the simulator and the functional runtime;
* :class:`RetryPolicy` / :class:`FailureRecord` -- bounded retries with
  per-attempt timeout, exponential backoff and seeded jitter, plus the
  structured failure records ``RunResult.failures`` surfaces;
* :func:`reschedule_on_core_loss` / :class:`RescheduleOutcome` -- re-plan
  the remaining layers of a layered schedule on the reduced platform
  through a fresh scheduling pipeline; the pipeline's reschedule stage
  (``FaultPlan.core_loss``) is its caller.  A functional run that loses
  a worker re-plans nothing: it requeues and reports the loss.
"""

from .plan import CoreLoss, FaultPlan, parse_faults_spec
from .retry import (
    FailureRecord,
    InjectedFault,
    RetryPolicy,
    TaskExecutionError,
    TaskTimeout,
)
from .reschedule import RescheduleOutcome, reschedule_on_core_loss

__all__ = [
    "CoreLoss",
    "FaultPlan",
    "parse_faults_spec",
    "RetryPolicy",
    "FailureRecord",
    "TaskExecutionError",
    "InjectedFault",
    "TaskTimeout",
    "RescheduleOutcome",
    "reschedule_on_core_loss",
]
