"""Tests for ``RetryPolicy.deadline_seconds``: the overall per-task
retry budget, distinct from the per-attempt ``timeout`` -- validation,
deterministic give-up across all three backends, overflow safety and
the ``faults.deadline_exceeded`` surfacing."""

import re

import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.obs import Instrumentation
from repro.ode import MethodConfig
from repro.runtime import ClusterBackend, ProcessPoolBackend, run_program

from tests.test_backend_driver import fault_counters
from tests.test_backends import functional_step, summarize

PLAN = FaultPlan(seed=11, failure_rate=0.3)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
class TestDeadlineValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_or_non_finite_deadline_raises(self, bad):
        with pytest.raises(ValueError, match="deadline_seconds"):
            RetryPolicy(deadline_seconds=bad)

    def test_deadline_smaller_than_timeout_raises(self):
        """The budget must admit at least one full attempt."""
        with pytest.raises(ValueError, match="deadline_seconds"):
            RetryPolicy(timeout=2.0, deadline_seconds=1.0)

    def test_deadline_equal_to_timeout_is_allowed(self):
        policy = RetryPolicy(timeout=1.0, deadline_seconds=1.0)
        assert policy.deadline_seconds == 1.0

    def test_deadline_without_timeout_is_allowed(self):
        assert RetryPolicy(deadline_seconds=0.5).deadline_seconds == 0.5

    def test_default_is_no_deadline(self):
        assert RetryPolicy().deadline_seconds is None


# ----------------------------------------------------------------------
# deterministic give-up, bit-identical on every backend
# ----------------------------------------------------------------------
class TestDeadlineGiveUp:
    def _run(self, retry, backend=None, obs=None):
        body, store = functional_step(MethodConfig("irk", K=4, m=3))
        return run_program(
            body, dict(store), faults=PLAN, retry=retry, backend=backend, obs=obs,
        )

    def _give_up(self, retry, backend=None):
        """Run expecting a give-up: its error message and fault counters."""
        obs = Instrumentation()
        with pytest.raises(RuntimeError, match="failed after") as info:
            self._run(retry, backend, obs)
        return str(info.value), fault_counters(obs)

    def test_tiny_deadline_trips_on_the_first_failure(self):
        message, counters = self._give_up(RetryPolicy(seed=11, deadline_seconds=1e-9))
        # the budget admitted no retry at all
        assert "failed after 1 attempt(s)" in message
        assert counters["faults.deadline_exceeded"] == 1

    def test_deadline_failures_are_counted(self):
        _, counters = self._give_up(RetryPolicy(seed=11, deadline_seconds=1e-9))
        assert counters["faults.deadline_exceeded"] == 1.0
        assert counters["faults.gave_up"] == 1.0

    @pytest.mark.parametrize("make_backend", [
        lambda: ProcessPoolBackend(workers=2),
        lambda: ClusterBackend(workers=2),
    ], ids=["pool", "cluster"])
    def test_give_up_is_bit_identical_across_backends(self, make_backend):
        retry = RetryPolicy(seed=11, deadline_seconds=1e-9)
        assert self._give_up(retry, backend=make_backend()) == self._give_up(retry)

    def test_huge_deadline_never_trips(self):
        """A generous budget behaves exactly like no budget at all."""
        unbounded = self._run(RetryPolicy(seed=11))
        bounded = self._run(RetryPolicy(seed=11, deadline_seconds=1e6))
        assert summarize(bounded) == summarize(unbounded)

    def test_success_is_never_cut_short(self):
        """The deadline gates retries only: with no injected faults every
        task succeeds regardless of how tight the budget is."""
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        run = run_program(
            body, dict(store), retry=RetryPolicy(deadline_seconds=1e-9)
        )
        assert not run.failures

    def test_overflow_safe_with_many_retries(self):
        """A huge retry count cannot overflow the budget: every single
        backoff is clamped to max_delay, so the accumulated budget stays
        finite and the deadline check still fires deterministically."""
        retry = RetryPolicy(
            seed=11, max_retries=10_000, backoff_factor=10.0,
            max_delay=0.01, deadline_seconds=0.01,
        )
        body, store = functional_step(MethodConfig("irk", K=4, m=3))
        obs = Instrumentation()
        with pytest.raises(RuntimeError, match=r"failed after (\d+) attempt") as info:
            run_program(
                body, dict(store), retry=retry, obs=obs,
                faults=FaultPlan(seed=11, failure_rate=0.95),
            )
        # the budget admitted a bounded number of attempts, far fewer
        # than the policy's 10k retries
        attempts = int(re.search(r"failed after (\d+) attempt", str(info.value))[1])
        assert 1 <= attempts < 100
        assert obs.counter("faults.deadline_exceeded") == 1
        assert obs.counter("faults.gave_up") == 1
