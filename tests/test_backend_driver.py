"""The batch driver and the attempt engine, tested without forking.

``InMemoryBackend`` is a :class:`~repro.runtime.backends.driver.Transport`
that runs jobs in-process and lets each test decide when (and how
often) a result arrives -- so speculation races, duplicates, stale
results and arbitrary arrival orders are scripted, not raced.  The
engine grid pins the stats and counters a ``FaultPlan x RetryPolicy``
grid produces, for the serial backend and through the driver alike."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TaskGraph
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import Instrumentation
from repro.recovery import SpeculationPolicy
from repro.runtime import run_program
from repro.runtime.backends.attempts import run_job
from repro.runtime.backends.driver import Crew, DriverBackend

from tests.test_backends import summarize, task
from tests.test_faults import chain_graph
from tests.test_obs import gauges, histogram


SPEC_GAUGE = "backend_speculation_in_flight{backend=fake}"
#: fires on the first empty poll once one task has completed
EAGER = SpeculationPolicy(factor=1.01, quantile=0.5, min_samples=1)


class InMemoryBackend(DriverBackend):
    """A transport with no processes: results arrive when the test says.

    ``route(backend, arrival, job)`` is called with every computed
    result and puts it into ``inbox`` (now, later, twice, never); the
    default delivers at once.
    """

    name = "fake"
    poll_interval = 0.0

    def __init__(self, route=None):
        super().__init__()
        self.inbox = collections.deque()
        self.route = route or (lambda backend, arrival, job: backend.inbox.append(arrival))
        self.jobs_at_stop = None
        self.idles = 0

    def _compute(self, job, worker):
        req, run = job.request, self._run
        payload = run_job(
            req.task, req.q, dict(req.ctx.env), req.values,
            run.faults, run.retry, job.backup_of is not None,
        )
        payload["outputs"] = payload.pop("produced")
        return (job.jid, worker, payload)

    def fork(self, run, bodies):
        return Crew(2)

    def reset(self, run):
        pass

    def submit(self, jobs):
        for job in jobs:
            self.route(self, self._compute(job, 0), job)

    def submit_backup(self, backup, owner):
        self.route(self, self._compute(backup, 1), backup)

    def poll(self, timeout):
        return self.inbox.popleft() if self.inbox else None

    def idle(self, waiting):
        self.idles += 1
        assert self.idles < 200_000, "driver spins: a result was never routed"

    def end(self):
        # close() calls this first: what the driver still tracks by then
        self.jobs_at_stop = sorted(self._jobs)
        self.inbox.clear()


def race_graph(backup_fails=False):
    """``warm -> slow -> tail``; ``slow`` is the task the tests race."""
    calls = {"slow": 0}

    def slow_body(ctx, values):
        calls["slow"] += 1
        if backup_fails and calls["slow"] > 1:
            raise RuntimeError("backup blew up")
        return {"out": values["mid"] + 1}

    g = TaskGraph()
    warm = g.add_task(task("warm", inp=["x"], out=["mid"],
                           func=lambda c, v: {"mid": v["x"] * 2}))
    slow = g.add_task(task("slow", inp=["mid"], out=["out"], func=slow_body))
    tail = g.add_task(task("tail", inp=["out"], out=["end"],
                           func=lambda c, v: {"end": v["out"] * 3}))
    g.connect(warm, slow)
    g.connect(slow, tail)
    return g


def race(first, backup_fails=False, duplicate=False):
    """Run ``race_graph`` holding ``slow``'s primary until its backup is
    submitted, then deliver the two results with ``first`` ahead."""
    held = []
    gauge_after_slow = []

    def route(backend, arrival, job):
        name = job.request.task.name
        if name == "tail":
            # by now `slow` committed; the loser's result is still out
            gauge_after_slow.append(gauges(backend._run.obs)[SPEC_GAUGE].value)
        if name != "slow":
            backend.inbox.append(arrival)
        elif job.backup_of is None:
            held.append(arrival)
        else:
            pair = [held.pop(), arrival]
            if first == "backup":
                pair.reverse()
            backend.inbox.extend(pair[:1] * (2 if duplicate else 1) + pair[1:])

    obs = Instrumentation()
    backend = InMemoryBackend(route)
    run = run_program(race_graph(backup_fails), {"x": np.ones(4)}, obs=obs,
                      speculation=EAGER, backend=backend)
    return run, obs, backend, gauge_after_slow


class TestSpeculationRaces:
    def test_primary_wins_and_late_backup_is_accounted(self):
        run, obs, backend, gauge_after_slow = race(first="primary")
        np.testing.assert_array_equal(run["end"], np.full(4, 9.0))
        [record] = run.stats.speculations
        assert record.task == "slow" and not record.win
        assert record.backup_seconds == -1.0
        assert obs.counter("speculation.losses") == 1
        # the drift bug: the lost backup was still in flight when `slow`
        # committed, and must come off the gauge when it finally reports
        assert gauge_after_slow == [1.0]
        assert gauges(obs)[SPEC_GAUGE].value == 0.0
        # both sides of the race arrived, so the job table emptied on
        # its own, before close() had anything to forget
        assert backend.jobs_at_stop == [] and backend._jobs == {}

    def test_backup_wins_and_late_primary_is_dropped(self):
        run, obs, backend, _ = race(first="backup")
        np.testing.assert_array_equal(run["end"], np.full(4, 9.0))
        [record] = run.stats.speculations
        assert record.win and record.backup_seconds >= 0.0
        assert obs.counter("speculation.wins") == 1
        backups = [s for s in obs.spans if s.name == "task_backup"]
        assert [s.meta["worker"] for s in backups] == [1]
        # the winner's outcome is the backup's: one attempt, no retries
        assert run.stats.retries == 0 and not run.failures
        assert run.stats.tasks_executed == 3
        assert gauges(obs)[SPEC_GAUGE].value == 0.0
        assert backend._jobs == {}

    def test_crashed_backup_is_just_a_lost_race(self):
        run, obs, backend, _ = race(first="backup", backup_fails=True)
        np.testing.assert_array_equal(run["end"], np.full(4, 9.0))
        [record] = run.stats.speculations
        assert not record.win and not run.failures
        assert gauges(obs)[SPEC_GAUGE].value == 0.0

    @pytest.mark.parametrize("first", ["primary", "backup"])
    def test_duplicate_results_commit_once(self, first):
        run, obs, backend, _ = race(first=first, duplicate=True)
        np.testing.assert_array_equal(run["end"], np.full(4, 9.0))
        assert run.stats.tasks_executed == 3
        assert len(run.stats.speculations) == 1
        assert gauges(obs)[SPEC_GAUGE].value == 0.0
        assert backend._jobs == {}

    def test_close_zeroes_the_gauge_of_a_backup_that_never_reports(self):
        held = []

        def route(backend, arrival, job):
            if job.request.task.name != "slow":
                backend.inbox.append(arrival)
            elif job.backup_of is None:
                held.append(arrival)
            else:
                backend.inbox.append(held.pop())  # primary answers, backup never

        obs = Instrumentation()
        seen = []
        publish = obs.publish

        def spy(name, value, **labels):
            if name == "backend_speculation_in_flight":
                seen.append(value)
            publish(name, value, **labels)

        obs.publish = spy
        backend = InMemoryBackend(route)
        g = race_graph()
        run_program(g, {"x": np.ones(4)}, obs=obs, speculation=EAGER,
                    backend=backend)
        assert seen == [0.0, 1.0, 0.0]  # open, backup out, close
        # the owner waits in the table for its backup until close()
        assert backend.jobs_at_stop == [1, 2]
        assert backend._spec_inflight == 0 and backend._jobs == {}


def fault_counters(obs):
    return {k: v for k, v in obs.counters.items() if k.startswith("faults.")}


class TestArrivalOrder:
    def _fan(self, width):
        g = TaskGraph()
        src = g.add_task(task("src", inp=["x"], out=["s"],
                              func=lambda c, v: {"s": v["x"] + 1}))
        outs = [f"o{i}" for i in range(width)]
        sink = g.add_task(task(
            "sink", inp=outs, out=["r"],
            func=lambda c, v: {"r": sum(v[o] for o in outs)},
        ))
        for i, out in enumerate(outs):
            t = g.add_task(task(
                f"w{i}", inp=["s"], out=[out],
                func=lambda c, v, i=i: {f"o{i}": v["s"] * (i + 2)},
            ))
            g.connect(src, t)
            g.connect(t, sink)
        return g

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_permutation_commits_in_batch_order(self, data):
        """Whatever order a batch's results arrive in, the run commits
        them in batch order: a run that recovers ends with the serial
        variables and records, one whose ``w1`` and ``w3`` give up
        raises for ``w1``, the first in commit order, with the serial
        counters."""
        width = 5
        retry = RetryPolicy(seed=3, max_retries=1)
        recovers = dict(faults=FaultPlan(seed=3, failure_rate=0.4), retry=retry)
        gives_up = dict(faults=FaultPlan(task_faults={"w1": 99, "w3": 99}),
                        retry=retry)
        stale = (999, 0, {"outputs": None, "gave_up": "",
                          "info": {}, "events": []})

        batch = []

        def route(backend, arrival, job):
            batch.append(arrival)
            if len(batch) == (width if job.request.task.name.startswith("w") else 1):
                order = data.draw(st.permutations(range(len(batch))))
                backend.inbox.append(stale)  # a result nobody waits for
                backend.inbox.extend(batch[i] for i in order)
                batch.clear()

        for kw in (recovers, gives_up):
            ref_obs, obs = Instrumentation(), Instrumentation()

            def run(obs, backend=None):
                return run_program(self._fan(width), {"x": np.ones(4)},
                                   obs=obs, backend=backend, **kw)

            if kw is recovers:
                reference = run(ref_obs)
                result = run(obs, InMemoryBackend(route))
                assert summarize(result) == summarize(reference)
                assert [f.to_dict() for f in result.failures] == [
                    f.to_dict() for f in reference.failures]
            else:
                for o, backend in ((ref_obs, None), (obs, InMemoryBackend(route))):
                    with pytest.raises(
                        RuntimeError, match=r"^task 'w1' failed after 2 attempt"
                    ):
                        run(o, backend)
                assert obs.counter("faults.gave_up") == 1
            assert fault_counters(obs) == fault_counters(ref_obs)
            committed = [s.meta["task"] for s in obs.spans
                         if s.name == "task" and "error" not in s.meta]
            expected = [s for s in (t.name for t in self._fan(width).topological_order())
                        if s in committed]
            assert committed == expected


# ----------------------------------------------------------------------
# the attempt engine: pinned accounting of a FaultPlan x RetryPolicy grid
# ----------------------------------------------------------------------
COUNTERS = ("faults.failed_attempts", "faults.injected", "faults.timeouts",
            "faults.retries", "faults.gave_up", "faults.deadline_exceeded")
RECOVERED_B = ["b"]
#: ``b`` spends its attempts: the run raises and ``c`` never runs
GAVE_UP_B = None

#: name -> (plan, policy, recovered tasks or GAVE_UP_B,
#:          attempts of b, retries, backoff delays (hex), counters, task spans)
GRID = {
    "recovers": (
        FaultPlan(task_faults={"b": 2}), RetryPolicy(),
        RECOVERED_B, 3, 2,
        ["0x1.0f2e67627c67ep-10", "0x1.1228cf2183216p-9"],
        {"faults.failed_attempts": 2, "faults.injected": 2, "faults.retries": 2},
        5,
    ),
    "exhausted": (
        FaultPlan(task_faults={"b": 99}), RetryPolicy(max_retries=1),
        GAVE_UP_B, 2, 0, ["0x1.0f2e67627c67ep-10"],
        {"faults.failed_attempts": 2, "faults.injected": 2, "faults.gave_up": 1},
        3,
    ),
    "timeout": (
        FaultPlan(slowdowns={"b": 1e12}), RetryPolicy(max_retries=1, timeout=1.0),
        GAVE_UP_B, 2, 0, ["0x1.0f2e67627c67ep-10"],
        {"faults.failed_attempts": 2, "faults.timeouts": 2, "faults.gave_up": 1},
        3,
    ),
    "deadline": (
        FaultPlan(task_faults={"b": 5}),
        RetryPolicy(seed=11, deadline_seconds=1e-9),
        GAVE_UP_B, 1, 0, [],
        {"faults.failed_attempts": 1, "faults.injected": 1, "faults.gave_up": 1,
         "faults.deadline_exceeded": 1},
        2,
    ),
    "no-policy": (
        FaultPlan(task_faults={"b": 1}), None,
        GAVE_UP_B, 1, 0, [],
        {"faults.failed_attempts": 1, "faults.injected": 1, "faults.gave_up": 1},
        2,
    ),
    "jitter": (
        FaultPlan(task_faults={"b": 3}),
        RetryPolicy(seed=7, max_retries=3, backoff=0.01, jitter=0.5),
        RECOVERED_B, 4, 3,
        ["0x1.c48b43a419af1p-7", "0x1.d146a1c6e19a5p-7", "0x1.8e7d2171cf56cp-6"],
        {"faults.failed_attempts": 3, "faults.injected": 3, "faults.retries": 3},
        6,
    ),
    "fixed-backoff": (
        FaultPlan(task_faults={"b": 1}), RetryPolicy(backoff=0.01, jitter=0.0),
        RECOVERED_B, 2, 1, ["0x1.47ae147ae147bp-7"],
        {"faults.failed_attempts": 1, "faults.injected": 1, "faults.retries": 1},
        4,
    ),
}


class TestAttemptEngineGrid:
    """Values pinned from the serial backend before it shared the engine
    (PR 13); the driver column proves workers account identically."""

    @pytest.mark.parametrize("backend", ["serial", "driver"])
    @pytest.mark.parametrize("case", sorted(GRID))
    def test_stats_and_counters_are_pinned(self, case, backend):
        plan, retry, failures, attempts, retries, delays, counters, spans = GRID[case]
        obs = Instrumentation()

        def run():
            return run_program(
                chain_graph(), {"x": np.arange(4.0)}, obs=obs, faults=plan,
                retry=retry,
                backend=InMemoryBackend() if backend == "driver" else None,
            )

        backoff = 0.0
        for delay in delays:
            backoff += float.fromhex(delay)
        if failures is GAVE_UP_B:
            with pytest.raises(
                RuntimeError, match=rf"^task 'b' failed after {attempts} attempt\(s\)"
            ):
                run()
        else:
            result = run()
            assert [f.task for f in result.failures] == failures
            assert result.failures[0].attempts == attempts
            assert result.stats.retries == retries
            assert result.stats.backoff_seconds == backoff
            assert result.failures[0].backoff_seconds == backoff
        # every backend accounts the backoff and none sleeps it
        backoffs = histogram(obs, "runtime.backoff_seconds").values
        assert [v.hex() for v in backoffs] == delays
        assert {c: obs.counter(c) for c in COUNTERS if obs.counter(c)} == counters
        assert len([s for s in obs.spans if s.name == "task"]) == spans
        assert histogram(obs, "task_retries").count == (1 if retries else 0)
