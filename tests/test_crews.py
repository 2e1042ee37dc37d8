"""Workers outlive a run: when the pool and cluster keep their crew, and
when they must not.

The witness graph's bodies return ``os.getpid()`` next to their numbers,
so a run says which processes ran it: two runs of one graph on fresh
backend instances share their workers, and each change a kept crew could
not serve correctly -- a new graph, a rebound ``func``, another fault
plan or retry policy, a lost or an extra member -- gets new ones.  Every
run's numbers equal its own serial run's.  The exit checks run in a
child interpreter: whatever it leaves running or in ``/dev/shm`` after a
normal exit or a SIGTERM is what a kept crew costs its process."""

import array
import fcntl
import json
import os
import signal
import subprocess
import sys
import termios
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import TaskGraph
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import Instrumentation
from repro.ode import MethodConfig, bruss2d, integrate_functional
from repro.runtime import ClusterBackend, ProcessPoolBackend, run_program
from repro.runtime.backends import RunContext, driver

from tests.test_backend_driver import EAGER, InMemoryBackend, race_graph
from tests.test_backends import summarize, task
from tests.test_obs import gauges

KINDS = {"pool": ProcessPoolBackend, "cluster": ClusterBackend}
WIDTH = 4
ROOT = Path(__file__).resolve().parent.parent
SHM = "/dev/shm"


@pytest.fixture(autouse=True)
def no_crew():
    """Each test starts and ends with no kept crew in this process."""
    driver._stop_crews()
    yield
    driver._stop_crews()


def pid_graph():
    """``src -> w0..w3``: each ``w<i>`` computes ``o<i>`` and reports the
    pid of the process that ran it as ``pid<i>``."""

    def body(i):
        def run(ctx, values):
            time.sleep(0.01)  # long enough for both workers to take some
            return {f"o{i}": values["s"] * (i + 2) + values["x"],
                    f"pid{i}": np.full(4, float(os.getpid()))}
        return run

    g = TaskGraph()
    src = g.add_task(task("src", inp=["x"], out=["s"],
                          func=lambda c, v: {"s": v["x"] + 1}))
    for i in range(WIDTH):
        g.connect(src, g.add_task(task(f"w{i}", inp=["s", "x"],
                                       out=[f"o{i}", f"pid{i}"], func=body(i))))
    return g


def pids(run):
    return {int(run[f"pid{i}"][0]) for i in range(WIDTH)}


def numbers(run):
    """The run's digests without the pids (serial ran in this process)."""
    out = summarize(run)
    out["variables"] = {k: v for k, v in out["variables"].items() if not k.startswith("pid")}
    return out


def crew_pids(kind):
    """Pids of the crew kept for ``kind``, or the empty set."""
    crew = driver._CREWS.get(kind)
    if crew is None:
        return set()
    procs = crew.procs.values() if isinstance(crew.procs, dict) else crew.procs
    return {p.pid for p in procs}


def step(graph, kind, x, **kw):
    """Run ``graph`` on a fresh backend instance of ``kind``; assert its
    numbers are the serial run's; return its worker pids."""
    backend_kw = kw.pop("backend_kw", {})
    serial = run_program(graph, {"x": x}, **kw)
    run = run_program(graph, {"x": x}, backend=KINDS[kind](workers=2, **backend_kw), **kw)
    assert numbers(run) == numbers(serial)
    return pids(run)


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def exited(pid):
    """Gone or a zombie: a killed worker waits for its crew to reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


# ----------------------------------------------------------------------
# reuse and invalidation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(KINDS))
class TestKeptCrew:
    def test_two_runs_of_one_graph_share_their_workers(self, kind):
        graph = pid_graph()
        first = step(graph, kind, np.arange(4.0))
        crew = crew_pids(kind)
        assert len(crew) == 2 and first <= crew
        # perturbed inputs: a table or arena left over from the first run
        # would hand these tasks the first run's bytes
        second = step(graph, kind, np.arange(4.0) * 1.5 - 0.25)
        assert second <= crew and crew_pids(kind) == crew

    def test_a_new_graph_gets_new_workers(self, kind):
        x = np.arange(4.0)
        first = step(pid_graph(), kind, x)
        second = step(pid_graph(), kind, x)
        assert not first & second

    def test_a_rebound_func_gets_new_workers(self, kind):
        graph, x = pid_graph(), np.arange(4.0)
        first = step(graph, kind, x)
        w0 = next(t for t in graph.topological_order() if t.name == "w0")
        inner = w0.func
        w0.func = lambda ctx, values: inner(ctx, values)
        second = step(graph, kind, x)
        assert not first & second

    def test_another_fault_plan_or_retry_policy_gets_new_workers(self, kind):
        graph, x = pid_graph(), np.arange(4.0)
        plan = FaultPlan(seed=7, failure_rate=0.5)
        first = step(graph, kind, x, faults=plan, retry=RetryPolicy(max_retries=3, seed=1))
        again = step(graph, kind, x, faults=FaultPlan(seed=7, failure_rate=0.5),
                     retry=RetryPolicy(max_retries=3, seed=1))
        assert again <= crew_pids(kind) and first <= crew_pids(kind)  # equal by value
        other_plan = step(graph, kind, x, faults=FaultPlan(seed=8, failure_rate=0.5),
                          retry=RetryPolicy(max_retries=3, seed=1))
        assert not other_plan & first
        other_retry = step(graph, kind, x, faults=FaultPlan(seed=8, failure_rate=0.5),
                           retry=RetryPolicy(max_retries=3, seed=2))
        assert not other_retry & other_plan

    def test_a_member_killed_while_idle_gets_new_workers(self, kind):
        graph, x = pid_graph(), np.arange(4.0)
        step(graph, kind, x)
        crew = crew_pids(kind)
        victim = min(crew)
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while not exited(victim) and time.monotonic() < deadline:
            time.sleep(0.01)
        second = step(graph, kind, x)
        assert not second & crew
        assert not any(alive(pid) for pid in crew)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_an_integration_forks_once_for_all_its_steps(kind, monkeypatch):
    """``integrate_functional`` runs one body graph per time step on the
    backend it is given: the first step forks, every later one reuses
    the crew, and the solution is the serial one bit for bit."""
    forks = []
    fork = KINDS[kind].fork
    monkeypatch.setattr(KINDS[kind], "fork",
                        lambda self, *a: forks.append(1) or fork(self, *a))
    problem, cfg = bruss2d(6), MethodConfig("irk", K=3, m=2, h=0.05)
    serial = integrate_functional(problem, cfg)
    run = integrate_functional(problem, cfg, backend=KINDS[kind](workers=2))
    assert run.steps == serial.steps == 20 and len(forks) == 1
    assert run.y.tobytes() == serial.y.tobytes() and run.t == serial.t
    assert run.collective_counts == serial.collective_counts


def mapped_chunks(pid):
    """Arena chunks process ``pid`` still maps (an unlinked chunk's pages
    stay allocated while any process maps it)."""
    with open(f"/proc/{pid}/maps") as fh:
        return [line for line in fh if "/dev/shm/repro-" in line]


class WatchedPool(ProcessPoolBackend):
    """Notes what each worker maps when a run is about to create its arena."""

    seen = []

    def reset(self, run):
        self.seen.append({p.pid: mapped_chunks(p.pid) for p in self._crew.procs})
        super().reset(run)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc to inspect")
def test_a_kept_pool_maps_no_chunk_of_a_finished_run():
    """Every worker, also one that took no job, detaches the run's chunks
    when it ends: the next run creates its arena only once all have, and
    an idle crew maps nothing."""
    graph, x = pid_graph(), np.arange(4.0)
    WatchedPool.seen = []
    runs = [run_program(graph, {"x": x * k}, backend=WatchedPool(workers=2)) for k in (1, 2)]
    crew = {p.pid for p in driver._CREWS["pool"].procs}
    assert len(crew) == 2 and pids(runs[0]) | pids(runs[1]) <= crew
    assert WatchedPool.seen == [{pid: [] for pid in crew}] * 2
    assert not mapped_chunks(os.getpid())
    deadline = time.monotonic() + 5.0
    while any(map(mapped_chunks, crew)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert {pid: mapped_chunks(pid) for pid in crew} == {pid: [] for pid in crew}


def pending_bytes(sock):
    """Bytes waiting in ``sock``'s receive buffer."""
    count = array.array("i", [0])
    fcntl.ioctl(sock.fileno(), termios.FIONREAD, count)
    return count[0]


def test_an_idle_cluster_crew_stays_quiet():
    """Between runs the members send nothing nobody would read, and a
    crew idle for longer than the heartbeat timeout is taken over with
    no member judged silent."""
    graph, x = pid_graph(), np.arange(4.0)
    kw = {"heartbeat_interval": 0.01}  # heartbeat timeout 0.4 s
    step(graph, "cluster", x, backend_kw=kw)
    crew = driver._CREWS["cluster"]
    socks = [m.sock for m in crew.coord.members.values()]
    time.sleep(0.15)  # a heartbeat sent before its reset arrived lands by now
    before = [pending_bytes(sock) for sock in socks]
    time.sleep(0.45)
    assert [pending_bytes(sock) for sock in socks] == before
    obs = Instrumentation()
    run = run_program(graph, {"x": x}, obs=obs, backend=ClusterBackend(workers=2, **kw))
    assert pids(run) <= crew_pids("cluster") and driver._CREWS["cluster"] is crew
    assert obs.counter("cluster.worker_losses") == 0.0
    assert numbers(run) == numbers(run_program(graph, {"x": x}))


class TestClusterMembership:
    def test_a_member_lost_mid_run_retires_the_crew(self):
        graph, x = pid_graph(), np.arange(4.0)
        delay = {"worker_delay": {1: 0.1}}
        step(graph, "cluster", x, backend_kw=delay)
        crew = crew_pids("cluster")
        step(graph, "cluster", x, backend_kw=dict(delay, chaos_kill=(1, 1), poll_interval=0.005))
        third = step(graph, "cluster", x, backend_kw=delay)
        assert not third & crew

    def test_a_spawned_member_retires_the_crew(self):
        graph, x = pid_graph(), np.arange(4.0)
        backend = ClusterBackend(workers=2)
        backend.open(RunContext(graph=graph, obs=Instrumentation()))
        try:
            crew = {p.pid for p in backend._crew.procs.values()}
            backend.spawn_worker()
            grown = {p.pid for p in backend._crew.procs.values()}
        finally:
            backend.close()
        assert len(grown) == 3 and not any(alive(pid) for pid in grown)
        assert not step(graph, "cluster", x) & crew


class TestTheDecision:
    """The driver's half without processes: a crew is forked once, kept
    after a clean run and stopped after one that left a job out."""

    class Counting(InMemoryBackend):
        forks = []

        def fork(self, run, bodies):
            crew = super().fork(run, bodies)
            crew.stops = 0
            crew.stop = lambda: setattr(crew, "stops", crew.stops + 1)
            self.forks.append(crew)
            return crew

    def test_kept_after_a_clean_run_and_stopped_after_a_lost_backup(self):
        graph = race_graph()
        self.Counting.forks = []
        for _ in range(3):
            run_program(graph, {"x": np.ones(4)}, backend=self.Counting())
        [crew] = self.Counting.forks
        assert crew.stops == 0 and driver._CREWS["fake"] is crew
        held = []

        def route(backend, arrival, job):
            if job.request.task.name != "slow":
                backend.inbox.append(arrival)
            elif job.backup_of is None:
                held.append(arrival)
            else:
                backend.inbox.append(held.pop())  # primary answers, backup never

        run_program(graph, {"x": np.ones(4)}, speculation=EAGER,
                    backend=self.Counting(route))
        assert len(self.Counting.forks) == 1
        assert crew.stops == 1 and "fake" not in driver._CREWS

    def test_stopped_after_a_run_that_raised(self):
        graph = race_graph(backup_fails=True)  # ``slow`` raises from its second call on
        self.Counting.forks = []
        run_program(graph, {"x": np.ones(4)}, backend=self.Counting())
        [crew] = self.Counting.forks
        with pytest.raises(RuntimeError, match="backup blew up"):
            run_program(graph, {"x": np.ones(4)}, backend=self.Counting())
        assert len(self.Counting.forks) == 1
        assert crew.stops == 1 and "fake" not in driver._CREWS


class TestConcurrentRuns:
    class Exclusive(InMemoryBackend):
        """Notes every time a run takes over a crew another run holds."""

        forks, clashes = [], []

        def fork(self, run, bodies):
            crew = super().fork(run, bodies)
            crew.holder, crew.stops = None, 0
            crew.stop = lambda: setattr(crew, "stops", crew.stops + 1)
            self.forks.append(crew)
            return crew

        def reset(self, run):
            if self._crew.holder is not None:
                self.clashes.append(self._crew)
            self._crew.holder = threading.get_ident()

        def end(self):
            super().end()
            if self._crew is not None:
                if self._crew.holder != threading.get_ident():
                    self.clashes.append(self._crew)
                self._crew.holder = None

    def test_a_busy_crew_is_never_shared(self):
        """Runs on four threads at once, more than there are cores, with a
        short switch interval: no crew serves two runs at a time, every
        result is the serial one, and afterwards one crew is kept and
        every other was stopped once."""
        graph = race_graph()
        serial = summarize(run_program(graph, {"x": np.ones(4)}))
        self.Exclusive.forks, self.Exclusive.clashes = [], []
        results, errors = [], []

        def worker():
            try:
                for _ in range(25):
                    run = run_program(graph, {"x": np.ones(4)}, backend=self.Exclusive())
                    results.append(summarize(run))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not self.Exclusive.clashes
        assert results == [serial] * 100
        kept = driver._CREWS["fake"]
        assert driver._LIVE == {kept} and kept.stops == 0
        assert all(c.stops == 1 for c in self.Exclusive.forks if c is not kept)


# ----------------------------------------------------------------------
# observability on a kept crew
# ----------------------------------------------------------------------
class TestObsOnAKeptCrew:
    def test_joins_count_forks_only_and_a_loss_is_still_reported(self):
        graph, x = pid_graph(), np.arange(4.0)
        delay = {1: 0.1}
        runs = []
        for extra in ({}, {}, {"chaos_kill": (1, 1), "poll_interval": 0.005}):
            obs = Instrumentation()
            run = run_program(graph, {"x": x}, obs=obs,
                              backend=ClusterBackend(workers=2, worker_delay=delay, **extra))
            runs.append((obs, run))
            if not extra:
                crew = dict(driver._CREWS["cluster"].procs)
        (fresh, _), (kept, _), (lossy, run) = runs
        assert fresh.counter("cluster.worker_joins") == 2.0
        assert kept.counter("cluster.worker_joins") == 0.0
        assert lossy.counter("cluster.worker_joins") == 0.0
        for obs in (fresh, kept):
            assert gauges(obs)["backend_workers{backend=cluster}"].value == 2.0
            assert not obs.records_of("worker_crash")
        [crash] = lossy.records_of("worker_crash")
        assert crash["worker"] == 1 and crash["pid"] == crew[1].pid
        assert lossy.counter("cluster.worker_losses") == 1.0
        assert gauges(lossy)["backend_workers{backend=cluster}"].value == 1.0
        assert numbers(run) == numbers(run_program(graph, {"x": x}))

    def test_pool_publishes_its_workers_on_every_open(self):
        graph, x = pid_graph(), np.arange(4.0)
        for _ in range(2):
            obs = Instrumentation()
            run_program(graph, {"x": x}, obs=obs, backend=ProcessPoolBackend(workers=2))
            assert gauges(obs)["backend_workers{backend=pool}"].value == 2.0


# ----------------------------------------------------------------------
# exit hygiene: nothing outlives the interpreter that forked it
# ----------------------------------------------------------------------
CHILD = """
import json, multiprocessing, signal, sys, time
from repro.ode import MethodConfig, bruss2d, functional_step, run_functional_step
from repro.runtime import parse_backend_spec, run_program

if sys.argv[1] == "sigterm":
    def handler(signum, frame):
        raise SystemExit(143)
    signal.signal(signal.SIGTERM, handler)
cfg = MethodConfig("irk", K=4, m=2)
_, _, body, store = functional_step(bruss2d(8), cfg)
pids = set()
for spec in ("pool:2", "cluster:2"):
    run_functional_step(bruss2d(8), cfg, backend=parse_backend_spec(spec))
    for _ in range(3):
        run_program(body, dict(store), backend=parse_backend_spec(spec))
        pids |= {p.pid for p in multiprocessing.active_children()}
print(json.dumps(sorted(pids)), flush=True)
if sys.argv[1] == "sigterm":
    time.sleep(120)
"""


@pytest.mark.skipif(not os.path.isdir(SHM), reason="no /dev/shm to inspect")
@pytest.mark.parametrize("how", ["exit", "sigterm"])
def test_no_worker_or_segment_outlives_its_interpreter(how):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = set(os.listdir(SHM))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, how], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        workers = json.loads(child.stdout.readline())
        assert len(workers) == 4  # a pool crew and a cluster crew, both kept
        if how == "sigterm":
            child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert child.returncode == (143 if how == "sigterm" else 0), err
    assert not [pid for pid in workers if alive(pid)]
    assert set(os.listdir(SHM)) == before
    assert "resource_tracker" not in err and "leaked" not in err, err
