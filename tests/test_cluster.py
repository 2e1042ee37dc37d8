"""Tests for the elastic cluster backend (its serial bit-identity cells
live in ``test_backends.TestSerialPoolEquivalence``): spec parsing,
SIGKILL-driven requeues, heartbeat-timeout failure detection, work
stealing, exactly-once result dedup, dispatch deadlines, elastic joins,
stranded batches, journal resume, remote speculation races, and the
failure modes of a coordinator that runs on the driver's own thread (a
peer stalled mid-frame, a driver away past the heartbeat timeout, no
event loop and no second thread, an external worker joining mid-run)."""

import collections
import os
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import TaskGraph
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import Instrumentation
from repro.ode import MethodConfig, bruss2d
from repro.recovery import SpeculationPolicy
from repro.runtime import (
    ClusterBackend,
    ProcessPoolBackend,
    SerialBackend,
    parse_backend_spec,
    run_program,
)
from repro.runtime.backends.cluster import _CoordJob, _Coordinator, _Member
from repro.runtime.backends.base import RunContext
from repro.runtime.backends.wire import send_message

from tests.test_backends import FAULTY, functional_step, summarize, task
from tests.test_obs import gauges


# ----------------------------------------------------------------------
# backend-spec parsing
# ----------------------------------------------------------------------
class TestParseClusterSpec:
    def test_cluster_default_workers(self):
        backend = parse_backend_spec("cluster")
        assert isinstance(backend, ClusterBackend)
        assert backend.workers is None

    def test_cluster_with_worker_count(self):
        backend = parse_backend_spec("cluster:3")
        assert isinstance(backend, ClusterBackend)
        assert backend.workers == 3

    @pytest.mark.parametrize("spec", ["cluster:0", "cluster:-2", "cluster:x",
                                      "cluster:2:3", "clusterx"])
    def test_invalid_cluster_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_error_message_names_all_backends(self):
        with pytest.raises(ValueError, match="cluster"):
            parse_backend_spec("threads")


# ----------------------------------------------------------------------
# SIGKILL mid-batch: requeue onto the survivors, stay bit-identical
# ----------------------------------------------------------------------
class TestWorkerKill:
    def test_killed_worker_requeues_bit_identically(self):
        body, store = functional_step(MethodConfig("irk", K=4, m=3))
        serial = run_program(body, dict(store), **FAULTY)
        obs = Instrumentation()
        cluster = run_program(
            body, dict(store), obs=obs,
            backend=ClusterBackend(workers=3, chaos_kill=(1, 2)),
            **FAULTY,
        )
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.worker_losses") >= 1
        crashes = obs.records_of("worker_crash")
        assert crashes and crashes[0]["backend"] == "cluster"
        assert crashes[0]["worker"] == 1
        # the survivors, as the loss left them
        assert gauges(obs)["backend_workers{backend=cluster}"].value == 2.0

    def test_kill_worker_holding_work_requeues_it(self):
        """A worker killed while tasks sit in its queue requeues them."""
        body, store = functional_step(MethodConfig("pabm", K=4, m=2))
        serial = run_program(body, dict(store))
        obs = Instrumentation()
        cluster = run_program(
            body, dict(store), obs=obs,
            # the victim straggles, guaranteeing it holds undone work
            backend=ClusterBackend(
                workers=2, worker_delay={1: 0.2}, chaos_kill=(1, 1),
                poll_interval=0.005,
            ),
        )
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.worker_losses") == 1.0
        assert obs.counter("cluster.requeues") >= 1

    def test_killing_the_only_holder_of_a_cached_array_loses_nothing(self):
        """Worker 0 runs the first tasks, so their outputs are cached in
        its table and nowhere else; it is killed, and worker 1 -- whose
        table holds none of them -- gets the bytes from the parent."""
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        serial = run_program(body, dict(store))

        class Spy(ClusterBackend):
            def _maybe_chaos_kill(self):
                if not self._chaos_fired and self._gathered >= 2:
                    held.update({m.wid: set(m.held) for m in self._coord.members.values()})
                super()._maybe_chaos_kill()

        held = {}
        obs = Instrumentation()
        backend = Spy(workers=2, worker_delay={1: 0.3}, chaos_kill=(0, 2),
                      poll_interval=0.005)
        cluster = run_program(body, dict(store), obs=obs, backend=backend)
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.worker_losses") == 1.0
        # at the kill, worker 0 held the outputs of the first two jobs,
        # some of them cached nowhere else
        produced = {t for t in held[0] if isinstance(t, tuple)}
        assert {jid for jid, _ in produced} >= {0, 1}
        assert produced - held[1]

    def test_lost_worker_records_the_dispatch_attempt_it_lost(self):
        """White-box: a ``worker_crash`` row names the dispatch attempt
        that died with the worker -- 0 on first dispatch, 1 for a job
        requeued once and lost again."""
        backend = ClusterBackend(workers=3)
        obs = Instrumentation()
        backend._run = RunContext(graph=TaskGraph(), obs=obs)
        coord = _Coordinator(
            heartbeat_timeout=60.0, dispatch_retry=None,
            results=collections.deque(), events=backend._events,
        )
        coord._send = lambda member, frame: None
        coord._drop = lambda sock: None
        coord.members = {wid: _Member(wid, 100 + wid, sock=None) for wid in range(3)}
        coord.submit([{"job": 0, "name": "t", "arrays": {}}])
        assert coord.members[0].inflight == 0
        coord._mark_lost(coord.members[0], "connection lost")
        assert coord.members[1].inflight == 0  # requeued, dispatch attempt 1
        coord._mark_lost(coord.members[1], "connection lost")
        backend._drain_events()
        rows = [(c["worker"], c["in_flight"]) for c in obs.records_of("worker_crash")]
        assert rows == [
            (0, [{"task": "t", "attempt": 0}]),
            (1, [{"task": "t", "attempt": 1}]),
        ]
        assert obs.counter("cluster.worker_losses") == 2.0


# ----------------------------------------------------------------------
# heartbeat-timeout failure detection
# ----------------------------------------------------------------------
class TestHeartbeatFailureDetection:
    def _open_backend(self, **kw):
        graph, _ = functional_step(MethodConfig("irk", K=4, m=2))
        backend = ClusterBackend(workers=2, **kw)
        run = RunContext(graph=graph, obs=Instrumentation())
        backend.open(run)
        return backend

    def test_silent_member_is_declared_lost(self):
        """A member that joins but never heartbeats dies of timeout."""
        backend = self._open_backend(heartbeat_timeout=0.3)
        try:
            host, port = backend.coordinator_address
            sock = socket.create_connection((host, port))
            try:
                send_message(sock, {"type": "hello", "worker": 99, "pid": 0})
                deadline = time.monotonic() + 5.0
                while backend._coord.alive_count() < 3:
                    assert time.monotonic() < deadline, "fake member never joined"
                    time.sleep(0.01)
                # it joined; now it stays silent past the timeout
                deadline = time.monotonic() + 5.0
                while backend._coord.alive_count() > 2:
                    assert time.monotonic() < deadline, "silent member not detected"
                    time.sleep(0.01)
                backend._drain_events()
                crashes = backend._run.obs.records_of("worker_crash")
                assert any(
                    c["worker"] == 99 and "heartbeat" in c["reason"]
                    for c in crashes
                )
            finally:
                sock.close()
        finally:
            backend.close()

    def test_connection_drop_is_detected_immediately(self):
        """A closed connection is a loss without waiting for the timeout."""
        backend = self._open_backend(heartbeat_timeout=60.0)
        try:
            host, port = backend.coordinator_address
            sock = socket.create_connection((host, port))
            send_message(sock, {"type": "hello", "worker": 99, "pid": 0})
            deadline = time.monotonic() + 5.0
            while backend._coord.alive_count() < 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            sock.close()
            deadline = time.monotonic() + 5.0
            while backend._coord.alive_count() > 2:
                assert time.monotonic() < deadline, "dropped member not detected"
                time.sleep(0.01)
        finally:
            backend.close()

    def test_duplicate_worker_id_is_rejected(self):
        backend = self._open_backend()
        try:
            host, port = backend.coordinator_address
            alive = backend._coord.alive_count()
            taken = min(worker_pids(backend))
            sock = socket.create_connection((host, port))
            try:
                send_message(sock, {"type": "hello", "worker": taken, "pid": 0})
                obs = backend._run.obs
                deadline = time.monotonic() + 5.0
                while not obs.counter("cluster.rejected_joins"):
                    assert time.monotonic() < deadline, "refused join left no trace"
                    time.sleep(0.01)
                    backend._coord.step(0.0)
                    backend._drain_events()
                assert obs.counter("cluster.rejected_joins") == 1
                assert backend._coord.alive_count() == alive
            finally:
                sock.close()
        finally:
            backend.close()


# ----------------------------------------------------------------------
# work stealing
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_idle_worker_steals_from_straggler_backlog(self):
        body, store = functional_step(MethodConfig("pabm", K=8, m=2))
        serial = run_program(body, dict(store))
        obs = Instrumentation()
        cluster = run_program(
            body, dict(store), obs=obs,
            backend=ClusterBackend(
                workers=2, worker_delay={1: 0.1}, poll_interval=0.005
            ),
        )
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.steals") >= 1
        # a stolen job names inputs the thief's table may lack: the
        # bytes went with it, and only then
        reused = gauges(obs)["backend_arrays_reused_total{backend=cluster}"].value
        shipped = gauges(obs)[
            "backend_bytes_shipped_total{backend=cluster,direction=to_workers}"
        ].value
        assert reused > 0 and shipped > 0

    def test_dispatch_ships_bytes_only_for_what_the_target_lacks(self):
        """White-box: the frame is cut for the member it finally goes to."""
        coord = _Coordinator(
            heartbeat_timeout=60.0, dispatch_retry=None,
            results=collections.deque(), events=collections.deque(),
        )
        sent = []
        coord._send = lambda member, frame: sent.append((member.wid, frame))
        owner = _Member(0, 100, sock=None)
        thief = _Member(1, 101, sock=None)
        coord.members = {0: owner, 1: thief}
        a, b = np.ones(4), np.ones(8)
        frame = {"type": "task", "job": 5, "name": "t",
                 "values": {"x": 0, "y": (3, "s")}, "arrays": {0: a, (3, "s"): b}}
        owner.held = {(3, "s")}
        coord.jobs[5] = _CoordJob(5, frame)
        coord._dispatch(owner, 5)
        coord._dispatch(thief, 5)   # the same job, stolen / requeued
        coord._dispatch(thief, 5)   # and once more: now it holds both
        (_, to_owner), (_, to_thief), (_, again) = sent
        assert list(to_owner["new"]) == [0] and to_owner["new"][0] is a
        assert list(to_thief["new"]) == [0, (3, "s")]
        assert again["new"] == {} and again["values"] == frame["values"]
        assert "arrays" not in to_owner and "arrays" in coord.jobs[5].frame
        assert owner.held == thief.held == {0, (3, "s")}
        shipped = [e[1:] for e in coord.events if e[0] == "shipped"]
        assert shipped == [(32, 1), (96, 0), (0, 2)]

    def test_jobs_are_placed_where_their_input_bytes_are(self):
        """White-box: most held bytes wins; round-robin on ties."""
        coord = _Coordinator(
            heartbeat_timeout=60.0, dispatch_retry=None,
            results=collections.deque(), events=collections.deque(),
        )
        coord._pump = lambda member: None  # queue only
        m0, m1 = _Member(0, 100, sock=None), _Member(1, 101, sock=None)
        coord.members = {0: m0, 1: m1}
        small, big = np.ones(2), np.ones(100)
        m0.held, m1.held = {"small"}, {"big"}

        def frame(jid, **arrays):
            return {"job": jid, "name": f"t{jid}", "arrays": arrays}

        coord.submit([
            frame(0, small=small),            # only worker 0 holds its input
            frame(1, small=small, big=big),   # worker 1 holds more of it
            frame(2, other=np.ones(3)),       # nobody: round-robin turn 2 % 2
            frame(3, other=np.ones(3)),       # nobody: round-robin turn 3 % 2
            frame(4, small=small),            # locality beats the turn (4 % 2)
            frame(5, big=big),
        ])
        assert list(m0.queue) == [0, 2, 4]
        assert list(m1.queue) == [1, 3, 5]

    def test_steal_takes_the_victims_tail(self):
        """White-box: the thief steals from the tail, the owner keeps
        the head it is about to work on."""
        coord = _Coordinator(
            heartbeat_timeout=60.0, dispatch_retry=None,
            results=collections.deque(), events=collections.deque(),
        )
        victim = _Member(0, 100, sock=None)
        thief = _Member(1, 101, sock=None)
        coord.members = {0: victim, 1: thief}
        for jid, name in enumerate(["a", "b", "c"]):
            coord.jobs[jid] = _CoordJob(jid, {"job": jid, "name": name})
            victim.queue.append(jid)
        assert coord._next_for(thief) == 2  # "c", the tail
        assert thief.steals == 1
        assert list(victim.queue) == [0, 1]
        assert ("steal", 1, 0, "c") in coord.events


# ----------------------------------------------------------------------
# exactly-once: duplicate results are dropped, not committed twice
# ----------------------------------------------------------------------
class TestExactlyOnceDedup:
    def test_second_result_for_a_job_is_dropped(self):
        results: collections.deque = collections.deque()
        events: collections.deque = collections.deque()
        coord = _Coordinator(
            heartbeat_timeout=60.0, dispatch_retry=None,
            results=results, events=events,
        )
        first = _Member(0, 100, sock=None)
        second = _Member(1, 101, sock=None)
        coord.members = {0: first, 1: second}
        coord.jobs[7] = _CoordJob(7, {"job": 7, "name": "t"})
        first.inflight = 7
        second.inflight = 7  # the same job, requeued after a deadline

        coord._on_result(first, {"job": 7, "attempt": 0, "payload": {}})
        coord._on_result(second, {"job": 7, "attempt": 1, "payload": {}})

        assert len(results) == 1  # exactly one commit candidate
        kind, jid, wid, attempt, payload = results.popleft()
        assert (kind, jid, wid) == ("result", 7, 0)
        assert ("duplicate", "t", 1) in events

    def test_duplicate_counter_and_record_surface_in_obs(self):
        backend = ClusterBackend(workers=2)
        graph, _ = functional_step(MethodConfig("irk", K=4, m=2))
        obs = Instrumentation()
        backend._run = RunContext(graph=graph, obs=obs)
        backend._events.append(("duplicate", "t", 1))
        backend._drain_events()
        assert obs.counter("cluster.duplicate_results") == 1.0
        rec = obs.records_of("duplicate_result")
        assert rec and rec[0]["task"] == "t" and rec[0]["backend"] == "cluster"


# ----------------------------------------------------------------------
# dispatch deadlines
# ----------------------------------------------------------------------
class TestDispatchDeadline:
    def test_hung_dispatch_is_requeued_elsewhere(self):
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        serial = run_program(body, dict(store))
        obs = Instrumentation()
        cluster = run_program(
            body, dict(store), obs=obs,
            backend=ClusterBackend(
                workers=2,
                worker_delay={1: 0.8},
                dispatch_retry=RetryPolicy(timeout=0.2, max_retries=9,
                                           seed=3),
                poll_interval=0.005,
            ),
        )
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.dispatch_deadlines") >= 1
        assert obs.counter("cluster.requeues") >= 1

    def test_exhausted_dispatch_attempts_fail_the_run(self):
        """White-box: a job requeued past max_attempts aborts the batch."""
        results: collections.deque = collections.deque()
        coord = _Coordinator(
            heartbeat_timeout=60.0,
            dispatch_retry=RetryPolicy(timeout=0.1, max_retries=1, seed=3),
            results=results, events=collections.deque(),
        )
        member = _Member(0, 100, sock=None)
        coord.members = {0: member}
        job = _CoordJob(9, {"job": 9, "name": "t"})
        job.attempt = 1  # one redispatch already spent
        coord.jobs[9] = job
        coord._requeue(job, "dispatch deadline on worker 0")
        kind, jid, name, attempts, reason = results.popleft()
        assert (kind, name, attempts) == ("dispatch_failed", "t", 2)
        assert job.resolved


# ----------------------------------------------------------------------
# elasticity: joins mid-run, stranded when everyone is gone
# ----------------------------------------------------------------------
class TestElasticMembership:
    def test_spawn_worker_joins_at_runtime(self):
        graph, _ = functional_step(MethodConfig("irk", K=4, m=2))
        backend = ClusterBackend(workers=2)
        backend.open(RunContext(graph=graph, obs=Instrumentation()))
        try:
            wid = backend.spawn_worker()
            deadline = time.monotonic() + 10.0
            while backend._coord.alive_count() < 3:
                assert time.monotonic() < deadline, "spawned worker never joined"
                time.sleep(0.01)
            assert wid in worker_pids(backend)
            backend._drain_events()
            obs = backend._run.obs
            assert obs.counter("cluster.worker_joins") == 3.0  # 2 initial + 1
        finally:
            backend.close()

    def test_all_workers_dead_raises_stranded(self):
        class KillAll(ClusterBackend):
            """Chaos: SIGKILL every worker at the first gather poll."""

            def _maybe_chaos_kill(self):
                if not self._chaos_fired:
                    self._chaos_fired = True
                    for wid in list(worker_pids(self)):
                        self.kill_worker(wid)

        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        with pytest.raises(RuntimeError, match="every worker died"):
            run_program(
                body, dict(store),
                backend=KillAll(workers=2, poll_interval=0.005),
            )


# ----------------------------------------------------------------------
# journal resume on the cluster backend
# ----------------------------------------------------------------------
class TestClusterJournalResume:
    def test_truncated_journal_resumes_bit_identically(self, tmp_path):
        from repro.ode import run_functional_step
        from tests.test_recovery import truncate_to_task_records

        problem = bruss2d(16)
        cfg = MethodConfig("irk", K=4, m=2)
        kw = dict(faults=FaultPlan(seed=11, failure_rate=0.3),
                  retry=RetryPolicy(seed=11))

        ref_run, _, _ = run_functional_step(problem, cfg, tmp_path / "ref", **kw)
        full_run, _, _ = run_functional_step(
            problem, cfg, tmp_path / "chaos",
            backend=ClusterBackend(workers=2), **kw
        )
        assert summarize(full_run) == summarize(ref_run)

        truncate_to_task_records(tmp_path / "chaos" / "journal.jsonl", keep=5)
        res_run, summary, _ = run_functional_step(
            problem, cfg, tmp_path / "chaos", resume=True,
            backend=ClusterBackend(workers=2), **kw
        )
        assert summary["resumed_tasks"] == 5
        assert summary["backend"] == "cluster"
        assert summarize(res_run) == summarize(ref_run)


# ----------------------------------------------------------------------
# speculation races a remote straggler
# ----------------------------------------------------------------------
class TestRemoteSpeculation:
    def test_backup_beats_remote_straggler(self):
        body, store = functional_step(MethodConfig("irk", K=4, m=3))
        serial = run_program(body, dict(store))
        run = run_program(
            body, dict(store),
            speculation=SpeculationPolicy(factor=1.2, quantile=0.5,
                                          min_samples=1),
            backend=ClusterBackend(
                workers=3, worker_delay={2: 0.4}, poll_interval=0.005
            ),
        )
        wins = [s for s in run.stats.speculations if s.win]
        assert wins, "no speculative backup won against the straggler"
        # the backup ran on a worker other than the owner's, whose table
        # it cannot rely on: its tokens resolved all the same
        assert summarize(run)["variables"] == summarize(serial)["variables"]

    def test_backup_lands_on_a_different_worker(self):
        """White-box: submit_backup avoids the primary's worker."""
        coord = _Coordinator(
            heartbeat_timeout=60.0, dispatch_retry=None,
            results=collections.deque(), events=collections.deque(),
        )
        busy = _Member(0, 100, sock=None)
        idle = _Member(1, 101, sock=None)
        coord.members = {0: busy, 1: idle}
        primary = _CoordJob(3, {"job": 3, "name": "t"})
        primary.worker = 0
        busy.inflight = 3
        coord.jobs[3] = primary

        sent = []
        coord._send = lambda member, frame: sent.append((member.wid, frame["job"]))
        coord.submit_backup({"job": 4, "name": "t", "arrays": {}}, avoid_jid=3)
        assert sent == [(1, 4)] and idle.inflight == 4
        # with only the owner's worker alive it is better than nothing
        idle.alive = False
        coord.submit_backup({"job": 5, "name": "t", "arrays": {}}, avoid_jid=3)
        assert list(busy.queue) == [5]


# ----------------------------------------------------------------------
# one thread: what a blocking coordinator must not get wrong
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parent.parent
SUBPROCESS_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)])
)


def worker_pids(backend: ClusterBackend):
    """Live mapping of worker id to process id (forked workers only)."""
    return {wid: p.pid for wid, p in backend._crew.procs.items() if p.is_alive()}


def external_program():
    """``src -> w0..w7``: importable, so an external worker can run it
    (``--program tests.test_cluster:external_program``)."""
    g = TaskGraph()
    src = g.add_task(task("src", inp=["x"], out=["s"],
                          func=lambda c, v: {"s": v["x"] + 1}))

    def body(i):
        def run(ctx, values):
            time.sleep(0.05)
            return {f"o{i}": values["s"] * (i + 2)}
        return run

    for i in range(8):
        g.connect(src, g.add_task(task(f"w{i}", inp=["s"], out=[f"o{i}"],
                                       func=body(i))))
    return g


class TestCoordinatorOnTheDriversThread:
    def test_peer_stalled_mid_frame_is_lost_alone(self, monkeypatch):
        """A member that stops halfway through a frame holds the thread
        for at most ``heartbeat_timeout`` and takes nobody with it: the
        forked workers' heartbeats queued meanwhile count as life."""
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        serial = run_program(body, dict(store))
        lost = []
        mark_lost = _Coordinator._mark_lost

        def spy(coord, member, reason):
            if member.alive:
                lost.append(
                    (member.wid, reason, time.monotonic() - backend.stalled_at)
                )
            mark_lost(coord, member, reason)

        monkeypatch.setattr(_Coordinator, "_mark_lost", spy)

        class WithStalledPeer(ClusterBackend):
            def reset(self, run):
                super().reset(run)
                self.peer = socket.create_connection(self.coordinator_address)
                send_message(self.peer, {"type": "hello", "worker": 99, "pid": 0})
                self.peer.sendall(struct.pack("!I", 64) + b"abc")
                self.stalled_at = time.monotonic()

        backend = WithStalledPeer(
            workers=2, heartbeat_timeout=0.3, poll_interval=0.005,
        )
        obs = Instrumentation()
        try:
            cluster = run_program(body, dict(store), obs=obs, backend=backend)
        finally:
            backend.peer.close()
        assert summarize(cluster) == summarize(serial)
        [(worker, reason, after)] = lost
        assert (worker, reason) == (99, "heartbeat timeout")
        assert 0.25 < after < 1.5
        assert obs.counter("cluster.worker_joins") == 3.0
        assert obs.counter("cluster.worker_losses") == 1.0

    def test_queued_result_is_taken_before_its_job_is_overdue(self):
        """White-box: a member with bytes waiting is not swept -- its
        result, queued behind a heartbeat, arrives first; a member with
        nothing to say is."""
        coord = _Coordinator(
            heartbeat_timeout=60.0,
            dispatch_retry=RetryPolicy(timeout=0.05, max_retries=9, seed=3),
            results=collections.deque(), events=collections.deque(),
        )
        peer = socket.create_connection(("127.0.0.1", coord.start()))
        try:
            send_message(peer, {"type": "hello", "worker": 0, "pid": 0})
            deadline = time.monotonic() + 5.0
            while coord.alive_count() < 1:
                assert time.monotonic() < deadline
            for jid in (1, 2):
                coord.submit([{"job": jid, "name": f"t{jid}", "arrays": {}}])
                assert coord.members[0].inflight == jid
                time.sleep(0.1)  # past the dispatch deadline
                if jid == 1:  # the answer is in the socket, behind a heartbeat
                    send_message(peer, {"type": "heartbeat", "worker": 0})
                    send_message(peer, {"type": "result", "job": 1, "attempt": 0,
                                        "payload": {"outputs": None}})
                    time.sleep(0.05)
                coord.step(0.0)
                coord.step(0.0)
                tags = [e[0] for e in coord.events]
                assert ("deadline" in tags) == (jid == 2)
            assert [r[:2] for r in coord.results] == [("result", 1)]
        finally:
            peer.close()
            coord.stop()

    def test_driver_away_past_the_timeout_loses_nobody(self):
        """Nothing reads the sockets while the driver's thread is busy
        elsewhere; the heartbeats buffered meanwhile prove the workers
        alive when it comes back."""
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        serial = run_program(body, dict(store))

        class Away(ClusterBackend):
            def reset(self, run):
                super().reset(run)
                time.sleep(1.0)

        obs = Instrumentation()
        cluster = run_program(
            body, dict(store), obs=obs,
            backend=Away(workers=2, heartbeat_timeout=0.3),
        )
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.worker_losses") == 0.0

    def test_no_event_loop_and_no_second_thread(self):
        """Fresh interpreter: a cluster step imports no asyncio and runs
        with the main thread alone while a batch is in flight.  The
        program is built inline: the test helpers would bring pytest
        into the interpreter under test."""
        script = """
import sys, threading
import numpy as np
import repro.runtime
assert "asyncio" not in sys.modules, "import repro.runtime loads asyncio"
from repro.core import AccessMode, DistributionSpec, MTask, Parameter, TaskGraph
from repro.runtime import ClusterBackend, run_program

def task(name, inp, out, func):
    replic = DistributionSpec("replic")
    params = tuple(Parameter(v, AccessMode.IN, 4, dist=replic) for v in inp)
    params += tuple(Parameter(v, AccessMode.OUT, 4, dist=replic) for v in out)
    return MTask(name, params=params, func=func)

g = TaskGraph()
src = g.add_task(task("src", ["x"], ["s"], lambda c, v: {"s": v["x"] + 1}))
for i in range(4):
    g.connect(src, g.add_task(task(
        f"w{i}", ["s"], [f"o{i}"], lambda c, v, i=i: {f"o{i}": v["s"] * i})))

seen = []

class Spy(ClusterBackend):
    def poll(self, timeout):
        if self._jobs:
            seen.append([t.name for t in threading.enumerate()])
        return super().poll(timeout)

run = run_program(g, {"x": np.ones(4)}, backend=Spy(workers=2))
assert run["o3"].tolist() == [6.0] * 4
assert seen and all(names == ["MainThread"] for names in seen), seen
assert "asyncio" not in sys.modules, "a cluster step loads asyncio"
print("one thread, no loop")
"""
        done = subprocess.run(
            [sys.executable, "-c", script], env=SUBPROCESS_ENV,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "one thread, no loop"

    def test_external_worker_joins_mid_run(self):
        """``python -m repro.runtime.backends.cluster_worker`` from a
        fresh interpreter joins between two batches and runs its share."""

        class Elastic(ClusterBackend):
            external = None
            batches = 0

            def run_batch(self, tasks, prepare, commit):
                self.batches += 1
                if self.batches == 2:  # ``src`` is committed
                    host, port = self.coordinator_address
                    self.external = subprocess.Popen(
                        [sys.executable, "-m",
                         "repro.runtime.backends.cluster_worker",
                         f"{host}:{port}", "--worker-id", "7", "--program",
                         "tests.test_cluster:external_program"],
                        env=SUBPROCESS_ENV,
                    )
                    deadline = time.monotonic() + 60.0
                    while self._coord.alive_count() < 2:
                        assert time.monotonic() < deadline, "never joined"
                        assert self.external.poll() is None, "worker exited"
                        time.sleep(0.01)
                super().run_batch(tasks, prepare, commit)

        serial = run_program(external_program(), {"x": np.ones(4)})
        obs = Instrumentation()
        backend = Elastic(workers=1)
        try:
            cluster = run_program(external_program(), {"x": np.ones(4)},
                                  obs=obs, backend=backend)
            # ``stop`` reached it too: it leaves on its own
            assert backend.external.wait(timeout=10.0) == 0
        finally:
            if backend.external is not None and backend.external.poll() is None:
                backend.external.kill()
                backend.external.wait()
        assert summarize(cluster) == summarize(serial)
        assert obs.counter("cluster.worker_joins") == 2.0
        ran_on_7 = [s.meta["task"] for s in obs.spans
                    if s.name == "task" and s.meta.get("worker") == 7]
        assert ran_on_7 and set(ran_on_7) <= {f"w{i}" for i in range(8)}
