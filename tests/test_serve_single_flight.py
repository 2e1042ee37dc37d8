"""One single-flight for a cold request: identical requests share one
future from admission to response, one ``max_queue`` cap bounds compiling
and computing together, and a request whose leader never finishes gets an
answer all the same.  Also: ``SIGTERM`` stops ``python -m repro.serve``
and its pool workers."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import Response, ScheduleService, api

from tests.test_serve import decoded

SRC = Path(__file__).resolve().parents[1] / "src"


def workload_body(n=22, cores=16):
    return json.dumps(
        {"workload": {"solver": "irk", "n": n}, "topology": {"cores": cores}}
    ).encode()


PIPE = """
task a(x : vector : out : replic);
task b(x : vector : in : replic, y : vector : out : replic);
cmmain MAIN(y : vector : out : replic) {
  var x : vector;
  seq { a(x); b(x, y); }
}
"""


def dsl_body(work):
    return json.dumps(
        {
            "program": {"dsl": PIPE, "sizes": {"vector": 64}, "work": {"*": work}},
            "topology": {"cores": 16},
        }
    ).encode()


def post(svc, body, tenant="anonymous"):
    return svc.handle("POST", "/v1/schedule", body, {"X-Tenant": tenant})


def gated(monkeypatch, name, effect=None):
    """Hold ``api.<name>`` at a gate; returns the gate and the list of
    requests that reached it.  ``effect(request)``, when given, runs
    instead of the real function once the gate opens."""
    gate, calls = threading.Event(), []
    real = getattr(api, name)

    def held(request, *args):
        calls.append(request)
        assert gate.wait(timeout=10)
        return (effect or real)(request, *args)

    monkeypatch.setattr(api, name, held)
    return gate, calls


async def reached(calls, count):
    while len(calls) < count:
        await asyncio.sleep(0.001)
    await asyncio.sleep(0.01)  # everyone who will coalesce has done so


def assert_idle(svc):
    assert not svc._inflight and svc._jobs == 0


def raise_runtime_error(request, compiled=None):
    raise RuntimeError("pool fell over")


# ----------------------------------------------------------------------
# a leader that never finishes, and one admission for compile and compute
# ----------------------------------------------------------------------
class TestLeaderThatNeverFinishes:
    def test_waiter_answers_when_its_leader_is_cancelled_mid_compute(
        self, monkeypatch
    ):
        gate, calls = gated(monkeypatch, "compute_response")

        async def scenario(svc):
            leader = asyncio.ensure_future(post(svc, workload_body(), "a"))
            await reached(calls, 1)
            waiter = asyncio.ensure_future(post(svc, workload_body(), "b"))
            await asyncio.sleep(0.01)
            leader.cancel()
            gate.set()
            with pytest.raises(asyncio.CancelledError):
                await leader
            return await asyncio.wait_for(waiter, timeout=5)

        svc = ScheduleService(workers=0)
        try:
            answered = asyncio.run(scenario(svc))
        finally:
            svc.close()
        assert answered.status == 200 and answered.headers["X-Cache"] == "miss"
        assert len(calls) == 2  # the waiter led the second computation
        assert_idle(svc)

    def test_waiter_gets_a_response_when_the_leaders_compute_raises(
        self, monkeypatch
    ):
        gate, calls = gated(monkeypatch, "compute_response", raise_runtime_error)

        async def scenario(svc):
            leader = asyncio.ensure_future(post(svc, workload_body(), "a"))
            await reached(calls, 1)
            waiter = asyncio.ensure_future(post(svc, workload_body(), "b"))
            await asyncio.sleep(0.01)
            gate.set()
            return await asyncio.wait_for(
                asyncio.gather(leader, waiter, return_exceptions=True), timeout=5
            )

        svc = ScheduleService(workers=0)
        try:
            led, waited = asyncio.run(scenario(svc))
        finally:
            svc.close()
        assert isinstance(led, Response) and led.status == 500
        assert "RuntimeError" in decoded(led)["error"]["message"]
        assert isinstance(waited, Response), waited
        assert waited.status == 500  # it led a retry, which met the same pool
        assert_idle(svc)


class TestOneAdmission:
    def test_the_queue_cap_bounds_compiling(self, monkeypatch):
        gate, calls = gated(monkeypatch, "compile_request")

        async def scenario(svc):
            handlers = [
                asyncio.ensure_future(post(svc, dsl_body(1e4 * (i + 1))))
                for i in range(40)
            ]
            await reached(calls, 2)
            gate.set()
            return await asyncio.wait_for(asyncio.gather(*handlers), timeout=10)

        svc = ScheduleService(workers=0, max_queue=2)
        try:
            responses = asyncio.run(scenario(svc))
        finally:
            svc.close()
        assert len(calls) == 2
        statuses = sorted(r.status for r in responses)
        assert statuses == [200] * 2 + [429] * 38
        assert_idle(svc)


# ----------------------------------------------------------------------
# interleavings: leaders that answer, fail, raise or are cancelled
# ----------------------------------------------------------------------
SIZES = (20, 22, 24)  #: one program per workload size
PROGRAMS = [workload_body(n) for n in SIZES]
OUTCOMES = ("ok", "unschedulable", "raises", "cancelled")


class Admissions(dict):
    """The service's table of futures, counting the entries created."""

    created = 0

    def __setitem__(self, key, value):
        self.created += 1
        super().__setitem__(key, value)


@settings(max_examples=25, deadline=None)
@given(
    programs=st.lists(st.integers(0, len(PROGRAMS) - 1), min_size=2, max_size=8),
    outcomes=st.lists(st.sampled_from(OUTCOMES), max_size=8),
)
def test_single_flight_interleavings(programs, outcomes):
    calls = []  # (workload n, gate) per compute call, in arrival order
    lock = threading.Lock()
    real_compute = api.compute_response

    def outcome_of(index):
        return outcomes[index] if index < len(outcomes) else "ok"

    def compute(request, compiled=None):
        gate = threading.Event()
        with lock:
            index = len(calls)
            calls.append((request["workload"]["n"], gate))
        assert gate.wait(timeout=10)
        outcome = outcome_of(index)
        if outcome == "unschedulable":
            return {"error": {"code": "unschedulable", "message": "drawn"}, "status": 422}
        if outcome == "raises":
            raise RuntimeError("drawn")
        return real_compute(request, compiled)

    async def scenario(svc):
        program_of, leader_of = {}, {}
        make_pool = svc._pool

        def pool():  # called by a leader right before it computes
            task = asyncio.current_task()
            leader_of[program_of[task]] = task
            return make_pool()

        svc._pool = pool
        handlers = []
        for index, program in enumerate(programs):
            handler = asyncio.ensure_future(post(svc, PROGRAMS[program], f"t{index}"))
            program_of[handler] = SIZES[program]
            handlers.append(handler)
        released, cancelled = 0, set()
        deadline = time.monotonic() + 10
        while not all(h.done() for h in handlers):
            assert time.monotonic() < deadline, "a handler never answered"
            await asyncio.sleep(0.002)
            for n, gate in calls[released:]:
                if outcome_of(released) == "cancelled":
                    leader_of[n].cancel()
                    cancelled.add(leader_of[n])
                gate.set()
                released += 1
        return handlers, cancelled

    svc = ScheduleService(workers=0)
    svc._inflight = Admissions()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(api, "compute_response", compute)
        try:
            handlers, cancelled = asyncio.run(scenario(svc))
        finally:
            svc.close()

    bodies = {}
    for handler, program in zip(handlers, programs):
        if handler in cancelled:
            continue
        assert not handler.cancelled()
        response = handler.result()
        assert isinstance(response, Response)
        assert response.status in (200, 422, 500)
        if response.status == 200:
            bodies.setdefault(program, set()).add(response.body)
    assert all(len(distinct) == 1 for distinct in bodies.values())
    assert len(calls) <= svc._inflight.created
    assert_idle(svc)


# ----------------------------------------------------------------------
# SIGTERM stops the server and its pool workers
# ----------------------------------------------------------------------
def children_of(pid):
    """Pids whose parent is ``pid`` (read from ``/proc``)."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry.name))
    return found


def catches_sigterm(pid):
    """Whether ``pid`` has a handler for SIGTERM (``/proc/<pid>/status``)."""
    status = Path(f"/proc/{pid}/status").read_text()
    caught = int(status.split("SigCgt:")[1].split()[0], 16)
    return bool(caught >> (signal.SIGTERM - 1) & 1)


def alive(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_stops_the_server_and_its_workers():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workers = []
    with subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    ) as server:
        try:
            url = server.stdout.readline().strip().rsplit(" ", 1)[-1]
            assert url.startswith("http://"), url
            request = urllib.request.Request(url + "/v1/schedule", data=workload_body())
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                assert response.headers["X-Cache"] == "miss"
            workers = children_of(server.pid)
            assert workers
            # the server turns SIGTERM into Ctrl-C; a worker must still die
            # of it, as ``terminate`` of a broken pool expects
            assert catches_sigterm(server.pid)
            assert not any(catches_sigterm(pid) for pid in workers)
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
            assert [pid for pid in workers if alive(pid)] == []
        finally:
            if server.poll() is None:
                server.kill()
            for pid in workers:  # leave no orphan behind, whatever failed
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
