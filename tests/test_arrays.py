"""The data plane of the worker transports: every array ships once.

Unit tests of the ledger, the arena and the wire layer; the pool's real
submit/poll path driven with in-process "workers" so that arrivals are
scripted (``ScriptedPool``); and the real pool and cluster counted
through the ``backend_bytes_shipped_total`` / ``backend_arrays_reused_total``
gauges.  Every test that creates shared memory asserts ``/dev/shm`` is
back to what it was."""

import collections
import gc
import os
import pickle
import queue
import socket
import struct
import sys
import threading
import weakref
from multiprocessing import resource_tracker

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TaskGraph
from repro.obs import Instrumentation
from repro.ode import MethodConfig
from repro.runtime import ClusterBackend, ProcessPoolBackend, run_program
from repro.runtime.backends import cluster_worker, wire
from repro.runtime.backends.arrays import (
    _TRACKER_LOCK,
    Arena,
    ArrayLedger,
    _attach,
    declared_bytes,
)
from repro.runtime.backends.pool import _PoolCrew, _execute

from tests.test_backends import FAULTY, functional_step, summarize, task
from tests.test_obs import gauges


SHM = "/dev/shm"
needs_shm = pytest.mark.skipif(not os.path.isdir(SHM), reason="no /dev/shm to inspect")


@pytest.fixture
def shm_clean():
    """Fail the test if it leaves a shared-memory segment behind."""
    before = set(os.listdir(SHM)) if os.path.isdir(SHM) else set()
    yield
    after = set(os.listdir(SHM)) if os.path.isdir(SHM) else set()
    assert after - before == set()


def gauge(obs, name, backend, **labels):
    labels = dict(labels, backend=backend)
    key = name + "{" + ",".join(f"{k}={labels[k]}" for k in sorted(labels)) + "}"
    return gauges(obs)[key].value


def fan_graph(width):
    """``src -> w0..w{width-1} -> sink``; every ``w`` reads ``s`` and ``x``."""
    g = TaskGraph()
    src = g.add_task(task("src", inp=["x"], out=["s"],
                          func=lambda c, v: {"s": v["x"] + 1}))
    outs = [f"o{i}" for i in range(width)]
    sink = g.add_task(task("sink", inp=outs, out=["r"],
                           func=lambda c, v: {"r": sum(v[o] for o in outs)}))
    for i, out in enumerate(outs):
        t = g.add_task(task(f"w{i}", inp=["s", "x"], out=[out],
                            func=lambda c, v, i=i: {f"o{i}": v["s"] * (i + 2) + v["x"]}))
        g.connect(src, t)
        g.connect(t, sink)
    return g


def oversize_graph(width, size):
    """A fan whose every variable is a declared scalar -- and whose
    ``o<i>`` come back ``size`` elements long (the executor checks the
    size only of outputs declared with more than one element)."""
    g = TaskGraph()
    src = g.add_task(task("src", inp=["x"], out=["s"], elements=1,
                          func=lambda c, v: {"s": v["x"] + 1}))
    outs = [f"o{i}" for i in range(width)]
    sink = g.add_task(task("sink", inp=outs, out=["r"], elements=1,
                           func=lambda c, v: {"r": sum(v[o][-1:] for o in outs)}))
    for i, out in enumerate(outs):
        t = g.add_task(task(f"w{i}", inp=["s"], out=[out], elements=1,
                            func=lambda c, v, i=i: {f"o{i}": np.arange(size) * v["s"][0] + i}))
        g.connect(src, t)
        g.connect(t, sink)
    return g


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
class TestArrayLedger:
    def test_identity_not_content_is_the_key(self):
        ledger = ArrayLedger()
        a, twin = np.ones(4), np.ones(4)
        ledger.add(a, "A")
        assert ledger.get(a) == "A"
        assert ledger.get(twin) is None  # equal bytes, another array

    def test_held_arrays_cannot_be_mutated_until_cleared(self):
        ledger = ArrayLedger()
        a = np.ones(4)
        frozen = np.ones(4)
        frozen.flags.writeable = False
        ledger.add(a, 0)
        ledger.add(frozen, 1)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2.0
        ledger.clear()
        a[0] = 2.0  # thawed
        assert not frozen.flags.writeable  # was read-only before, stays so
        assert ledger.get(a) is None and ledger.get(frozen) is None


# ----------------------------------------------------------------------
# the arena
# ----------------------------------------------------------------------
@needs_shm
class TestArena:
    def test_put_view_round_trip_between_two_owners(self, shm_clean):
        prefix = Arena.new_prefix()
        parent, worker = Arena(prefix, "p", 4096), Arena(prefix, "0", 4096)
        try:
            arrays = [np.arange(12.0).reshape(3, 4), np.empty((0, 3)),
                      np.array([7], dtype=np.int32)]
            descs = [parent.put(a) for a in arrays]
            assert all(off % 64 == 0 for _, off, _, _ in descs)
            for a, desc in zip(arrays, descs):
                got = worker.view(desc)
                assert got.dtype == a.dtype and got.shape == a.shape
                np.testing.assert_array_equal(got, a)
                assert not got.flags.writeable
            back = parent.view(worker.put(arrays[0] * 2))
            np.testing.assert_array_equal(back, arrays[0] * 2)
            del got, back
        finally:
            worker.close()
            parent.destroy(["p", "0"])

    def test_grows_by_whole_chunks_when_something_does_not_fit(self, shm_clean):
        prefix = Arena.new_prefix()
        arena = Arena(prefix, "p", 1024)
        try:
            small = [arena.put(np.full(64, float(i))) for i in range(3)]  # 512 B each
            huge = arena.put(np.arange(1000.0))  # 8000 B > chunk_bytes
            names = sorted(n for n in os.listdir(SHM) if n.startswith(prefix))
            assert names == [f"{prefix}p-{k}" for k in range(3)]
            assert [d[0] for d in small] == [names[0], names[0], names[1]]
            assert huge[0] == names[2]
            assert os.path.getsize(os.path.join(SHM, names[2])) == 8000
            np.testing.assert_array_equal(arena.view(huge), np.arange(1000.0))
        finally:
            arena.destroy(["p"])

    def test_destroy_finds_chunks_nobody_reported(self, shm_clean):
        prefix = Arena.new_prefix()
        parent, lost = Arena(prefix, "p", 1024), Arena(prefix, "1", 1024)
        parent.put(np.ones(4))
        lost.put(np.ones(4))
        lost.grow(5000)  # two chunks the parent never saw a descriptor of
        lost.close()
        parent.destroy(["p", "0", "1"])  # owner "0" never created anything

    def test_a_chunk_created_during_an_attach_is_registered(self, shm_clean, monkeypatch):
        """One thread attaches in a loop while another creates chunks:
        each created chunk is registered with the resource tracker
        exactly once (before Python 3.13 an attach swaps the tracker's
        ``register`` for a no-op, process-wide)."""
        prefix = Arena.new_prefix()
        seen, maker = Arena(prefix, "p", 64), Arena(prefix, "1", 64)
        seen.grow()
        registered = []
        register = resource_tracker.register
        monkeypatch.setattr(resource_tracker, "register",
                            lambda name, rtype: registered.append(name.lstrip("/"))
                            or register(name, rtype))
        stop = threading.Event()

        def attach():
            while not stop.is_set():
                _attach(f"{prefix}p-0").close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        attacher = threading.Thread(target=attach)
        attacher.start()
        try:
            for _ in range(300):
                maker.grow()
        finally:
            stop.set()
            attacher.join(timeout=60)
            sys.setswitchinterval(interval)
            maker.close()
            seen.destroy(["p", "1"])
        assert not attacher.is_alive()
        created = [f"{prefix}1-{k}" for k in range(300)]
        counts = collections.Counter(registered)
        assert [counts[name] for name in created] == [1] * 300

    def test_fork_waits_for_the_tracker_lock(self):
        """A fork while another thread holds ``_TRACKER_LOCK`` with the
        tracker's ``register`` swapped out, as ``_attach`` does, waits
        for the lock: the child can take it and has the real
        ``register``."""
        register = resource_tracker.register
        held, release = threading.Event(), threading.Event()

        def hold():
            with _TRACKER_LOCK:
                resource_tracker.register = lambda *a, **k: None
                held.set()
                release.wait(10)
                resource_tracker.register = register

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            ok = (_TRACKER_LOCK.acquire(timeout=2.0)
                  and resource_tracker.register is register)
            os._exit(0 if ok else 1)
        release.set()
        holder.join(10)
        timer.cancel()
        _, status = os.waitpid(pid, 0)
        assert not holder.is_alive()
        assert os.waitstatus_to_exitcode(status) == 0

    def test_declared_bytes_covers_every_parameter(self):
        graph = fan_graph(3)
        # 4-element float64 parameters, 64-byte aligned: src 2, w 3x3, sink 4
        assert declared_bytes(graph) == (2 + 9 + 4) * 64


# ----------------------------------------------------------------------
# the wire layer
# ----------------------------------------------------------------------
class TestWire:
    MESSAGE = {
        "type": "task", "n": 3,
        "values": {"a": np.arange(100000.0), "e": np.empty((0, 3)),
                   "i": np.arange(6, dtype=np.int32).reshape(2, 3)},
        "nested": [np.ones(2), (np.zeros(1),)],
    }

    def test_round_trip_is_one_owned_copy(self):
        meta, chunks = wire.pack(self.MESSAGE)
        # 800 000 bytes -> four chunks; the empty array has none
        assert [len(c) for c in chunks] == [262144] * 3 + [13568, 24, 16, 8]
        assert all(isinstance(c, memoryview) for c in chunks)  # no copy yet
        got = wire.unpack(meta, chunks)
        for key, arr in self.MESSAGE["values"].items():
            out = got["values"][key]
            assert out.dtype == arr.dtype and out.shape == arr.shape
            np.testing.assert_array_equal(out, arr)
            assert out.flags.owndata and out.flags.writeable
            assert not np.shares_memory(out, arr)
        np.testing.assert_array_equal(got["nested"][1][0], np.zeros(1))
        assert got["type"] == "task" and got["n"] == 3

    def test_byte_layout_is_the_documented_one(self):
        """[len][meta][count] then [len][chunk] per chunk, big-endian."""
        sent = []

        class Sock:
            def sendall(self, data):
                sent.append(bytes(data))

        wire.send_message(Sock(), self.MESSAGE)
        meta, chunks = wire.pack(self.MESSAGE)
        expected = struct.pack("!I", len(meta)) + meta + struct.pack("!I", len(chunks))
        for chunk in chunks:
            expected += struct.pack("!I", len(chunk)) + bytes(chunk)
        assert b"".join(sent) == expected
        # one call for the whole 800 KB message, not one per part
        assert len(sent) == 1

    def test_large_messages_go_out_a_bounded_piece_at_a_time(self):
        sent = []

        class Sock:
            def sendall(self, data):
                sent.append(len(data))

        wire.send_message(Sock(), {"big": np.zeros(600_000)})  # 4.8 MB
        assert len(sent) == 5
        assert max(sent) <= wire.COALESCE_BYTES + wire.ARRAY_CHUNK_BYTES + 1024

    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        try:
            sender = threading.Thread(target=wire.send_message, args=(a, self.MESSAGE))
            sender.start()
            got = wire.recv_message(b)
            sender.join(timeout=10)
            assert not sender.is_alive()
            np.testing.assert_array_equal(got["values"]["a"], self.MESSAGE["values"]["a"])
            a.close()
            with pytest.raises(EOFError):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()

    def _recv(self, raw: bytes):
        a, b = socket.socketpair()
        try:
            a.sendall(raw)
            a.close()
            return wire.recv_message(b)
        finally:
            b.close()

    def test_oversized_chunk_and_meta_are_refused(self):
        meta = pickle.dumps({})
        too_long = wire.ARRAY_CHUNK_BYTES + 1
        with pytest.raises(wire.WireError, match="chunk bound"):
            self._recv(struct.pack("!I", len(meta)) + meta + struct.pack("!II", 1, too_long))
        with pytest.raises(wire.WireError, match="sanity bound"):
            self._recv(struct.pack("!I", wire.MAX_META_BYTES + 1))

    def test_chunks_that_do_not_add_up_are_refused(self):
        meta, chunks = wire.pack({"a": np.arange(4.0)})
        with pytest.raises(wire.WireError, match="32 bytes arrived as 31"):
            wire.unpack(meta, [bytes(chunks[0])[:-1]])


# ----------------------------------------------------------------------
# the pool's data plane with scripted arrivals
# ----------------------------------------------------------------------
class _Inbox(queue.Queue):
    """A ``queue.Queue`` with the two teardown calls of a multiprocessing one."""

    def cancel_join_thread(self):
        pass

    def close(self):
        pass


class _Jobs(_Inbox):
    def __init__(self, on_put):
        super().__init__()
        self.put = on_put


class _InProcessWorker:
    """What ``ProcessPoolBackend`` asks of a worker process, minus the process."""

    pid = exitcode = None

    def is_alive(self):
        return True

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class _InProcessCrew(_PoolCrew):
    """A pool crew bound to the one scripted backend that forked it."""

    def whole(self):
        return False

    def stop(self):
        super().stop()
        for arena in self.worker_arenas:
            arena.close()


class ScriptedPool(ProcessPoolBackend):
    """The pool's submit / poll / reset / end, ledger and arena -- unchanged --
    with the worker side (``pool._execute``, one ``Arena`` per worker) run
    in this process the moment a job is enqueued.  ``route(backend, result)``
    decides when each result reaches the result queue."""

    def __init__(self, route=None, workers=2):
        super().__init__(workers=workers, poll_interval=0.0)
        self.route = route or (lambda backend, result: backend._crew.outq.put(result))
        self.parent_puts = []

    def fork(self, run, bodies):
        def on_put(msg):
            if msg[0] != "task":
                return
            wid = msg[1] % self.workers
            prefix, chunk_bytes = msg[-1]
            if crew.worker_arenas[wid].prefix != prefix:
                crew.worker_arenas[wid] = Arena(prefix, str(wid), chunk_bytes)
            result = _execute(crew.worker_arenas[wid], bodies, run.faults, run.retry, msg)
            self.route(self, ("result", msg[1], wid, result))

        crew = self.forked = _InProcessCrew(self.workers, _Jobs(on_put), _Inbox())
        crew.procs = [_InProcessWorker() for _ in range(self.workers)]
        crew.worker_arenas = [Arena("", str(w), 0) for w in range(self.workers)]
        return crew

    def reset(self, run):
        super().reset(run)
        arena = self._crew.arena
        self.prefix = arena.prefix
        put = arena.put
        arena.put = lambda arr: self.parent_puts.append(arr) or put(arr)

    def idle(self, waiting):
        assert False, "a scripted result was never routed"


@needs_shm
class TestPoolDataPlane:
    def test_an_array_read_by_k_tasks_is_written_once(self, shm_clean):
        width = 6
        x = np.arange(4.0)
        serial = run_program(fan_graph(width), {"x": x})
        obs = Instrumentation()
        backend = ScriptedPool()
        run = run_program(fan_graph(width), {"x": x}, obs=obs, backend=backend)
        assert summarize(run) == summarize(serial)
        # x is read by src and by all six w: the parent wrote it once and
        # wrote nothing else -- s and every o<i> were already in the
        # arena, put there by the worker that produced them
        assert len(backend.parent_puts) == 1
        assert gauge(obs, "backend_bytes_shipped_total", "pool", direction="to_workers") == x.nbytes
        reads = 1 + 2 * width + width  # src, the w's, sink
        assert gauge(obs, "backend_arrays_reused_total", "pool") == reads - 1
        produced = (1 + width + 1) * x.nbytes
        assert gauge(obs, "backend_bytes_shipped_total", "pool", direction="to_parent") == produced

    def test_results_are_thawed_and_the_ledger_dropped_at_close(self, shm_clean):
        backend = ScriptedPool()
        run = run_program(fan_graph(3), {"x": np.ones(4)}, backend=backend)
        assert not backend._ledger._entries and backend._crew is None
        assert backend.forked.arena is None
        for arr in run.variables.values():
            assert arr.flags.writeable and arr.flags.owndata

    def test_store_entries_are_read_only_while_the_transport_holds_them(self, shm_clean):
        """The identity key rests on "entries are replaced, never
        mutated"; the ledger turns a violation into an error."""
        backend = ScriptedPool()
        attempts = []

        def route(b, result):
            x = b.parent_puts[0]
            try:
                x[0] = 99.0
            except ValueError as exc:
                attempts.append(str(exc))
            b._crew.outq.put(result)

        backend.route = route
        run_program(fan_graph(2), {"x": np.ones(4)}, backend=backend)
        assert len(attempts) == 4 and all("read-only" in msg for msg in attempts)
        backend.parent_puts[0][0] = 99.0  # thawed once the run is over

    def test_an_output_larger_than_declared_grows_the_arena(self, shm_clean):
        """Three 40 KB outputs do not fit the chunk sized from the
        declaration (twelve scalars): the worker's arena grows."""
        graph = oversize_graph(3, 5000)
        assert declared_bytes(graph) == 12 * 64
        serial = run_program(oversize_graph(3, 5000), {"x": np.ones(1)})
        chunks = []

        def route(backend, result):
            chunks.append(sorted(n for n in os.listdir(SHM)
                                 if n.startswith(backend.prefix + "0-")))
            backend._crew.outq.put(result)

        run = run_program(graph, {"x": np.ones(1)}, backend=ScriptedPool(route, workers=1))
        assert summarize(run) == summarize(serial)
        assert run["o2"].size == 5000 and run["r"][0] == 3 * 4999 * 2.0 + 3
        # worker 0 ran all five tasks: the chunk from the declaration
        # holds s, each oversized output got a chunk of its own, and r
        # opened a declaration-sized one again
        assert [len(seen) for seen in chunks] == [1, 2, 3, 4, 5]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_any_interleaving_of_arrivals_leaves_the_serial_store(self, data):
        """Results of a batch arrive in any order (and a stale one in
        between): descriptors resolve, outputs land under the right
        names, and the store is the serial one."""
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        serial = run_program(body, dict(store), **FAULTY)
        before = set(os.listdir(SHM))
        stale = ("result", 999, 0, {"outputs": None, "gave_up": "",
                                    "info": {}, "events": []})
        batches = iter([len(b) for b in _dispatched_batches(body)])
        held, want = [], [next(batches)]

        def route(backend, result):
            held.append(result)
            if len(held) == want[0]:
                for i in data.draw(st.permutations(range(len(held)))):
                    backend._crew.outq.put(held[i])
                    backend._crew.outq.put(stale)
                held.clear()
                want[0] = next(batches, 0)

        run = run_program(body, dict(store), backend=ScriptedPool(route), **FAULTY)
        assert summarize(run) == summarize(serial)
        assert set(os.listdir(SHM)) - before == set()


def _dispatched_batches(graph):
    """The batches of ``graph`` cut down to the tasks a run dispatches."""
    from repro.runtime import independent_batches

    for batch in independent_batches(graph):
        jobs = [t for t in batch if t.func is not None]
        if jobs:
            yield jobs


# ----------------------------------------------------------------------
# the real transports: nothing left behind, every array counted
# ----------------------------------------------------------------------
def _exit_graph():
    def die(ctx, values):
        os._exit(3)

    g = TaskGraph()
    g.add_task(task("die", inp=["x"], out=["y"], func=die))
    return g


def _raising_graph():
    """``ok`` produces a value, then two of four bodies raise mid-batch."""
    def boom(ctx, values):
        raise ValueError("task body exploded")

    g = TaskGraph()
    ok = g.add_task(task("ok", inp=["x"], out=["s"], func=lambda c, v: {"s": v["x"] + 1}))
    for i in range(4):
        t = g.add_task(task(f"t{i}", inp=["s"], out=[f"o{i}"],
                            func=boom if i % 2 else (lambda c, v, i=i: {f"o{i}": v["s"] * i})))
        g.connect(ok, t)
    return g


@needs_shm
class TestNothingIsLeftBehind:
    @pytest.mark.parametrize("kind", ["pool", "cluster"])
    def test_clean_run(self, kind, shm_clean):
        backend = ProcessPoolBackend(workers=2) if kind == "pool" else ClusterBackend(workers=2)
        body, store = functional_step(MethodConfig("pabm", K=4, m=2))
        serial = run_program(body, dict(store))
        run = run_program(body, dict(store), backend=backend)
        assert summarize(run) == summarize(serial)
        assert not backend._ledger._entries
        assert all(a.flags.writeable for a in run.variables.values())

    def test_body_raising_mid_batch(self, shm_clean):
        with pytest.raises(RuntimeError, match="crashed in a pool worker"):
            run_program(_raising_graph(), {"x": np.ones(4)},
                        backend=ProcessPoolBackend(workers=2))

    def test_worker_process_dying(self, shm_clean):
        """A dead worker's chunks were never reported: found by name."""
        with pytest.raises(RuntimeError, match="died while tasks were in flight"):
            run_program(_exit_graph(), {"x": np.ones(4)},
                        backend=ProcessPoolBackend(workers=2, poll_interval=0.005))

    def test_failed_start(self, shm_clean, monkeypatch):
        import multiprocessing.context as ctx

        calls = []
        real_start = ctx.ForkProcess.start

        def flaky_start(self):
            calls.append(self)
            if len(calls) == 2:
                raise OSError("fork: resource temporarily unavailable")
            real_start(self)

        monkeypatch.setattr(ctx.ForkProcess, "start", flaky_start)
        backend = ProcessPoolBackend(workers=2)
        with pytest.raises(OSError, match="temporarily unavailable"):
            run_program(fan_graph(2), {"x": np.ones(4)}, backend=backend)
        assert backend._crew is None
        assert not calls[0].is_alive()


class TestEveryArrayIsCounted:
    def test_pool_ships_live_ins_once_and_outputs_never(self):
        body, store = functional_step(MethodConfig("pabm", K=4, m=2))
        reads = [(t, p.name) for t in body.topological_order() if t.func is not None
                 for p in t.params if p.mode.reads]
        produced = {p.name for t in body.topological_order() for p in t.outputs}
        live_ins = {name for _, name in reads} - produced
        obs = Instrumentation()
        run_program(body, dict(store), obs=obs, backend=ProcessPoolBackend(workers=2))
        shipped = gauge(obs, "backend_bytes_shipped_total", "pool", direction="to_workers")
        # only first versions -- entries of the initial store -- are written
        assert shipped <= sum(store[name].nbytes for name in {name for _, name in reads}
                              if name in store)
        assert shipped >= sum(store[name].nbytes for name in live_ins)
        reused = gauge(obs, "backend_arrays_reused_total", "pool")
        assert reused >= len(reads) - len({name for _, name in reads})

    def test_one_cluster_worker_receives_each_live_in_once(self):
        """With one worker every output stays where it was produced:
        only the live-ins ever cross, each exactly once."""
        width = 5
        x = np.arange(4.0)
        obs = Instrumentation()
        serial = run_program(fan_graph(width), {"x": x})
        run = run_program(fan_graph(width), {"x": x}, obs=obs,
                          backend=ClusterBackend(workers=1))
        assert summarize(run) == summarize(serial)
        assert gauge(obs, "backend_bytes_shipped_total", "cluster", direction="to_workers") == x.nbytes
        assert gauge(obs, "backend_arrays_reused_total", "cluster") == (1 + 2 * width + width) - 1
        assert gauge(obs, "backend_bytes_shipped_total", "cluster", direction="to_parent") \
            == (1 + width + 1) * x.nbytes

    def test_two_cluster_workers_receive_an_array_at_most_once_each(self):
        body, store = functional_step(MethodConfig("pabm", K=4, m=2))
        versions = sum(p.elements * 8 for t in body.topological_order()
                       if t.func is not None for p in t.outputs)
        live_ins = sum(a.nbytes for a in store.values())
        obs = Instrumentation()
        run_program(body, dict(store), obs=obs, backend=ClusterBackend(workers=2))
        shipped = gauge(obs, "backend_bytes_shipped_total", "cluster", direction="to_workers")
        # an output never returns to its producer, so it reaches at most
        # the one other worker; a live-in reaches at most both
        assert 0 < shipped <= versions + 2 * live_ins


# ----------------------------------------------------------------------
# the cluster worker's table
# ----------------------------------------------------------------------
class TestWorkerTable:
    def test_tokens_resolve_and_the_table_is_dropped_on_disconnect(self):
        """Drive ``serve`` (in a thread) as the coordinator would: bytes
        once, tokens afterwards, an output addressed as (job, name)."""
        refs, seen = [], []

        def body(ctx, values):
            refs.extend(weakref.ref(v) for v in values.values())
            seen.append({k: v.copy() for k, v in values.items()})
            assert not any(v.flags.writeable for v in values.values())
            return {"y": values["x"] + values.get("prev", 0.0)}

        registry = {"t": task("t", inp=["x", "prev"], out=["y"], func=body)}
        listener = socket.create_server(("127.0.0.1", 0))
        worker = threading.Thread(
            target=cluster_worker.serve,
            args=("127.0.0.1", listener.getsockname()[1], 0, registry),
            kwargs={"heartbeat_interval": 5.0},
        )
        worker.start()
        conn, _ = listener.accept()
        try:
            assert wire.recv_message(conn)["type"] == "hello"
            frame = {"type": "task", "name": "t", "q": 1, "env": {}, "backup": False,
                     "attempt": 0}
            wire.send_message(conn, dict(frame, job=0, values={"x": 0}, new={0: np.ones(3)}))
            first = wire.recv_message(conn)
            np.testing.assert_array_equal(first["payload"]["outputs"]["y"], np.ones(3))
            # second job: x by token only, prev is the first job's output
            wire.send_message(conn, dict(frame, job=1, values={"x": 0, "prev": (0, "y")}, new={}))
            second = wire.recv_message(conn)
            np.testing.assert_array_equal(second["payload"]["outputs"]["y"], np.full(3, 2.0))
            assert (second["job"], second["attempt"]) == (1, 0)
            # a token the worker was never sent is a crash result, not a dead worker
            wire.send_message(conn, dict(frame, job=2, values={"x": 77}, new={}))
            third = wire.recv_message(conn)
            assert third["payload"]["outputs"] is None
            assert "KeyError" in third["payload"]["info"]["crash"]
            assert any(ref() is not None for ref in refs)  # the table holds them
        finally:
            conn.close()
            listener.close()
        worker.join(timeout=10)
        assert not worker.is_alive()
        np.testing.assert_array_equal(seen[1]["prev"], np.ones(3))
        del first, second, third
        gc.collect()
        assert all(ref() is None for ref in refs), "the table outlived its connection"
