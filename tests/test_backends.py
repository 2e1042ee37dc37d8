"""Tests for the execution backends: backend-spec parsing, contiguous
independent batching, serial/pool/cluster bit-identity on every paper
solver under injected faults, pool + journal resume, the worker-crash
sentinel, concurrent speculation races, per-worker span export and
overlap of independent tasks on the workers."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import AccessMode, DistributionSpec, MTask, Parameter, TaskGraph
from repro.faults import FaultPlan, RetryPolicy
from repro.obs import Instrumentation
from repro.obs.perfetto import span_events, worker_span_events
from repro import ode
from repro.ode import MethodConfig, bruss2d
from repro.recovery import (
    CheckpointStore,
    RunJournal,
    SpeculationPolicy,
    array_digest,
)
from repro.runtime import (
    ClusterBackend,
    ProcessPoolBackend,
    SerialBackend,
    independent_batches,
    parse_backend_spec,
    run_program,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def task(name, inp=(), out=(), func=None, elements=4):
    params = tuple(
        Parameter(v, AccessMode.IN, elements, dist=DistributionSpec("replic"))
        for v in inp
    ) + tuple(
        Parameter(v, AccessMode.OUT, elements, dist=DistributionSpec("replic"))
        for v in out
    )
    return MTask(name, params=params, func=func)


def functional_step(cfg, n=8):
    """One functional solver step: ``(body graph, live-in store)``."""
    _, _, body, store = ode.functional_step(bruss2d(n), cfg)
    return body, store


def summarize(run):
    return {
        "variables": {
            n: array_digest(a) for n, a in sorted(run.variables.items())
        },
        "failures": [f.to_dict() for f in run.failures],
        "tasks_executed": run.stats.tasks_executed,
        "retries": run.stats.retries,
        "backoff_seconds": run.stats.backoff_seconds,
        "redistributed_bytes": run.stats.redistributed_bytes,
    }


# ----------------------------------------------------------------------
# backend-spec parsing
# ----------------------------------------------------------------------
class TestParseBackendSpec:
    def test_serial(self):
        assert isinstance(parse_backend_spec("serial"), SerialBackend)

    def test_pool_default_workers(self):
        backend = parse_backend_spec("pool")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers is None

    def test_pool_with_worker_count(self):
        assert parse_backend_spec("pool:3").workers == 3

    @pytest.mark.parametrize("spec", ["", "threads", "pool:0", "pool:-1",
                                      "pool:x", "pool:2:3"])
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)


# ----------------------------------------------------------------------
# independent batching
# ----------------------------------------------------------------------
class TestIndependentBatches:
    def test_chain_is_singleton_batches(self):
        g = TaskGraph()
        a = g.add_task(task("a", out=["x"]))
        b = g.add_task(task("b", inp=["x"], out=["y"]))
        c = g.add_task(task("c", inp=["y"], out=["z"]))
        g.connect(a, b)
        g.connect(b, c)
        assert [len(batch) for batch in independent_batches(g)] == [1, 1, 1]

    def test_diamond_middle_batch(self):
        g = TaskGraph()
        a = g.add_task(task("a", out=["x"]))
        b = g.add_task(task("b", inp=["x"], out=["y"]))
        c = g.add_task(task("c", inp=["x"], out=["z"]))
        d = g.add_task(task("d", inp=["y", "z"], out=["w"]))
        for t in (b, c):
            g.connect(a, t)
            g.connect(t, d)
        assert [len(batch) for batch in independent_batches(g)] == [1, 2, 1]

    @pytest.mark.parametrize("cfg", [
        MethodConfig("irk", K=4, m=2),
        MethodConfig("pabm", K=8, m=2),
    ])
    def test_concatenation_is_exact_topological_order(self, cfg):
        body, _ = functional_step(cfg)
        batches = independent_batches(body)
        flat = [t for batch in batches for t in batch]
        assert flat == list(body.topological_order())
        # no task depends on another task of its own batch
        for batch in batches:
            members = set(batch)
            for t in batch:
                assert not (set(body.predecessors(t)) & members)


# ----------------------------------------------------------------------
# serial vs pool bit-identity (the headline guarantee)
# ----------------------------------------------------------------------
SOLVERS = [
    MethodConfig("irk", K=4, m=2),
    MethodConfig("diirk", K=3, m=2, I=3),
    MethodConfig("epol", K=8),
    MethodConfig("pab", K=8),
    MethodConfig("pabm", K=8, m=2),
]


WORKER_BACKENDS = {
    "pool": lambda: ProcessPoolBackend(workers=2),
    "cluster": lambda: ClusterBackend(workers=2),
}

FAULTY = dict(
    faults=FaultPlan(seed=11, failure_rate=0.3),
    retry=RetryPolicy(seed=11),
)


class TestSerialPoolEquivalence:
    """Serial <-> worker-backend bit-identity, one cell per backend.

    The class and the pool cells keep their historical ids; the cluster
    cells (``cluster-*``) were ``test_cluster.TestSerialClusterEquivalence``.
    """

    @pytest.mark.parametrize(
        "kind,cfg",
        [(kind, cfg) for kind in WORKER_BACKENDS for cfg in SOLVERS],
        ids=[c.method if kind == "pool" else f"{kind}-{c.method}"
             for kind in WORKER_BACKENDS for c in SOLVERS],
    )
    def test_faulty_run_is_bit_identical(self, kind, cfg):
        body, store = functional_step(cfg)
        serial = run_program(body, dict(store), **FAULTY)
        parallel = run_program(
            body, dict(store), backend=WORKER_BACKENDS[kind](), **FAULTY
        )
        assert summarize(parallel) == summarize(serial)

    @pytest.mark.parametrize("kind", sorted(WORKER_BACKENDS))
    def test_clean_run_collectives_match(self, kind):
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        serial = run_program(body, dict(store))
        parallel = run_program(
            body, dict(store), backend=WORKER_BACKENDS[kind]()
        )
        assert summarize(parallel) == summarize(serial)
        serial_ops = {
            t.name: ctx.counts_by_op()
            for t, ctx in serial.stats.contexts.items()
        }
        parallel_ops = {
            t.name: ctx.counts_by_op()
            for t, ctx in parallel.stats.contexts.items()
        }
        assert parallel_ops == serial_ops

    @pytest.mark.parametrize("kind", sorted(WORKER_BACKENDS))
    def test_speculating_degraded_run_resumes_bit_identically(self, kind, tmp_path):
        """Speculation + injected faults + journal resume at once.

        The policy is armed (thresholds are computed from the live and
        the journaled history) but generous enough that no backup fires
        against a healthy worker -- a backup that wins skips the
        primary's retry accounting, which ``summarize`` would notice.
        """
        from tests.test_recovery import truncate_to_task_records

        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        kw = dict(
            speculation=SpeculationPolicy(factor=500.0, quantile=0.5, min_samples=1),
            **FAULTY,
        )
        serial = run_program(body, dict(store), **kw)
        assert serial.stats.retries

        def journaled(resume):
            journal = RunJournal(tmp_path / "journal.jsonl",
                                 store=CheckpointStore(tmp_path))
            with journal:
                return run_program(
                    body, dict(store), journal=journal, resume=resume,
                    backend=WORKER_BACKENDS[kind](), **kw
                )

        assert summarize(journaled(resume=False)) == summarize(serial)
        truncate_to_task_records(tmp_path / "journal.jsonl", keep=5)
        resumed = journaled(resume=True)
        assert resumed.stats.resumed_tasks == 5
        assert summarize(resumed) == summarize(serial)


# ----------------------------------------------------------------------
# pool + journal: record in commit order, resume bit-identically
# ----------------------------------------------------------------------
class TestPoolJournalResume:
    def test_truncated_journal_resumes_bit_identically(self, tmp_path):
        from repro.ode import run_functional_step
        from tests.test_recovery import truncate_to_task_records

        problem = bruss2d(16)
        cfg = MethodConfig("irk", K=4, m=2)
        kw = dict(faults=FaultPlan(seed=11, failure_rate=0.3),
                  retry=RetryPolicy(seed=11))

        ref_run, _, _ = run_functional_step(
            problem, cfg, tmp_path / "ref", **kw
        )
        full_run, _, _ = run_functional_step(
            problem, cfg, tmp_path / "chaos",
            backend=ProcessPoolBackend(workers=2), **kw
        )
        assert summarize(full_run) == summarize(ref_run)

        truncate_to_task_records(tmp_path / "chaos" / "journal.jsonl", keep=5)
        res_run, summary, _ = run_functional_step(
            problem, cfg, tmp_path / "chaos", resume=True,
            backend=ProcessPoolBackend(workers=2), **kw
        )
        assert summary["resumed_tasks"] == 5
        assert summary["backend"] == "pool"
        assert summarize(res_run) == summarize(ref_run)


# ----------------------------------------------------------------------
# worker crashes
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def _graph(self):
        def boom(ctx, values):
            raise ValueError("task body exploded")

        g = TaskGraph()
        g.add_task(task("boom", inp=["x"], out=["y"], func=boom))
        return g

    def test_serial_reraises_original_exception(self):
        with pytest.raises(ValueError, match="exploded"):
            run_program(self._graph(), {"x": np.ones(4)})

    def test_pool_raises_runtime_error_with_traceback(self):
        with pytest.raises(RuntimeError, match="crashed in a pool worker"):
            run_program(
                self._graph(), {"x": np.ones(4)},
                backend=ProcessPoolBackend(workers=2),
            )

    def test_cluster_raises_runtime_error_with_traceback(self):
        with pytest.raises(
            RuntimeError, match=r"(?s)crashed in a cluster worker.*exploded"
        ):
            run_program(
                self._graph(), {"x": np.ones(4)},
                backend=ClusterBackend(workers=2),
            )


# ----------------------------------------------------------------------
# concurrent speculation: backups genuinely race their primaries
# ----------------------------------------------------------------------
class TestConcurrentSpeculation:
    def _race_graph(self, flag: Path, straggle: float):
        """``warm -> slow``: the first process to run ``slow`` claims the
        flag file and straggles; the (backup) loser runs at full speed."""

        def slow_body(ctx, values):
            try:
                fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                time.sleep(straggle)
            except FileExistsError:
                pass
            return {"out": values["mid"] + 1}

        g = TaskGraph()
        warm = g.add_task(task(
            "warm", inp=["x"], out=["mid"],
            func=lambda c, v: {"mid": v["x"] * 2},
        ))
        slow = g.add_task(task("slow", inp=["mid"], out=["out"],
                               func=slow_body))
        g.connect(warm, slow)
        return g

    def test_backup_wins_race_against_straggler(self, tmp_path):
        g = self._race_graph(tmp_path / "claimed", straggle=3.0)
        policy = SpeculationPolicy(factor=1.5, quantile=0.5, min_samples=1)
        t0 = time.perf_counter()
        run = run_program(
            g, {"x": np.ones(4)}, speculation=policy,
            backend=ProcessPoolBackend(workers=2),
        )
        wall = time.perf_counter() - t0
        np.testing.assert_array_equal(run["out"], np.full(4, 3.0))
        assert [s.win for s in run.stats.speculations] == [True]
        assert run.stats.speculations[0].task == "slow"
        # the backup's win must not have waited out the 3 s straggler
        assert wall < 2.5
        assert not run.failures

    def test_fast_primary_keeps_its_result(self, tmp_path):
        # nobody straggles: the primary claims the flag but sleeps 0 s,
        # so no backup fires (or an eventual backup loses harmlessly)
        g = self._race_graph(tmp_path / "claimed", straggle=0.0)
        run = run_program(
            g, {"x": np.ones(4)},
            speculation=SpeculationPolicy(factor=50.0, quantile=0.5,
                                          min_samples=1),
            backend=ProcessPoolBackend(workers=2),
        )
        np.testing.assert_array_equal(run["out"], np.full(4, 3.0))
        assert not any(s.win for s in run.stats.speculations)


# ----------------------------------------------------------------------
# per-worker spans
# ----------------------------------------------------------------------
class TestWorkerSpans:
    def test_pool_emits_worker_spans(self):
        body, store = functional_step(MethodConfig("irk", K=4, m=2))
        obs = Instrumentation()
        run_program(
            body, dict(store), obs=obs,
            backend=ProcessPoolBackend(workers=2),
        )
        workers = [s for s in obs.spans if "worker" in s.meta]
        assert workers, "pool runs must emit per-worker spans"
        assert all(s.duration >= 0 for s in workers)

    def test_worker_spans_render_on_their_own_tracks(self):
        obs = Instrumentation()
        obs.emit_span("task", 1.0, 0.5, task="a", worker=0)
        obs.emit_span("task", 1.1, 0.5, task="b", worker=1)
        obs.emit_span("task_backup", 1.2, 0.1, task="b", worker=0)
        with obs.span("pipeline"):
            pass
        events = worker_span_events(obs)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in complete} == {1, 2}
        assert {e["name"] for e in complete} == {"a", "b"}
        cats = {e["args"]["span"]: e["cat"] for e in complete
                if "span" in e.get("args", {})}
        # regular attempts and speculative backups are distinguishable
        assert sorted(e["cat"] for e in complete) == [
            "speculation", "worker", "worker"]
        assert cats is not None
        # the single-track pipeline view must not contain worker spans
        names = [e["name"] for e in span_events(obs) if e["ph"] == "X"]
        assert names == ["pipeline"]


def max_overlap(spans):
    """Most spans open at one instant (a span ending as another starts
    does not overlap it)."""
    edges = sorted([(s.start + s.duration, -1) for s in spans]
                   + [(s.start, 1) for s in spans])
    open_now = peak = 0
    for _, step in edges:
        open_now += step
        peak = max(peak, open_now)
    return peak


class TestWorkerOverlap:
    """Worker backends run the independent tasks of a batch at the same
    time: read from the per-worker ``task`` spans, not a wall-clock
    ratio.  Each body sleeps 20 ms, longer than dispatching a batch, so
    four workers fed a batch at once must have four spans open together,
    and a backend that runs one task at a time never has more than one."""

    @pytest.mark.parametrize("kind", sorted(WORKER_BACKENDS))
    def test_four_workers_run_four_tasks_at_once(self, kind):
        body, store = functional_step(MethodConfig("pabm", K=8, m=2))
        serial = run_program(body, dict(store))

        def sleeping(fn):
            def body_fn(ctx, values):
                time.sleep(0.02)
                return fn(ctx, values)
            return body_fn

        for t in body.topological_order():
            if t.func is not None:
                t.func = sleeping(t.func)
        backend = {"pool": ProcessPoolBackend, "cluster": ClusterBackend}[kind]
        obs = Instrumentation()
        parallel = run_program(body, dict(store), obs=obs, backend=backend(workers=4))
        spans = [s for s in obs.spans if s.name == "task" and "worker" in s.meta]
        assert max_overlap(spans) == 4
        assert len({s.meta["worker"] for s in spans}) == 4
        assert summarize(parallel) == summarize(serial)


# ----------------------------------------------------------------------
# kill-resume chaos with the pool backend (out of process)
# ----------------------------------------------------------------------
class TestPoolKillResumeChaos:
    def test_chaos_script_pool_backend(self, tmp_path):
        script = (Path(__file__).resolve().parent.parent / "scripts"
                  / "chaos_kill_resume.py")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), "--workdir", str(tmp_path),
             "--n", "16", "--crash-after", "5", "--backend", "pool:2"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bit-identical" in proc.stdout
