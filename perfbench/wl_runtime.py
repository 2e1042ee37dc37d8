"""``runtime-step``: one functional solver step per execution backend.

Cases are functional solver steps (IRK K4 m2 and PABM K8 m2 on
``bruss2d(64)``, real numpy task bodies) on the serial, process-pool and
socket-cluster backends -- six *overhead* cases that price dispatch,
IPC and worker start/stop -- plus a PABM step whose bodies sleep in
proportion to their modelled work on pool and cluster -- two *overlap*
cases that show whether independent tasks still actually run
concurrently.  One operation is ``run_program(body, store, backend=<a
fresh backend>)`` including worker start and shutdown.

``repro.runtime.backends`` does all the work here and no other workload
touches it; scheduling, simulation and the service stay idle.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Any, Dict, List

import check
from harness import Tracer, Workload, lower_quartile, peak_rss_mb, timed_sweeps

GRID = 64
WORKERS = min(2, os.cpu_count() or 1)
SLEEP_SERIAL_SECONDS = 0.3  #: sleep budget of one serial overlap step
SOLVERS = ("irk", "pabm")
PARALLEL = ("pool", "cluster")
OVERHEAD_CASES = tuple(f"{s}-{b}" for s in SOLVERS for b in ("serial",) + PARALLEL)
OVERLAP_CASES = tuple(f"sleep-{b}" for b in PARALLEL)


class TimedBackend:
    """Delegating backend that opens one span per lifecycle call.

    ``run_program`` drives a backend through ``open`` / ``run_batch`` /
    ``close``; timing those three from here splits an operation into
    worker start, batch dispatch + IPC, and shutdown without touching
    the backends.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner, self.tracer = inner, tracer
        self.name = inner.name

    def open(self, run) -> None:
        with self.tracer.span("runtime.backends.open", "runtime.backends"):
            self.inner.open(run)

    def run_batch(self, tasks, prepare, commit) -> None:
        with self.tracer.span("runtime.backends.run_batch", "runtime.backends"):
            self.inner.run_batch(tasks, prepare, commit)

    def close(self) -> None:
        with self.tracer.span("runtime.backends.close", "runtime.backends"):
            self.inner.close()


class RuntimeStep(Workload):
    name = "runtime-step"
    cases = OVERHEAD_CASES + OVERLAP_CASES

    # ------------------------------------------------------------------
    def _functional_step(self, solver: str, rng: random.Random):
        """One functional time step: ``(body graph, live-in store)``."""
        import numpy as np

        from repro.ode import MethodConfig, bruss2d
        from repro.ode.programs import build_ode_program
        from repro.runtime import run_program

        cfg = {"irk": MethodConfig("irk", K=4, m=2), "pabm": MethodConfig("pabm", K=8, m=2)}[solver]
        problem = bruss2d(self.grid)
        build = build_ode_program(problem, cfg, functional=True)
        loop = build.composed_nodes()[0]
        body = build.body_of(loop)
        params = {p.name for p in loop.params}
        sol = next((c for c in ("eta", "eta_k", "y") if c in params), "eta")
        # the seed perturbs the initial state: every seed computes other
        # numbers through the same task graph at the same cost
        noise = np.array([rng.uniform(-1e-3, 1e-3) for _ in range(problem.n)])
        inputs = {sol: problem.y0 * (1.0 + noise)}
        for p in loop.params:
            if p.mode.reads and p.name not in inputs:
                inputs[p.name] = np.zeros(p.elements)
        store = dict(run_program(build.graph, inputs).variables)
        return body, store

    @staticmethod
    def _add_sleep_load(body) -> None:
        """Wrap every task body with a work-proportional ``time.sleep``
        (sleeps release the GIL and overlap across workers like compute
        on idle cores would)."""
        tasks = body.topological_order()
        scale = SLEEP_SERIAL_SECONDS / sum(t.work for t in tasks)

        def wrap(fn, seconds):
            def loaded(ctx, values):
                time.sleep(seconds)
                return fn(ctx, values)

            return loaded

        for task in tasks:
            if task.func is not None and task.work > 0:
                task.func = wrap(task.func, task.work * scale)

    def _backend(self, kind: str):
        from repro.runtime import ClusterBackend, ProcessPoolBackend, SerialBackend

        if kind == "serial":
            return SerialBackend()
        if kind == "pool":
            return ProcessPoolBackend(workers=WORKERS)
        return ClusterBackend(workers=WORKERS)

    # ------------------------------------------------------------------
    def _build(self, seed: int, quick: bool) -> None:
        from repro.runtime import independent_batches

        self.grid = 16 if quick else GRID
        self.steps = {s: self._functional_step(s, random.Random(seed)) for s in SOLVERS}
        self.steps["sleep"] = self._functional_step("pabm", random.Random(seed))
        self._add_sleep_load(self.steps["sleep"][0])
        self.shape = {
            s: {
                "tasks": len(body),
                "batches": len(independent_batches(body)),
            }
            for s, (body, _store) in self.steps.items()
        }

    def setup(self, seed: int, quick: bool) -> None:
        from repro.runtime import run_program

        self.seed, self.quick = seed, quick
        self._build(seed, quick)
        self.expected = check.expected_facts(self.name, seed, quick)
        # serial reference runs: the digests every backend must reproduce
        self.reference = {}
        self.executed = {}
        self.serial_ms = {}
        for name, (body, store) in self.steps.items():
            t0 = time.perf_counter()
            run = run_program(body, dict(store))
            self.serial_ms[name] = (time.perf_counter() - t0) * 1e3
            self.reference[name] = check.output_digests(run)
            self.executed[name] = run.stats.tasks_executed
        self.facts = self._shape_facts()
        self.record("set-up", check.compare_facts(self.facts, self.expected))
        order = list(self.cases)
        random.Random(seed).shuffle(order)
        self.order = order
        for case in ("irk-pool", "irk-cluster"):  # warm-up: fork + socket paths
            self._verify(case, self._operation(case))
        self.forget_clean_setup()

    def _shape_facts(self) -> Dict[str, Any]:
        facts: Dict[str, Any] = {}
        for name, shape in self.shape.items():
            facts[f"{name}.tasks"] = shape["tasks"]
            facts[f"{name}.batches"] = shape["batches"]
            facts[f"{name}.tasks_executed"] = int(self.executed[name])
        return facts

    def pinned_facts(self, seed: int) -> Dict[str, Any]:
        from repro.runtime import run_program

        self._build(seed, quick=False)
        self.executed = {
            name: run_program(body, dict(store)).stats.tasks_executed
            for name, (body, store) in self.steps.items()
        }
        return self._shape_facts()

    # ------------------------------------------------------------------
    def _operation(self, case: str, tracer: Tracer = None):
        from repro.runtime import run_program

        step, kind = case.split("-")
        body, store = self.steps[step]
        backend = self._backend(kind)
        if tracer is not None:
            backend = TimedBackend(backend, tracer)
        return run_program(body, dict(store), backend=backend)

    def _verify(self, case: str, run) -> None:
        step = case.split("-")[0]
        problems = check.check_digests(check.output_digests(run), self.reference[step])
        if run.stats.tasks_executed != self.executed[step]:
            problems.append(
                f"executed {run.stats.tasks_executed} tasks, serial run {self.executed[step]}"
            )
        if run.failures:
            problems.append(f"{len(run.failures)} task failure record(s)")
        self.record(case, problems)

    def sizes(self) -> Dict[str, Any]:
        return {
            "bruss2d_grid": self.grid,
            "workers": WORKERS,
            "sleep_serial_seconds": SLEEP_SERIAL_SECONDS,
            "cases": list(self.order),
        }

    def measure(self, seconds: float) -> Dict[str, Any]:
        loop = timed_sweeps(self.order, self._operation, seconds, verify=self._verify)
        return {
            **loop,
            **self.tally(),
            "ops_per_sweep": len(self.order),
            "callers": 1,
            "peak_rss_mb": peak_rss_mb(children=True),
        }

    # ------------------------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer) -> Dict[str, Any]:
        one_call: Dict[str, List[float]] = {c: [] for c in self.order}
        redistributed = {}
        deadline = time.perf_counter() + seconds
        sweeps = 0
        while True:
            for case in self.order:
                gc.collect()
                t0 = time.perf_counter()
                run = self._operation(case)
                one_call[case].append((time.perf_counter() - t0) * 1e3)
                self._verify(case, run)
                redistributed[case.split("-")[0]] = run.stats.redistributed_bytes
                gc.collect()
                tracer.begin_op(case)
                with tracer.span("runtime.run_program", "runtime.executor"):
                    run = self._operation(case, tracer)
                self._verify(case, run)
            sweeps += 1
            if time.perf_counter() >= deadline or (self.quick and sweeps >= 1):
                break

        def stage(name: str, case: str) -> float:
            return lower_quartile(tracer.durations_ms(name, case))

        metrics: Dict[str, float] = {}
        table: Dict[str, Dict[str, float]] = {}
        p25 = {c: lower_quartile(one_call[c]) for c in self.order}
        for case in self.order:
            metrics[f"case.{case}.p25_ms"] = p25[case]
            table[case] = {
                "one_call_ms": p25[case],
                "traced_ms": stage("runtime.run_program", case),
                "open_ms": stage("runtime.backends.open", case),
                "run_batch_ms": stage("runtime.backends.run_batch", case),
                "close_ms": stage("runtime.backends.close", case),
            }
        metrics["runtime.tasks"] = float(sum(self.executed[c.split("-")[0]] for c in self.order))
        metrics["runtime.batches"] = float(
            sum(self.shape[c.split("-")[0]]["batches"] for c in self.order)
        )
        metrics["runtime.redistributed_bytes"] = float(
            sum(redistributed[c.split("-")[0]] for c in self.order)
        )
        for kind in PARALLEL:
            extra = sum(p25[f"{s}-{kind}"] - p25[f"{s}-serial"] for s in SOLVERS)
            metrics[f"runtime.{kind}.overhead_ms_per_task"] = extra / sum(
                self.executed[s] for s in SOLVERS
            )
            metrics[f"runtime.{kind}.overlap_speedup"] = (
                self.serial_ms["sleep"] / p25[f"sleep-{kind}"]
            )
            for part in ("open", "run_batch", "close"):
                metrics[f"runtime.{kind}.{part}_ms"] = sum(
                    table[f"{s}-{kind}"][f"{part}_ms"] for s in SOLVERS
                )
        untraced = sum(p25.values())
        traced = sum(row["traced_ms"] for row in table.values())
        metrics["trace.overhead_share"] = (traced - untraced) / untraced
        metrics["trace.spans"] = float(len(tracer.spans))
        return {
            **self.tally(),
            "per_layer": metrics,
            "cases": table,
            "sweeps": sweeps,
        }
