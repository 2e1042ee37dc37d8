#!/usr/bin/env python
"""Benchmark the parallel runtime backends against the serial one.

For a 2-layer IRK step (``K=4, m=2``) and a PABM step (``K=8, m=2``)
the script executes the solver's *functional* M-task program three
times -- on the default :class:`~repro.runtime.SerialBackend`, on a
:class:`~repro.runtime.ProcessPoolBackend` with four forked workers,
and on a localhost :class:`~repro.runtime.ClusterBackend` with four
socket workers -- and reports the wall-clock **speedup** together with
a bit-identity check of the produced variables.  The cluster numbers
land in their own ``<solver>:cluster`` rows, so the diff gate (which
compares the row intersection) judges pool and cluster independently.

Real task bodies on this problem size finish in microseconds, so the
wall-clock comparison would measure only dispatch overhead.  Instead
each task body is wrapped with a ``time.sleep`` proportional to the
task's modelled ``work`` (normalised so one serial step takes
``TARGET_SERIAL_SECONDS``): sleeps release the GIL and parallelise
across worker processes exactly like compute on a multi-core machine,
making the benchmark meaningful even on single-core CI runners.  The
layer structure is untouched, so the speedup is bounded by the same
batch widths a real machine would see.

Run:  PYTHONPATH=src python benchmarks/bench_runtime.py [output.json]

Writes ``BENCH_runtime.json`` next to the repository root by default.
``python -m repro.obs diff --threshold 1.6 BENCH_runtime.json fresh.json``
compares two outputs and exits non-zero on a regression; CI runs that
gate against the committed baseline.  ``speedup`` is a higher-is-better
metric; raw ``*_seconds`` wall-clock columns are excluded from the gate
unless ``--include-wall`` is given.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
import time
from pathlib import Path

from repro.ode import MethodConfig, bruss2d, functional_step
from repro.recovery import array_digest
from repro.runtime import (
    ClusterBackend,
    ProcessPoolBackend,
    independent_batches,
    run_program,
)

SOLVERS = (
    MethodConfig("irk", K=4, m=2),  # the "2-layer" IRK step: two stage layers
    MethodConfig("pabm", K=8, m=2),
)

N = 16  #: BRUSS2D grid size; tiny on purpose, the sleep load dominates
WORKERS = 4
TARGET_SERIAL_SECONDS = 1.5  #: serial wall-clock budget per solver


def _add_sleep_load(body) -> float:
    """Wrap every task body with a work-proportional ``time.sleep``.

    Returns the per-flop sleep scale so the report can state the load.
    """
    total_work = sum(t.work for t in body.topological_order())
    scale = TARGET_SERIAL_SECONDS / total_work

    def wrap(fn, seconds):
        def loaded(ctx, values):
            time.sleep(seconds)
            return fn(ctx, values)

        return loaded

    for task in body.topological_order():
        if task.func is not None and task.work > 0:
            task.func = wrap(task.func, task.work * scale)
    return scale


def bench_solver(cfg: MethodConfig) -> list:
    """Two result rows for one solver: the pool row and the cluster row."""
    _, _, body, store = functional_step(bruss2d(N), cfg)
    scale = _add_sleep_load(body)

    t0 = time.perf_counter()
    serial_run = run_program(body, dict(store))
    serial_seconds = time.perf_counter() - t0

    backend = ProcessPoolBackend(workers=WORKERS)
    t0 = time.perf_counter()
    pool_run = run_program(body, dict(store), backend=backend)
    pool_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    cluster_run = run_program(
        body, dict(store), backend=ClusterBackend(workers=WORKERS)
    )
    cluster_seconds = time.perf_counter() - t0

    def digests(run):
        return {k: array_digest(v) for k, v in sorted(run.variables.items())}

    serial_digests = digests(serial_run)
    tasks = len(list(body.topological_order()))
    batches = len(independent_batches(body))
    return [
        {
            "solver": cfg.method,
            "tasks": tasks,
            "batches": batches,
            "workers": WORKERS,
            "sleep_scale_seconds_per_flop": scale,
            "serial_seconds": serial_seconds,
            "pool_seconds": pool_seconds,
            "speedup": serial_seconds / pool_seconds,
            "identical": float(serial_digests == digests(pool_run)),
        },
        {
            "solver": f"{cfg.method}:cluster",
            "tasks": tasks,
            "batches": batches,
            "workers": WORKERS,
            "sleep_scale_seconds_per_flop": scale,
            "serial_seconds": serial_seconds,
            "cluster_seconds": cluster_seconds,
            "speedup": serial_seconds / cluster_seconds,
            "identical": float(serial_digests == digests(cluster_run)),
        },
    ]


def main(argv: list) -> int:
    out_path = (
        Path(argv[1])
        if len(argv) > 1
        else Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
    )
    rows = [row for cfg in SOLVERS for row in bench_solver(cfg)]
    payload = {
        "schema": "repro.obs.bench/1",
        "benchmark": "serial vs process-pool vs socket-cluster runtime "
        "backend, sleep-loaded functional solver steps",
        "python": _platform.python_version(),
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'solver':>14s} | {'tasks':>5s} | {'serial [s]':>10s} | "
          f"{'par:%d [s]' % WORKERS:>10s} | {'speedup':>7s} | identical")
    for r in rows:
        par = r.get("cluster_seconds", r.get("pool_seconds"))
        print(f"{r['solver']:>14s} | {r['tasks']:5d} | "
              f"{r['serial_seconds']:10.3f} | {par:10.3f} | "
              f"{r['speedup']:6.2f}x | {'yes' if r['identical'] else 'NO'}")
    print(f"\nwrote {out_path}")
    if not all(r["identical"] for r in rows):
        print("ERROR: a parallel run diverged from the serial run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
