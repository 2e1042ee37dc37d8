#!/usr/bin/env python
"""Benchmark the scheduling pipeline on the five ODE solvers.

For each solver (IRK, DIIRK, EPOL, PAB, PABM) the script runs the full
scheduling->mapping->validation->simulation pipeline on CHiC and reports

* scheduling wall-time (the pipeline's ``schedule`` stage),
* total pipeline wall-time,
* cost-cache hit rate and the evaluation-reduction factor of the
  memoized :class:`~repro.core.costmodel.CachedCostEvaluator`,
* the simulated makespan (so regressions in either speed or numbers
  show up in the same artefact),
* deterministic schedule analytics (busy fraction, critical-path share)
  from :mod:`repro.obs.metrics`.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline.py [output.json]

Writes ``BENCH_pipeline.json`` next to the repository root by default.
``python -m repro.obs diff --threshold 1.25 BENCH_pipeline.json fresh.json``
compares two outputs and exits non-zero on a regression; CI runs that
gate against the committed baseline (deterministic count/ratio metrics
only -- wall-clock columns are excluded unless ``--include-wall``).
"""

from __future__ import annotations

import json
import platform as _platform
import sys
from pathlib import Path

from repro.cluster import chic
from repro.core import CachedCostEvaluator, CostModel
from repro.experiments.common import paper_group_count
from repro.mapping import consecutive
from repro.obs import Instrumentation
from repro.ode import PAPER_CONFIGS, MethodConfig, bruss2d, step_graph
from repro.pipeline import SchedulingPipeline
from repro.scheduling import fixed_group_scheduler

SOLVERS = tuple(PAPER_CONFIGS.values())

CORES = 256
N = 500


def bench_solver(cfg: MethodConfig) -> dict:
    plat = chic().with_cores(CORES)
    graph = step_graph(bruss2d(N), cfg)
    scheduler = fixed_group_scheduler(CostModel(plat), paper_group_count(cfg))
    pipe = SchedulingPipeline(scheduler, strategy=consecutive())
    obs = Instrumentation()
    result = pipe.run(graph, obs)
    stats = result.cache
    # isolate the g-search: run just the scheduling stage on a fresh
    # cache -- its Tsymb probes are batch-evaluated, not memoized, so
    # the interesting number is the batched cell count
    gsearch_cost = CachedCostEvaluator(CostModel(plat))
    fixed_group_scheduler(gsearch_cost, paper_group_count(cfg)).schedule(graph)
    gstats = gsearch_cost.stats
    analysis = result.analysis()
    return {
        "solver": cfg.method,
        "tasks": len(graph),
        "cores": CORES,
        "schedule_seconds": obs.span_seconds("schedule"),
        "pipeline_seconds": obs.span_seconds("pipeline"),
        "simulate_seconds": obs.span_seconds("simulate"),
        "gsearch_probes": obs.counter("gsearch.probes"),
        "cache_requests": stats.requests,
        "cache_hit_rate": stats.hit_rate,
        "evaluation_reduction": stats.evaluation_reduction,
        "gsearch_batched_cells": gstats.total_batched,
        "predicted_makespan": result.predicted_makespan,
        "simulated_makespan": result.trace.makespan,
        "busy_fraction": analysis.busy_fraction,
        "redist_wait_fraction": analysis.redist_wait_fraction,
        "critical_path_share": analysis.critical_path_share,
        "max_layer_imbalance": analysis.max_layer_imbalance,
    }


def main(argv: list) -> int:
    out_path = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    rows = [bench_solver(cfg) for cfg in SOLVERS]
    payload = {
        "schema": "repro.obs.bench/1",
        "benchmark": "scheduling pipeline, five ODE solvers on CHiC",
        "python": _platform.python_version(),
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'solver':>8s} | {'sched [ms]':>10s} | {'total [ms]':>10s} | "
          f"{'hit rate':>8s} | {'evals saved':>11s} | {'batched':>8s} | "
          f"{'makespan [s]':>12s}")
    for r in rows:
        print(f"{r['solver']:>8s} | {r['schedule_seconds'] * 1e3:10.2f} | "
              f"{r['pipeline_seconds'] * 1e3:10.2f} | "
              f"{r['cache_hit_rate'] * 100:7.1f}% | "
              f"{r['evaluation_reduction']:10.2f}x | "
              f"{r['gsearch_batched_cells']:8d} | "
              f"{r['simulated_makespan']:12.6g}")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
