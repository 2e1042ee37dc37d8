#!/usr/bin/env python
"""Benchmark the scheduler's throughput on synthetic DAGs at scale.

Sweeps the :mod:`repro.graphs` families (chain, fork-join, layered,
random) across graph sizes from 10^3 to 10^5 tasks and reports, per
(family, size) row,

* wall-clock build/schedule time and the derived ``tasks_per_second``
  throughput (informational -- the diff gate ignores wall-clock),
* the scheduler's deterministic decision metrics: layer count,
  ``g``-search probes, contracted chains, batched ``Tsymb`` cells and
  the predicted makespan.  These are seed-reproducible bit-for-bit, so
  the CI gate (``python -m repro.obs diff --threshold``) catches any
  unintended decision drift at scale,
* ``gsearch_lpt_runs``: the probes that still needed an LPT run because
  the ``Tact`` lower bound could not decide them (``gsearch.probes`` -
  ``gsearch.pruned``).  Written to fresh rows only -- the committed
  baseline predates it and ``diff`` compares the name intersection --
  and checked by its own CI step.

Run:  PYTHONPATH=src python benchmarks/bench_schedule_scale.py \
          [output.json] [--sizes 1000,3000,10000]

Writes ``BENCH_schedule_scale.json`` at the repository root by default.
CI runs a reduced ``--sizes`` sweep; its row names are a subset of the
committed full-sweep baseline, which is what ``diff`` compares on.
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import time
from pathlib import Path

from repro.cluster import chic
from repro.core import CachedCostEvaluator, CostModel
from repro.graphs import FAMILIES, synthesize
from repro.obs import Instrumentation
from repro.scheduling import LayerBasedScheduler

CORES = 256
SEED = 1
DEFAULT_SIZES = (1_000, 3_000, 10_000, 30_000, 100_000)


def bench_case(family: str, n: int) -> dict:
    t0 = time.perf_counter()
    graph = synthesize(family, n, seed=SEED)
    t1 = time.perf_counter()
    cost = CachedCostEvaluator(CostModel(chic().with_cores(CORES)))
    scheduler = LayerBasedScheduler(cost)
    obs = Instrumentation()
    t2 = time.perf_counter()
    result = scheduler.schedule(graph, obs)
    t3 = time.perf_counter()
    makespan = result.predicted_makespan(cost)
    schedule_seconds = t3 - t2
    return {
        "name": f"{family}-{n}",
        "family": family,
        "requested_tasks": n,
        "tasks": len(graph),
        "edges": graph.num_edges,
        "cores": CORES,
        "build_seconds": t1 - t0,
        "schedule_seconds": schedule_seconds,
        "tasks_per_second": len(graph) / schedule_seconds,
        "layers": int(result.stats["layers"]),
        "gsearch_probes": int(result.stats["gsearch_probes"]),
        "gsearch_lpt_runs": int(
            obs.counter("gsearch.probes") - obs.counter("gsearch.pruned")
        ),
        "contracted_chains": int(result.stats["contracted_chains"]),
        "batched_tsymb_cells": cost.stats.total_batched,
        "predicted_makespan": makespan,
    }


def main(argv=None) -> int:
    default_out = Path(__file__).resolve().parent.parent / "BENCH_schedule_scale.json"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("output", nargs="?", default=str(default_out))
    ap.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated task counts to sweep (default: %(default)s)",
    )
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s]

    rows = []
    print(f"{'case':>16s} | {'tasks':>7s} | {'edges':>7s} | {'build [s]':>9s} | "
          f"{'sched [s]':>9s} | {'tasks/s':>9s} | {'layers':>6s} | "
          f"{'probes':>7s} | {'LPT runs':>8s}")
    for family in sorted(FAMILIES):
        for n in sizes:
            row = bench_case(family, n)
            rows.append(row)
            print(f"{row['name']:>16s} | {row['tasks']:7d} | {row['edges']:7d} | "
                  f"{row['build_seconds']:9.2f} | {row['schedule_seconds']:9.2f} | "
                  f"{row['tasks_per_second']:9,.0f} | {row['layers']:6d} | "
                  f"{row['gsearch_probes']:7d} | {row['gsearch_lpt_runs']:8d}")

    payload = {
        "schema": "repro.obs.bench/1",
        "benchmark": "layer-based scheduler throughput on synthetic DAG families",
        "python": _platform.python_version(),
        "cores": CORES,
        "seed": SEED,
        "results": rows,
    }
    out_path = Path(args.output)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
