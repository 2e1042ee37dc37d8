#!/usr/bin/env python3
"""perfbench: one repeatable benchmark for pipeline, scale, service and runtime.

One workload, as the benchmark driver calls it (last stdout line is one
JSON object)::

    python3 perfbench/run.py --workload dag-scale --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --workload dag-scale --seed 1 --seconds 21 --trace 1

Everything, for a person (writes ``perfbench/results/*.json``)::

    python3 perfbench/run.py --all --seed 1            # end-to-end metrics
    python3 perfbench/run.py --all --seed 1 --trace    # + per-layer ledger
    python3 perfbench/run.py --all --quick --trace     # smoke, not for numbers

A timed run (``--trace 0``) starts the workload in three fresh
subprocesses one after another, each setting up from scratch and then
measuring for a third of ``--seconds`` with tracing off; samples are
pooled, ``setup_s`` is the median of the three set-ups.  A traced run
(``--trace 1``) is a separate single subprocess that re-executes the
operations stage by stage under spans and writes
``perfbench/results/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import harness
from harness import RESULTS, ROOT, geomean, lower_quartile, median

ROUNDS = 3  #: fresh subprocesses (set-ups) per timed run
QUICK_SECONDS = 1.0
CHILD_TIMEOUT = 170.0


# ----------------------------------------------------------------------
# child: one set-up + one measurement window
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    harness.use_source_tree()
    from workloads import WORKLOADS

    def on_term(signum, frame):  # run the finally blocks, then exit
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    workload = WORKLOADS[args.child]()
    try:
        workload.setup(args.seed, args.quick)
        if args.trace:
            tracer = harness.Tracer()
            result = workload.trace(args.seconds, tracer)
            tracer.write(
                RESULTS / f"trace-{args.child}.json",
                {"workload": args.child, "seed": args.seed, "cases": result["cases"]},
            )
        else:
            result = workload.measure(args.seconds)
            result["setup_s"] = result.pop("first_op_time") - args.spawned
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: spawn children, merge, report
# ----------------------------------------------------------------------
def spawn_child(name: str, seed: int, seconds: float, trace: int, quick: bool, tmp: Path):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--spawned", repr(time.time()),
    ] + (["--quick"] if quick else [])
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        # Ctrl-C reaches the child too (same process group); give its
        # finally blocks a moment to stop servers and workers, then insist
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def pool_rounds(children: List[Dict[str, Any]], field: str) -> Dict[str, List[float]]:
    """Samples of all rounds by key (case, request or sweep kind).  A key
    counts only if every round sampled it: the rounds of a time-bounded
    run do not all get equally far down a request list."""
    common = set.intersection(*(set(c[field]) for c in children))
    return {k: [v for c in children for v in c[field][k]] for k in sorted(common)}


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    """All children of one (workload, mode) run, merged into one record."""
    rounds = 1 if (trace or quick) else ROUNDS
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        children = [
            spawn_child(name, seed, seconds / rounds, trace, quick, tmp)
            for _ in range(rounds)
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record: Dict[str, Any] = {
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "problems": [p for c in children for p in c["problems"]][:20],
        "sizes": children[0]["sizes"],
    }
    if trace:
        record["per_layer"] = children[0]["per_layer"]
        record["sweeps"] = children[0]["sweeps"]
        return record

    samples = pool_rounds(children, "samples_ms")
    sweeps = [lower_quartile(v) for v in pool_rounds(children, "sweep_seconds").values()]
    first = children[0]
    record["end_to_end"] = {
        "setup_s": median([c["setup_s"] for c in children]),
        "op_p25_ms": geomean([lower_quartile(v) for v in samples.values()]),
        "ops_per_s": first["callers"] * first["ops_per_sweep"] * len(sweeps) / sum(sweeps),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in children]),
    }
    record["cases"] = len(samples)
    record["samples"] = sum(len(v) for v in samples.values())
    # for the human-facing report: per case, or per the coarser grouping a
    # workload with one case per request supplies
    by_case = pool_rounds(children, "report_ms") if "report_ms" in first else samples
    record["case_p25_ms"] = {case: lower_quartile(v) for case, v in by_case.items()}
    # The digest of a workload's deterministic facts lets compare.py check
    # that all runs of a seed agree.  A time-bounded serve-mix round covers
    # a prefix of its request list, so its fact set is not fixed and it
    # reports none (each fact is compared with expected.json either way).
    facts = {k: v for c in children for k, v in c["facts"].items()}
    record["facts_digest"] = (
        hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()
        if first["facts_are_fixed"] else None
    )
    return record


def metric_block(record: Dict[str, Any], declared: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
    """Exactly the declared metrics, each with its unit; a layer the
    workload leaves idle reports 0."""
    values = record[key]
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"perfbench: metrics not declared in BENCHMARK.json: {unknown}")
    if key == "end_to_end" and names - set(values):
        raise SystemExit(f"perfbench: end-to-end metrics missing: {sorted(names - set(values))}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def print_block(title: str, block: Dict[str, Any], only: Optional[Dict[str, Any]] = None) -> None:
    """Every metric by name, value and unit; with ``only``, just those the
    workload produced (the layers it leaves idle are left out)."""
    print(title)
    for name, entry in block.items():
        if only is not None and name not in only:
            continue
        print(f"  {name:<40s} {entry['value']:>16.6g} {entry['unit']}")


def driver_main(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload, one mode; last line of stdout is the result object."""
    harness.warn_if_loaded()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    key, declared = (
        ("per_layer", spec["per_layer"]) if args.trace else ("end_to_end", spec["end_to_end"])
    )
    block = metric_block(record, declared, key)
    print_block(f"{args.workload} (seed {args.seed}, {key}):", block, only=record[key])
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": block,
            }
        )
    )
    return 0


def all_main(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload; prints every metric and appends one run to a file."""
    harness.warn_if_loaded()
    seconds = QUICK_SECONDS if args.quick else args.seconds
    env = harness.env_stamp()
    run: Dict[str, Any] = {
        "env": env, "seed": args.seed, "seconds": seconds, "quick": args.quick,
        "rounds": 1 if args.quick else ROUNDS, "workloads": {},
    }
    failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        record = run_workload(name, args.seed, seconds, 0, args.quick)
        block = metric_block(record, spec["end_to_end"], "end_to_end")
        out = {k: record[k] for k in (
            "end_to_end", "attempted", "failed", "problems", "sizes", "cases", "samples",
            "facts_digest", "case_p25_ms",
        )}
        if args.trace:
            traced = run_workload(name, args.seed, seconds, 1, args.quick)
            layer_block = metric_block(traced, spec["per_layer"], "per_layer")
            out["per_layer"] = traced["per_layer"]  # what this workload produced
            # (the per-case stage table goes to trace-<workload>.json only)
            out["trace"] = {k: traced[k] for k in ("attempted", "failed", "problems", "sweeps")}
            out["failed"] += traced["failed"]
            out["attempted"] += traced["attempted"]
            # not gated, but printed with the end-to-end block so that it
            # is always in view
            block["trace_overhead_share"] = {
                "value": traced["per_layer"]["trace.overhead_share"], "unit": "ratio",
            }
        block["failed_share"] = {"value": out["failed"] / max(1, out["attempted"]), "unit": "ratio"}
        print_block(f"== {name} (seed {args.seed}) -- end to end", block)
        print(f"  {'p25 by case [ms]':<40s} " + ", ".join(
            f"{c}={v:.3g}" for c, v in out["case_p25_ms"].items()))
        if args.trace:
            print_block(f"== {name} -- per layer (traced run)", layer_block, only=traced["per_layer"])
        for problem in out["problems"] + out.get("trace", {}).get("problems", []):
            print(f"  FAILED CHECK: {problem}", file=sys.stderr)
        failed += out["failed"]
        run["workloads"][name] = out
    env["load_1min_end"] = harness.load_average()

    path = Path(args.out) if args.out else RESULTS / f"run-seed{args.seed}-{int(time.time())}.json"
    payload = {"schema": "perfbench.result/1", "runs": []}
    if path.is_file():
        payload = json.loads(path.read_text())
    payload["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"\nwrote {path} ({len(payload['runs'])} run(s))")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload (driver mode)")
    ap.add_argument("--all", action="store_true", help="run every workload and write a result file")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true", help="tiny sizes, about a second per workload; a smoke test, not for numbers")
    ap.add_argument("--out", help="result file of --all; a run is appended if it exists")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    harness.require_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        return all_main(args, spec)
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)} (or use --all)")
    return driver_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
