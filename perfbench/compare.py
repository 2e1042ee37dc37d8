#!/usr/bin/env python3
"""Compare perfbench result files: ``compare.py A.json B.json [more...]``.

Every file holds one *set* of runs of one version of the program (``run.py
--all --out FILE`` appends a run each time it is called).  The first file
is the parent; every other file is compared against it.  For each
(workload, end-to-end metric) row the tool prints both medians, the
relative change (positive = worse), the bound from ``BENCHMARK.json`` and
one verdict:

``ok``          the candidate's median is not worse than the parent's by
                more than the bound
``regressed``   it is
``unresolved``  the runs of one side spread (max - min over their median)
                wider than the bound, so neither of the above can be said
                -- unless every candidate run reads better than every
                parent run (``ok``), or every one reads worse and the
                medians differ by more than the bound (``regressed``)

Exit code 1 on any ``regressed``.  Two sets of runs of the *same* code
must come out without ``regressed`` rows -- that is the benchmark's own
repeatability test.  The deterministic facts of a workload (makespans,
counts) must be identical in all runs of one seed; a difference is
reported and also exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from harness import ROOT, median


def load_runs(path: str) -> List[Dict[str, Any]]:
    payload = json.loads(Path(path).read_text())
    runs = payload.get("runs")
    if not runs:
        raise SystemExit(f"{path}: no runs")
    return runs


def spread(values: Sequence[float]) -> float:
    """Range of same-side runs as a share of their median."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / abs(median(values))


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict[str, Any]:
    """Judge candidate runs ``b`` against parent runs ``a`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = median(a), median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    wide = max(spread(a), spread(b)) > bound
    all_better = all(sign * y < sign * x for x in a for y in b)
    all_worse = all(sign * y > sign * x for x in a for y in b)
    if wide and not all_better and not (all_worse and worse_by > bound):
        word = "unresolved"
    else:
        word = "regressed" if worse_by > bound and not all_better else "ok"
    return {
        "a": med_a, "b": med_b, "worse_by": worse_by, "bound": bound,
        "spread_a": spread(a), "spread_b": spread(b), "verdict": word,
    }


def compare(a_runs, b_runs, spec) -> List[Dict[str, Any]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["workloads"][workload]["end_to_end"][name] for r in a_runs if workload in r["workloads"]]
            b = [r["workloads"][workload]["end_to_end"][name] for r in b_runs if workload in r["workloads"]]
            if a and b:
                rows.append(
                    {"workload": workload, "metric": name, "unit": metric["unit"],
                     **verdict(a, b, metric["better"], metric["bound"])}
                )
    return rows


def fact_mismatches(runs: Sequence[Dict[str, Any]]) -> List[str]:
    """Workloads whose deterministic facts differ between runs of one seed."""
    seen: Dict[tuple, str] = {}
    out = []
    for run in runs:
        for workload, record in run["workloads"].items():
            digest = record.get("facts_digest")
            if digest is None:
                continue
            key = (workload, run["seed"], run.get("quick", False))
            if seen.setdefault(key, digest) != digest:
                out.append(f"{workload} (seed {run['seed']})")
    return sorted(set(out))


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load_runs(path) for path in argv]
    status = 0
    for path, runs in zip(argv[1:], sets[1:]):
        print(f"{argv[0]} ({len(sets[0])} runs)  vs  {path} ({len(runs)} runs)")
        print(f"  {'workload':<14s}{'metric':<13s}{'parent':>11s}{'candidate':>11s}"
              f"{'worse by':>10s}{'bound':>8s}{'spread a/b':>15s}  verdict")
        for row in compare(sets[0], runs, spec):
            print(
                f"  {row['workload']:<14s}{row['metric']:<13s}{row['a']:>11.5g}{row['b']:>11.5g}"
                f"{row['worse_by']:>+10.1%}{row['bound']:>8.0%}"
                f"{row['spread_a']:>8.1%}/{row['spread_b']:<6.1%}  {row['verdict']}"
            )
            if row["verdict"] == "regressed":
                status = 1
    differing = fact_mismatches([run for runs in sets for run in runs])
    for item in differing:
        print(f"deterministic facts DIFFER between runs: {item}")
        status = 1
    if not differing:
        print("deterministic facts (makespans, counts): identical in all runs of a seed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
