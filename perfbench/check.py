"""Output checks: what must hold before an operation counts as verified.

An operation that fails one of these checks is counted in ``failed``
(and the run reports ``"correct": false``); timing a wrong answer fast
is not a result.

* Every schedule is re-validated by the benchmark's *own* call to
  ``repro.core.schedule.validate`` and its makespan is bounded below by
  the compute-only bound ``max(sum Tcomp / P, max Tcomp(t) / width(t))``.
* For seed 1 the deterministic *facts* of a run (makespans as
  ``float.hex()``, layer / probe / task counts, pinned response fields)
  must equal ``perfbench/expected.json``.  Other seeds check invariants
  only.  ``python perfbench/check.py --regenerate`` rewrites the file
  after an intended decision change.
* ``serve-mix``: status 200, the expected ``X-Cache`` value, hit bytes
  sha256-equal to the cold bytes of the same request, and the pinned
  ``predicted_makespan`` / ``makespan`` / ``tasks`` fields only -- never
  whole-body hashes, so response-schema additions do not break the
  benchmark.
* ``runtime-step``: every backend's output ``array_digest``s equal the
  serial reference.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
PINNED_SEED = 1


def fact(value: Any) -> Any:
    """Canonical, exactly comparable form of a deterministic value."""
    return value.hex() if isinstance(value, float) else value


def expected_facts(workload: str, seed: int, quick: bool) -> Optional[Dict[str, Any]]:
    """The pinned facts of ``workload``, or ``None`` when nothing is
    pinned for this seed / size."""
    if seed != PINNED_SEED or quick or not EXPECTED_PATH.is_file():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(workload)


def compare_facts(
    observed: Mapping[str, Any], expected: Optional[Mapping[str, Any]]
) -> List[str]:
    """Mismatches between observed facts and the pinned ones.

    Only observed keys are compared: a time-bounded run covers a prefix
    of the workload's request list, not all of it.
    """
    if expected is None:
        return []
    problems = []
    for key, value in observed.items():
        if key not in expected:
            problems.append(f"fact {key!r} is not pinned in expected.json")
        elif expected[key] != value:
            problems.append(f"fact {key!r}: got {value!r}, pinned {expected[key]!r}")
    return problems


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def makespan_lower_bound(graph, cost, nprocs: int) -> float:
    """Compute-only lower bound on any makespan of ``graph`` on ``nprocs``
    cores: the work area spread over all cores, and the longest task at
    the widest group it may use."""
    area = 0.0
    longest = 0.0
    for task in graph:
        seq = cost.sequential_time(task)
        area += seq
        longest = max(longest, seq / task.clamp_procs(nprocs))
    return max(area / nprocs, longest)


def check_schedule(result, platform, graph, cost, makespan: float) -> List[str]:
    """Validate one (layered) pipeline result independently of the pipeline."""
    from repro.core.schedule import validate

    problems = []
    scheduling = result.scheduling
    try:
        validate(scheduling.layered, platform, graph=graph)
        result.placement.validate(graph)
    except ValueError as exc:
        problems.append(f"invalid schedule: {exc}")
    if set(scheduling.scheduled_tasks()) != set(graph):
        problems.append("schedule does not cover the graph's tasks exactly")
    bound = makespan_lower_bound(graph, cost, platform.total_cores)
    if not math.isfinite(makespan) or makespan < bound * (1 - 1e-12):
        problems.append(f"makespan {makespan!r} below the lower bound {bound!r}")
    return problems


# ----------------------------------------------------------------------
# service responses
# ----------------------------------------------------------------------
def check_response(
    status: int,
    x_cache: Optional[str],
    want_cache: str,
    body_sha: str,
    cold_sha: Optional[str],
) -> List[str]:
    """Transport-level checks of one response."""
    problems = []
    if status != 200:
        problems.append(f"status {status}")
    if x_cache != want_cache:
        problems.append(f"X-Cache {x_cache!r}, expected {want_cache!r}")
    if cold_sha is not None and body_sha != cold_sha:
        problems.append("hit bytes differ from the cold bytes of the same request")
    return problems


def response_facts(index: str, endpoint: str, body: Mapping[str, Any]) -> Dict[str, Any]:
    """The pinned fields of one cold response (and their invariants)."""
    facts = {
        f"{index}.tasks": fact(int(body["tasks"])),
        f"{index}.predicted_makespan": fact(float(body["predicted_makespan"])),
    }
    if endpoint == "simulate":
        facts[f"{index}.makespan"] = fact(float(body["makespan"]))
    return facts


def check_response_fields(endpoint: str, body: Mapping[str, Any]) -> List[str]:
    problems = []
    if not (isinstance(body.get("tasks"), int) and body["tasks"] >= 1):
        problems.append(f"tasks field {body.get('tasks')!r}")
    fields = ["predicted_makespan"] + (["makespan"] if endpoint == "simulate" else [])
    for name in fields:
        value = body.get(name)
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            problems.append(f"{name} field {value!r}")
    return problems


# ----------------------------------------------------------------------
# runtime outputs
# ----------------------------------------------------------------------
def output_digests(run) -> Dict[str, str]:
    from repro.recovery import array_digest

    return {name: array_digest(arr) for name, arr in sorted(run.variables.items())}


def check_digests(got: Mapping[str, str], reference: Mapping[str, str]) -> List[str]:
    if got == reference:
        return []
    bad = sorted(k for k in set(got) | set(reference) if got.get(k) != reference.get(k))
    return [f"outputs differ from the serial reference: {', '.join(bad)}"]


# ----------------------------------------------------------------------
def regenerate() -> int:
    """Recompute every workload's pinned facts in process and rewrite
    ``expected.json``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    harness.use_source_tree()
    from workloads import WORKLOADS

    out = {}
    for name, factory in WORKLOADS.items():
        print(f"pinning {name} ...", flush=True)
        out[name] = factory().pinned_facts(PINNED_SEED)
    EXPECTED_PATH.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python perfbench/check.py --regenerate")
    raise SystemExit(regenerate())
