#!/usr/bin/env python
"""Kill-and-resume chaos check: crash a journaled run, resume, compare.

The CI chaos job (and ``tests/test_recovery.py``) runs this script:

1. **reference** -- one functional IRK time step runs uninterrupted
   (journaled, in its own directory) and its outcome is summarised:
   a digest per output variable, every failure record, the retry and
   re-distribution accounting;
2. **crash** -- the same step runs in a *subprocess* with the journal's
   deterministic chaos hook armed (``--crash-after K``): after ``K``
   committed task records the journal tears the next append mid-line and
   the process dies with ``os._exit(137)``, like a real kill;
   Killing the parent must not leak shared memory either: once the
   orphaned workers have noticed and gone, every ``/dev/shm`` segment
   the crashed run created (the pool's arena chunks) has to be gone too;
3. **resume** -- the step re-runs in this process with ``resume=True``:
   the torn final line is dropped, the ``K``-task prefix is restored
   from the journal, and only the remaining tasks execute.

The script exits 0 iff the crashed-and-resumed run is **bit-identical**
to the uninterrupted reference: same variable digests, same failure
records, same retry/backoff/re-distribution accounting, and a resumed
journal whose records name the same tasks in the same order as the
reference journal's.  Faults and retries are injected (seeded) so the
determinism claim covers the interesting paths, not just the clean one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faults import FaultPlan, RetryPolicy  # noqa: E402
from repro.ode import MethodConfig, bruss2d, run_functional_step  # noqa: E402
from repro.recovery import RunJournal, array_digest  # noqa: E402

SHM = Path("/dev/shm")


def shm_segments() -> set:
    """Names under ``/dev/shm`` (empty where there is no such directory)."""
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def wait_for_shm_cleanup(before: set, timeout: float = 15.0) -> set:
    """Segments created since ``before`` that outlive ``timeout`` seconds.

    A parent killed with ``os._exit`` unlinks nothing itself: its
    workers exit when they notice (within a second or two) and the
    resource tracker they shared then removes what the run registered.
    """
    deadline = time.monotonic() + timeout
    while True:
        leaked = shm_segments() - before
        if not leaked or time.monotonic() > deadline:
            return leaked
        time.sleep(0.1)


#: seeded fault plan: failures with recovery, so the resumed run must
#: reproduce retry accounting, not just outputs
PLAN = FaultPlan(seed=11, failure_rate=0.3)
RETRY = RetryPolicy(seed=11)
CFG = MethodConfig("irk", K=4, m=3)


def summarize(run) -> dict:
    return {
        "variables": {
            name: array_digest(arr) for name, arr in sorted(run.variables.items())
        },
        "failures": [f.to_dict() for f in run.failures],
        "tasks_executed": run.stats.tasks_executed,
        "retries": run.stats.retries,
        "backoff_seconds": run.stats.backoff_seconds,
        "redistributed_bytes": run.stats.redistributed_bytes,
    }


def journal_order(path: Path) -> list:
    """The ``(kind, task)`` sequence of a journal's records."""
    return [(r["kind"], r.get("task")) for r in RunJournal(path).load().records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="scratch directory for journals and checkpoints")
    ap.add_argument("--n", type=int, default=40, help="BRUSS2D N (default 40)")
    ap.add_argument("--crash-after", type=int, default=5,
                    help="task records committed before the injected crash")
    ap.add_argument("--backend", default="serial",
                    metavar="serial|pool[:WORKERS]",
                    help="execution backend of every run (crash included); "
                    "the resumed pool run must stay bit-identical to the "
                    "serial reference (default: serial)")
    ap.add_argument("--crash-child", action="store_true",
                    help=argparse.SUPPRESS)  # internal: the process that dies
    args = ap.parse_args(argv)
    problem = bruss2d(args.n)

    from repro.runtime.backends import parse_backend_spec  # noqa: E402

    def backend():
        # a fresh instance per run: pool backends hold worker processes
        return parse_backend_spec(args.backend)

    if args.crash_child:
        run_functional_step(
            problem, CFG, args.workdir / "chaos",
            faults=PLAN, retry=RETRY, crash_after=args.crash_after,
            backend=backend(),
        )
        # the chaos hook must have killed us before getting here
        print("ERROR: crash hook never fired", file=sys.stderr)
        return 3

    args.workdir.mkdir(parents=True, exist_ok=True)

    # 1. uninterrupted reference run (always serial: the pool run must
    #    reproduce the serial outcome bit-for-bit)
    ref_run, _, _ = run_functional_step(
        problem, CFG, args.workdir / "reference", faults=PLAN, retry=RETRY
    )
    reference = summarize(ref_run)
    print(f"reference: {reference['tasks_executed']} tasks, "
          f"{reference['retries']} retries")

    # 2. crash a fresh run mid-step (in a subprocess; the hook _exits)
    shm_before = shm_segments()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workdir", str(args.workdir), "--n", str(args.n),
         "--crash-after", str(args.crash_after),
         "--backend", args.backend, "--crash-child"],
    )
    if proc.returncode != 137:
        print(f"ERROR: crash child exited {proc.returncode}, expected 137",
              file=sys.stderr)
        return 2
    journal_path = args.workdir / "chaos" / "journal.jsonl"
    raw = journal_path.read_text()
    if raw.endswith("\n"):
        print("ERROR: journal has no torn final line", file=sys.stderr)
        return 2
    print(f"crashed after {args.crash_after} committed records "
          f"(journal ends mid-line, exit 137)")
    leaked = wait_for_shm_cleanup(shm_before)
    if leaked:
        print(f"ERROR: the killed run left shared memory behind: "
              f"{sorted(leaked)}", file=sys.stderr)
        return 2
    print("no shared-memory segment of the killed run is left in /dev/shm")

    # 3. resume and compare bit-for-bit
    res_run, summary, _ = run_functional_step(
        problem, CFG, args.workdir / "chaos",
        resume=True, faults=PLAN, retry=RETRY, backend=backend(),
    )
    resumed = summarize(res_run)
    if summary["resumed_tasks"] != args.crash_after:
        print(f"ERROR: resumed {summary['resumed_tasks']} tasks, "
              f"expected the {args.crash_after} journaled ones",
              file=sys.stderr)
        return 1
    if resumed != reference:
        print("ERROR: resumed run differs from the uninterrupted reference:",
              file=sys.stderr)
        print(json.dumps({"reference": reference, "resumed": resumed},
                         indent=2), file=sys.stderr)
        return 1
    ref_order = journal_order(args.workdir / "reference" / "journal.jsonl")
    res_order = journal_order(journal_path)
    if res_order != ref_order:
        print("ERROR: resumed journal records differ in kind or order from "
              "the reference journal's:", file=sys.stderr)
        print(json.dumps({"reference": ref_order, "resumed": res_order}),
              file=sys.stderr)
        return 1
    print(f"resumed: {summary['resumed_tasks']} tasks restored, "
          f"{resumed['tasks_executed'] - summary['resumed_tasks']} re-executed")
    print("kill-resume check passed: resumed run is bit-identical "
          "to the uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
