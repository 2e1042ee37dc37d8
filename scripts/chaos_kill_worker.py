#!/usr/bin/env python
"""Cluster chaos check: SIGKILL a worker mid-batch, compare to serial.

The ``cluster-chaos`` CI job (and ``tests/test_cluster.py``) runs this
script in two modes:

**Kill mode** (default):

1. **reference** -- one functional IRK time step runs uninterrupted on
   the :class:`~repro.runtime.SerialBackend` (seeded faults and retries
   active, so the determinism claim covers the interesting paths) and
   is summarised: a digest per output variable, every failure record,
   the retry and re-distribution accounting;
2. **worker kill** -- the same step runs on a localhost
   :class:`~repro.runtime.ClusterBackend`; after ``--kill-after``
   gathered results the backend SIGKILLs one worker.  The coordinator
   detects the lost connection, requeues the dead worker's in-flight
   and queued tasks onto the survivors, and the run *completes* -- the
   summary must be bit-identical to the serial reference, and the loss
   must be reported exactly once: one ``worker_crash`` record of the
   killed worker and ``cluster.worker_losses == 1``;
3. **kill + parent crash + resume** -- the step runs journaled in a
   subprocess with both chaos hooks armed: the worker SIGKILL *and* the
   journal's ``--crash-after`` parent kill (``os._exit(137)`` tearing
   the final record).  Resuming the journal in this process must again
   be bit-identical to the uninterrupted serial reference.

**Straggler mode** (``--straggler SECONDS``): one cluster worker is
made a deliberate straggler (it sleeps before every task body) and the
run executes under a quantile :class:`~repro.recovery.SpeculationPolicy`.
The check passes iff at least one speculative backup *won* against the
remote straggler and the variables still match the serial reference.
``--trace-out`` exports the per-worker Perfetto tracks (the backup race
is visible as a ``task_backup`` span on another worker's track).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faults import FaultPlan, RetryPolicy  # noqa: E402
from repro.obs import Instrumentation  # noqa: E402
from repro.ode import MethodConfig, bruss2d, run_functional_step  # noqa: E402
from repro.recovery import SpeculationPolicy, array_digest  # noqa: E402

#: seeded fault plan: failures with recovery, so the degraded cluster run
#: must reproduce retry accounting, not just outputs
PLAN = FaultPlan(seed=11, failure_rate=0.3)
RETRY = RetryPolicy(seed=11)
CFG = MethodConfig("irk", K=4, m=3)


def fresh(stage_dir: Path) -> Path:
    """Drop a stale journal so the stage re-runs instead of demanding
    ``resume=True`` -- the script is safe to re-run in one workdir."""
    (stage_dir / "journal.jsonl").unlink(missing_ok=True)
    return stage_dir


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="scratch directory for journals and checkpoints")
    ap.add_argument("--n", type=int, default=40, help="BRUSS2D N (default 40)")
    ap.add_argument("--workers", type=int, default=3,
                    help="cluster workers (default 3)")
    ap.add_argument("--kill-worker", type=int, default=1,
                    help="worker id to SIGKILL (default 1)")
    ap.add_argument("--kill-after", type=int, default=2,
                    help="results gathered before the SIGKILL (default 2)")
    ap.add_argument("--crash-after", type=int, default=5,
                    help="journal records committed before the parent "
                    "crash in step 3 (default 5)")
    ap.add_argument("--straggler", type=float, default=None, metavar="SECONDS",
                    help="straggler mode: slow one worker by this much per "
                    "task and assert a speculation win instead of killing")
    ap.add_argument("--trace-out", type=Path, default=None,
                    help="straggler mode: write the per-worker Perfetto "
                    "trace here")
    ap.add_argument("--crash-child", action="store_true",
                    help=argparse.SUPPRESS)  # internal: the process that dies
    args = ap.parse_args(argv)
    problem = bruss2d(args.n)

    from repro.runtime import ClusterBackend  # noqa: E402

    if args.crash_child:
        run_functional_step(
            problem, CFG, args.workdir / "chaos",
            faults=PLAN, retry=RETRY, crash_after=args.crash_after,
            backend=ClusterBackend(
                workers=args.workers,
                chaos_kill=(args.kill_worker, args.kill_after),
            ),
        )
        # the journal's crash hook must have killed us before getting here
        print("ERROR: crash hook never fired", file=sys.stderr)
        return 3

    args.workdir.mkdir(parents=True, exist_ok=True)

    # 1. uninterrupted serial reference run
    ref_run, _, _ = run_functional_step(
        problem, CFG, fresh(args.workdir / "reference"),
        faults=PLAN, retry=RETRY,
    )
    reference = summarize(ref_run)
    print(f"reference (serial): {reference['tasks_executed']} tasks, "
          f"{reference['retries']} retries")

    if args.straggler is not None:
        return _straggler_check(args, problem, reference)

    # 2. cluster run with a worker SIGKILLed mid-batch: must complete
    #    on the survivors, bit-identical to the serial reference, and
    #    report the loss once
    obs = Instrumentation()
    kill_run, _, _ = run_functional_step(
        problem, CFG, fresh(args.workdir / "killed"), faults=PLAN, retry=RETRY,
        backend=ClusterBackend(
            workers=args.workers,
            chaos_kill=(args.kill_worker, args.kill_after),
        ),
        obs=obs,
    )
    killed = summarize(kill_run)
    if killed != reference:
        print("ERROR: cluster run with a killed worker differs from the "
              "serial reference:", file=sys.stderr)
        print(json.dumps({"reference": reference, "killed": killed},
                         indent=2), file=sys.stderr)
        return 1
    crashes = [(c["backend"], c["worker"]) for c in obs.records_of("worker_crash")]
    losses = obs.counter("cluster.worker_losses")
    if crashes != [("cluster", args.kill_worker)] or losses != 1:
        print(f"ERROR: expected one worker_crash record of cluster worker "
              f"{args.kill_worker} and cluster.worker_losses == 1, got "
              f"{crashes} and {losses:g}", file=sys.stderr)
        return 1
    print(f"worker {args.kill_worker} SIGKILLed after {args.kill_after} "
          f"results: run completed on the survivors, bit-identical; "
          f"reported by one worker_crash record")

    # 3. worker kill + parent crash (torn journal) + resume
    fresh(args.workdir / "chaos")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workdir", str(args.workdir), "--n", str(args.n),
         "--workers", str(args.workers),
         "--kill-worker", str(args.kill_worker),
         "--kill-after", str(args.kill_after),
         "--crash-after", str(args.crash_after), "--crash-child"],
    )
    if proc.returncode != 137:
        print(f"ERROR: crash child exited {proc.returncode}, expected 137",
              file=sys.stderr)
        return 2
    journal_path = args.workdir / "chaos" / "journal.jsonl"
    if journal_path.read_text().endswith("\n"):
        print("ERROR: journal has no torn final line", file=sys.stderr)
        return 2
    print(f"parent crashed after {args.crash_after} committed records "
          f"(journal ends mid-line, exit 137)")

    res_run, summary, _ = run_functional_step(
        problem, CFG, args.workdir / "chaos",
        resume=True, faults=PLAN, retry=RETRY,
        backend=ClusterBackend(workers=args.workers),
    )
    resumed = summarize(res_run)
    if summary["resumed_tasks"] != args.crash_after:
        print(f"ERROR: resumed {summary['resumed_tasks']} tasks, "
              f"expected the {args.crash_after} journaled ones",
              file=sys.stderr)
        return 1
    if resumed != reference:
        print("ERROR: resumed cluster run differs from the uninterrupted "
              "serial reference:", file=sys.stderr)
        print(json.dumps({"reference": reference, "resumed": resumed},
                         indent=2), file=sys.stderr)
        return 1
    print(f"resumed: {summary['resumed_tasks']} tasks restored, "
          f"{resumed['tasks_executed'] - summary['resumed_tasks']} re-executed")
    print("cluster worker-kill check passed: killed and killed+crashed runs "
          "are bit-identical to the serial reference")
    return 0


def _straggler_check(args, problem, reference: dict) -> int:
    """Race speculation against one deliberately slow remote worker."""
    from repro.obs.perfetto import (  # noqa: E402
        span_events, worker_span_events, write_trace,
    )
    from repro.runtime import ClusterBackend  # noqa: E402

    obs = Instrumentation()
    slow = args.workers - 1
    run, summary, _ = run_functional_step(
        problem, CFG, fresh(args.workdir / "straggler"),
        speculation=SpeculationPolicy(factor=1.5, quantile=0.5, min_samples=1),
        backend=ClusterBackend(
            workers=args.workers,
            worker_delay={slow: args.straggler},
            poll_interval=0.005,
        ),
        obs=obs,
    )
    wins = summary["speculation_wins"]
    print(f"straggler worker {slow} (+{args.straggler:g}s/task): "
          f"{wins} speculation win(s), {summary['speculation_losses']} loss(es)")
    if args.trace_out is not None:
        path = write_trace(
            args.trace_out, span_events(obs) + worker_span_events(obs)
        )
        print(f"wrote Perfetto trace: {path}")
    if wins < 1:
        print("ERROR: no speculative backup won against the remote straggler",
              file=sys.stderr)
        return 1
    got = summarize(run)["variables"]
    # faults are off in this mode; only the variables must match
    if got != reference["variables"]:
        print("ERROR: straggler-run variables differ from the serial "
              "reference", file=sys.stderr)
        return 1
    print("cluster straggler check passed: speculation beat the remote "
          "straggler with identical variables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
