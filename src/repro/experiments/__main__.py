"""Regenerate every table and figure of the paper from the command line.

Usage::

    python -m repro.experiments                 # all artefacts, full scale
    python -m repro.experiments --quick         # reduced scale (~1 min)
    python -m repro.experiments --only fig14 table1
    python -m repro.experiments --out results/  # also write text files
    python -m repro.experiments --trace-out trace.json  # Perfetto trace
    python -m repro.experiments --faults 7:0.15 --quick  # fault sweep

Each artefact prints its paper-style table; with ``--out`` the tables are
additionally written to ``<out>/<artefact>.txt``.  With ``--trace-out``
one *representative* instrumented pipeline run per selected artefact
(the artefact's workload family at reduced scale) is exported as a
single merged Chrome trace-event / Perfetto JSON file -- load it at
``ui.perfetto.dev`` to inspect where each artefact's time goes.

``--faults SEED:RATE[:LAYER:NODES]`` appends a fault-injection sweep:
every paper solver simulated fault-free and under the deterministic
fault plan, reporting degraded makespans, slowdowns and retry counts
(see :mod:`repro.experiments.faults_sweep`).

``--speculate FACTOR[:QUANTILE]`` appends a speculation sweep: every
paper solver simulated under a deterministic straggler plan with and
without speculative backup attempts, reporting the recovered penalty
and backup win/loss counts (see
:mod:`repro.experiments.speculation_sweep`).

``--shootout`` appends the scheduler shoot-out: every zoo scheduler
(g-search, AMTHA, moldable dual approximation, CPA) runs on every
adversarial scenario of :func:`repro.graphs.adversarial_suite` and a
per-regime win matrix is printed; ``--shootout-out PATH`` additionally
writes the diff-gateable ``repro.obs.bench/1`` JSON (the committed
``BENCH_shootout.json``), and ``--registry-dir`` records each winning
run (see :mod:`repro.experiments.shootout`).

``--checkpoint-dir DIR`` runs one *functional* solver step under a
write-ahead journal + checkpoint store rooted at ``DIR``; with
``--resume`` the journaled tasks are skipped and their outputs restored
(see :mod:`repro.experiments.recovery_run`).  ``--backend pool[:W]``
executes that step on a forked process pool instead of in-process, and
``--backend cluster[:W]`` on socket workers with heartbeat failure
detection and work stealing (see :mod:`repro.runtime.backends`).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from ..ode import MethodConfig, bruss2d, default_config
from .fig13_scheduling import run_fig13
from .fig14_collectives import run_fig14_left, run_fig14_right
from .fig15_irk_diirk_epol import run_fig15
from .fig16_pab_pabm import run_fig16
from .fig17_npb import run_fig17
from .fig18_hybrid import run_fig18
from .fig19_mpi_openmp import run_fig19
from .table1_counts import format_table1, run_table1


def _tables(results) -> List[str]:
    if isinstance(results, list):
        return [r.table_str() for r in results]
    return [results.table_str()]


ARTEFACTS: Dict[str, Callable[[bool], List[str]]] = {
    "table1": lambda quick: [format_table1(run_table1())],
    "fig13": lambda quick: _tables(run_fig13(quick)),
    "fig14": lambda quick: [
        run_fig14_left().table_str(),
        *[r.table_str() for r in run_fig14_right()],
    ],
    "fig15": lambda quick: _tables(run_fig15(quick)),
    "fig16": lambda quick: _tables(run_fig16(quick)),
    "fig17": lambda quick: _tables(run_fig17(quick)),
    "fig18": lambda quick: _tables(run_fig18(quick)),
    "fig19": lambda quick: [run_fig19(quick=quick).table_str()],
}

#: solver configuration whose time step stands in for each artefact in
#: ``--trace-out`` exports (the artefact's workload family)
REPRESENTATIVE: Dict[str, MethodConfig] = {
    "table1": MethodConfig("irk", K=4, m=3),
    "fig13": default_config("pabm"),
    "fig14": default_config("irk"),
    "fig15": default_config("diirk"),
    "fig16": default_config("pab"),
    "fig17": default_config("epol"),
    "fig18": default_config("pabm"),
    "fig19": default_config("irk"),
}


def _representative_run(name: str, quick: bool):
    """One instrumented pipeline run standing in for artefact ``name``."""
    from ..cluster.platforms import chic
    from ..mapping.strategies import consecutive
    from .common import ode_pipeline

    n = 120 if quick else 360
    cores = 64 if quick else 256
    return ode_pipeline(
        bruss2d(n), REPRESENTATIVE[name], chic().with_cores(cores), consecutive()
    )


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from ..faults import parse_faults_spec
    from ..obs.cli import spec_type
    from ..recovery import parse_speculation_spec
    from ..runtime.backends import parse_backend_spec

    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    ap.add_argument("--quick", action="store_true", help="reduced problem sizes")
    ap.add_argument(
        "--only",
        nargs="+",
        choices=sorted(ARTEFACTS),
        help="restrict to specific artefacts",
    )
    ap.add_argument("--out", type=Path, help="directory for text output files")
    ap.add_argument(
        "--trace-out",
        type=Path,
        help="write a merged Perfetto trace-event JSON of one representative "
        "pipeline run per selected artefact",
    )
    ap.add_argument(
        "--registry-dir",
        metavar="DIR",
        help="append one RunRecord per selected artefact (its representative "
        "pipeline run) to the run registry rooted at DIR",
    )
    ap.add_argument(
        "--faults",
        type=spec_type(parse_faults_spec),
        metavar="SEED:RATE[:LAYER:NODES]",
        help="append a deterministic fault-injection sweep over the paper "
        "solvers (e.g. 7:0.15 or 7:0.15:1:2 to also lose 2 nodes after "
        "layer 1)",
    )
    ap.add_argument(
        "--speculate",
        type=spec_type(parse_speculation_spec),
        metavar="FACTOR[:QUANTILE]",
        help="append a speculation sweep over the paper solvers: backup "
        "attempts launch once a task runs FACTOR times past its estimate "
        "(or past the QUANTILE of completed attempts; e.g. 1.5 or 1.3:0.9)",
    )
    ap.add_argument(
        "--straggler-faults",
        type=spec_type(parse_faults_spec),
        metavar="SEED:RATE",
        default="7:0.5",
        help="straggler plan of the --speculate sweep (default 7:0.5, "
        "i.e. straggler rate 0.25)",
    )
    ap.add_argument(
        "--shootout",
        action="store_true",
        help="append the scheduler shoot-out: every zoo scheduler on every "
        "adversarial scenario, scored as a per-regime win matrix",
    )
    ap.add_argument(
        "--shootout-out",
        type=Path,
        metavar="PATH",
        help="with --shootout: write the diff-gateable benchmark JSON "
        "(schema repro.obs.bench/1) to PATH",
    )
    ap.add_argument(
        "--shootout-seed",
        type=int,
        default=0,
        help="base seed of the adversarial scenario suite (default 0)",
    )
    ap.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="run one functional IRK step under a write-ahead journal + "
        "checkpoint store rooted at DIR",
    )
    ap.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint-dir: resume from the journal, skipping "
        "already-completed tasks",
    )
    ap.add_argument(
        "--backend",
        type=spec_type(parse_backend_spec),
        metavar="serial|pool[:W]|cluster[:W]",
        default="serial",
        help="execution backend of the --checkpoint-dir functional step: "
        "'serial' (default), 'pool' for a forked process pool or "
        "'cluster' for socket workers with heartbeat failure detection, "
        "optionally with a worker count (e.g. pool:4, cluster:4)",
    )
    args = ap.parse_args(argv)

    # a sweep/recovery flag alone runs just that; combine with --only for both
    if (
        args.faults or args.speculate or args.checkpoint_dir or args.shootout
    ) and not args.only:
        selected = []
    else:
        selected = args.only or sorted(ARTEFACTS)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    for name in selected:
        # perf_counter, not time.time(): the printed per-artefact duration
        # must stay monotonic under wall-clock (NTP) adjustments
        t0 = time.perf_counter()
        print(f"### {name} " + "#" * (60 - len(name)))
        tables = ARTEFACTS[name](args.quick)
        text = "\n\n".join(tables)
        print(text)
        print(f"({time.perf_counter() - t0:.1f}s)\n")
        if args.out:
            (args.out / f"{name}.txt").write_text(text + "\n")
    if args.faults:
        from .faults_sweep import run_faults_sweep

        t0 = time.perf_counter()
        print("### faults " + "#" * 54)
        text = run_faults_sweep(args.faults, args.quick).table_str()
        print(text)
        print(f"({time.perf_counter() - t0:.1f}s)\n")
        if args.out:
            (args.out / "faults.txt").write_text(text + "\n")
    if args.speculate:
        from .speculation_sweep import run_speculation_sweep

        t0 = time.perf_counter()
        print("### speculation " + "#" * 49)
        text = run_speculation_sweep(
            args.speculate, args.straggler_faults, args.quick
        ).table_str()
        print(text)
        print(f"({time.perf_counter() - t0:.1f}s)\n")
        if args.out:
            (args.out / "speculation.txt").write_text(text + "\n")
    if args.shootout:
        from .shootout import run_shootout

        t0 = time.perf_counter()
        print("### shootout " + "#" * 52)
        shoot = run_shootout(quick=args.quick, seed=args.shootout_seed)
        text = shoot.table_str()
        print(text)
        print(f"({time.perf_counter() - t0:.1f}s)\n")
        if args.out:
            (args.out / "shootout.txt").write_text(text + "\n")
        if args.shootout_out:
            path = shoot.write_bench(args.shootout_out)
            print(f"wrote shoot-out benchmark JSON to {path}")
        if args.registry_dir:
            from ..obs.registry import RunRegistry, record_from_result

            registry = RunRegistry(args.registry_dir)
            recorded = 0
            for cell in shoot.cells:
                if cell.result is None:
                    continue
                registry.append(
                    record_from_result(
                        cell.result,
                        spec={
                            "artefact": "shootout",
                            "scheduler": cell.scheduler,
                            "scenario": cell.scenario,
                            "regime": cell.regime,
                            "quick": bool(args.quick),
                        },
                        timestamp=time.time(),
                    )
                )
                recorded += 1
            print(
                f"appended {recorded} shoot-out run record(s) to {registry.path}"
            )
    if args.checkpoint_dir:
        from .recovery_run import recovery_line, run_checkpointed_step

        policy = parse_speculation_spec(args.speculate) if args.speculate else None
        _, rec = run_checkpointed_step(
            bruss2d(120 if args.quick else 250),
            MethodConfig("irk", K=4, m=3),
            args.checkpoint_dir,
            resume=args.resume,
            speculation=policy,
            backend=parse_backend_spec(args.backend),
        )
        print("### recovery " + "#" * 52)
        print(
            f"checkpointed IRK step in {args.checkpoint_dir} "
            f"({rec.get('backend', 'serial')} backend): {recovery_line(rec)}"
        )
    if (args.trace_out or args.registry_dir) and selected:
        # one representative run per artefact, shared by both exports
        runs = [(name, _representative_run(name, args.quick)) for name in selected]
        if args.trace_out:
            from ..obs.perfetto import merged_trace, write_trace

            path = write_trace(args.trace_out, merged_trace(runs))
            print(
                f"wrote trace-event JSON for {len(runs)} artefact run(s) to {path}"
            )
        if args.registry_dir:
            from ..obs.registry import RunRegistry, record_from_result

            registry = RunRegistry(args.registry_dir)
            for name, result in runs:
                registry.append(
                    record_from_result(
                        result,
                        spec={
                            "artefact": name,
                            "solver": REPRESENTATIVE[name].method,
                            "platform": "chic",
                            "quick": bool(args.quick),
                        },
                        timestamp=time.time(),
                    )
                )
            print(
                f"appended {len(runs)} run record(s) to {registry.path}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
