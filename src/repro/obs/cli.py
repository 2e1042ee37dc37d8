"""The ``python -m repro.obs`` command line.

Eight subcommands make pipeline runs inspectable and gate regressions:

* ``export`` -- run one instrumented pipeline and write Perfetto
  trace-event JSON (``--out``) plus a flat run-metrics JSON
  (``--run-json``) the ``diff`` subcommand understands;
* ``report`` -- print the derived :class:`ScheduleAnalysis` (per-core
  utilization, layer imbalance, critical-path share) of a run;
* ``gantt`` -- render the ASCII Gantt chart of a run in the terminal;
* ``diff`` -- compare two run-metrics JSONs (or two shoot-out benchmark
  files, ``BENCH_shootout.json``) and exit non-zero when any metric
  with a direction regressed past ``--threshold``; CI gates the
  committed shoot-out file with it;
* ``calib`` -- predicted-vs-actual cost-model calibration
  (:mod:`repro.obs.calibrate`): per-task ``Tsymb`` residuals against
  the simulated trace and, with ``--checkpoint-dir``, against the
  wall-clock spans of a functional backend run; ``--gate`` turns the
  report into a non-zero exit when bias/MAPE exceed thresholds;
* ``prom`` -- run a pipeline and render its labeled metrics registry in
  Prometheus text-exposition format;
* ``history`` / ``trend`` -- list the persistent run registry
  (``--registry-dir``) and detect metric drift across the last N
  records of a matching digest key.

Run specifications are shared by
``export``/``report``/``gantt``/``calib``/``prom``: an ODE solver
(``--solver irk``), a platform (``--platform chic --cores 64``), a
problem size (``--n 200``), plus optional fault injection
(``--faults``), speculative straggler mitigation (``--speculate``), a
journaled functional run (``--checkpoint-dir`` / ``--resume``), the
execution backend of that functional run (``--backend serial``,
``--backend pool[:W]`` or ``--backend cluster[:W]``) and a persistent
run registry
(``--registry-dir``) every run appends its :class:`RunRecord` to.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import metric_direction, oriented_ratio

__all__ = ["main", "build_parser", "spec_type", "flatten_metrics", "compare_metrics"]


# ----------------------------------------------------------------------
# shared run-spec plumbing
# ----------------------------------------------------------------------
def spec_type(parse: Callable[[str], Any]) -> Callable[[str], str]:
    """An argparse ``type=`` that checks a spec string with ``parse``.

    A malformed value becomes argparse's usage error (exit code 2)
    carrying ``parse``'s one-line message; a valid one stays the raw
    string, which run records store as given.
    """

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _add_run_arguments(ap: argparse.ArgumentParser) -> None:
    from ..faults import parse_faults_spec
    from ..ode import ODE_METHODS
    from ..recovery import parse_speculation_spec
    from ..runtime.backends import parse_backend_spec

    ap.add_argument(
        "--solver",
        choices=sorted(ODE_METHODS),
        default="irk",
        help="ODE solver whose time step is scheduled (default: irk)",
    )
    ap.add_argument(
        "--platform",
        default="chic",
        help="target platform name (chic, juropa, sgi_altix; default: chic)",
    )
    ap.add_argument("--cores", type=int, default=64, help="core count (default: 64)")
    ap.add_argument(
        "--n", type=int, default=250, help="BRUSS2D system parameter N (default: 250)"
    )
    ap.add_argument(
        "--version",
        choices=("tp", "dp"),
        default="tp",
        help="program version: task parallel or data parallel (default: tp)",
    )
    ap.add_argument(
        "--mapping",
        choices=("consecutive", "scattered"),
        default="consecutive",
        help="mapping strategy of the group placement (default: consecutive)",
    )
    ap.add_argument(
        "--quick", action="store_true", help="small problem (N=120) for smoke runs"
    )
    ap.add_argument(
        "--faults",
        type=spec_type(parse_faults_spec),
        metavar="SEED:RATE[:LAYER:NODES]",
        help="deterministic fault injection: seed and task failure rate, "
        "optionally losing NODES nodes before layer LAYER "
        "(e.g. --faults 7:0.2 or --faults 7:0.2:1:2)",
    )
    ap.add_argument(
        "--speculate",
        type=spec_type(parse_speculation_spec),
        metavar="FACTOR[:QUANTILE]",
        help="speculative straggler mitigation: launch a backup attempt "
        "once a task runs FACTOR times past its estimate (or past the "
        "QUANTILE of completed attempts), first finisher wins "
        "(e.g. --speculate 1.5 or --speculate 1.3:0.9)",
    )
    ap.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="additionally run one *functional* solver step under a "
        "write-ahead journal + checkpoint store rooted at DIR",
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
        help="execution backend of the functional --checkpoint-dir run: "
        "'serial' (default, in-process), 'pool' for a forked "
        "process pool or 'cluster' for socket workers with heartbeat "
        "failure detection, optionally with a worker count (e.g. pool:4, "
        "cluster:4)",
    )
    ap.add_argument(
        "--registry-dir",
        metavar="DIR",
        help="append one digest-keyed RunRecord of this run to the "
        "persistent run registry (runs.jsonl) under DIR "
        "(queried by the history/trend subcommands)",
    )


def _run_spec(args, obs=None) -> Tuple[Dict[str, Any], Any, Any]:
    """Run the pipeline described by the CLI flags.

    Returns ``(spec, result, cost)`` -- the run description, the
    :class:`~repro.pipeline.PipelineResult` and the cost model bound to
    the target platform (for symbolic re-rendering).  ``obs`` threads a
    caller-supplied :class:`~repro.obs.Instrumentation` through both the
    pipeline and the optional functional ``--checkpoint-dir`` run
    (``prom`` then renders both from the one ``result.obs``).
    With ``--registry-dir``, one :class:`~repro.obs.RunRecord` of the
    pipeline run is appended to the persistent registry.
    """
    from ..cluster.platforms import by_name
    from ..core.costmodel import CostModel
    from ..experiments.common import ode_pipeline
    from ..mapping.strategies import strategy_by_name
    from ..ode import PAPER_CONFIGS, bruss2d
    from ..sim.executor import SimulationOptions

    n = 120 if args.quick else args.n
    platform = by_name(args.platform).with_cores(args.cores)
    cost = CostModel(platform)
    cfg = PAPER_CONFIGS[args.solver]
    faults = None
    if getattr(args, "faults", None):
        from ..faults import parse_faults_spec

        faults = parse_faults_spec(args.faults)
    speculation = None
    if getattr(args, "speculate", None):
        from ..recovery import parse_speculation_spec

        speculation = parse_speculation_spec(args.speculate)
    options = SimulationOptions(faults=faults, speculation=speculation)
    result = ode_pipeline(
        bruss2d(n),
        cfg,
        platform,
        strategy_by_name(args.mapping),
        version=args.version,
        cost=cost,
        options=options,
        obs=obs,
    )
    spec = {
        "solver": args.solver,
        "platform": args.platform,
        "cores": args.cores,
        "n": n,
        "version": args.version,
        "mapping": args.mapping,
    }
    if getattr(args, "faults", None):
        spec["faults"] = args.faults
    if getattr(args, "speculate", None):
        spec["speculation"] = args.speculate
    if getattr(args, "checkpoint_dir", None):
        from ..experiments.recovery_run import run_checkpointed_step
        from ..runtime.backends import parse_backend_spec

        backend_spec = getattr(args, "backend", None) or "serial"
        _, recovery = run_checkpointed_step(
            bruss2d(n),
            cfg,
            args.checkpoint_dir,
            resume=args.resume,
            speculation=speculation,
            backend=parse_backend_spec(backend_spec),
            obs=obs,
        )
        spec["checkpoint_dir"] = args.checkpoint_dir
        spec["resume"] = bool(args.resume)
        spec["recovery"] = recovery
        if backend_spec != "serial":
            spec["backend"] = backend_spec
    if getattr(args, "registry_dir", None):
        import time

        from .registry import RunRegistry, record_from_result

        registry = RunRegistry(args.registry_dir)
        path = registry.append(
            record_from_result(result, spec=spec, timestamp=time.time())
        )
        print(f"appended run record to {path}")
    return spec, result, cost


def _print_recovery(spec: Dict[str, Any]) -> None:
    if spec.get("recovery"):
        from ..experiments.recovery_run import recovery_line

        print(f"recovery: {recovery_line(spec['recovery'])}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_export(args) -> int:
    from .perfetto import pipeline_trace, write_trace
    from .registry import program_digest

    spec, result, _ = _run_spec(args)
    _print_recovery(spec)
    run_meta = {
        "solver": spec["solver"],
        "platform": spec["platform"],
        "cores": spec["cores"],
        "backend": spec.get("backend", "sim"),
        "program_digest": program_digest(result.graph),
    }
    doc = pipeline_trace(result, run_meta=run_meta)
    path = write_trace(args.out, doc)
    print(f"wrote {len(doc['traceEvents'])} trace events to {path}")
    if args.run_json:
        payload = {
            "schema": "repro.obs.run/1",
            "spec": spec,
            "metrics": result.metrics(),
            "analysis": result.analysis().to_dict(),
            "calibration": result.calibration().to_dict(),
        }
        run_path = Path(args.run_json)
        run_path.parent.mkdir(parents=True, exist_ok=True)
        run_path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
        print(f"wrote run metrics to {run_path}")
    return 0


def _cmd_report(args) -> int:
    if args.run:
        payload = json.loads(Path(args.run).read_text())
        analysis = payload.get("analysis", {})
        print(f"run metrics from {args.run}:")
        for key, value in sorted(payload.get("metrics", {}).items()):
            print(f"  {key:<28s} {value:.6g}")
        if analysis:
            print(
                f"  cores: {analysis.get('total_cores')}  "
                f"busy {analysis.get('busy_fraction', 0.0) * 100:.2f} %  "
                f"critical-path share "
                f"{analysis.get('critical_path_share', 0.0) * 100:.2f} %"
            )
        calib = payload.get("calibration")
        if calib:
            print(
                f"  calibration ({calib.get('mode', 'sim')}): "
                f"{calib.get('tasks', 0)} tasks, "
                f"bias {calib.get('bias', 0.0):+.2%}, "
                f"MAPE {calib.get('mape', 0.0):.2%}"
            )
        return 0
    spec, result, _ = _run_spec(args)
    _print_recovery(spec)
    print(result.report())
    print()
    print(result.analysis().report(per_core=args.per_core))
    return 0


def _cmd_gantt(args) -> int:
    from .gantt import render_layers, render_trace

    spec, result, cost = _run_spec(args)
    _print_recovery(spec)
    print(render_trace(result.trace, width=args.width, by=args.by))
    if args.layers and result.scheduling.layered is not None:
        print()
        print(render_layers(result.scheduling.layered, cost))
    return 0


# ----------------------------------------------------------------------
# diff / regression gate
# ----------------------------------------------------------------------
def flatten_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """Flat ``name -> value`` view of a run/benchmark JSON payload.

    Understands three shapes: ``repro.obs.run`` exports (``metrics``
    dict), benchmark files such as ``BENCH_shootout.json`` (``results``
    row list keyed by ``solver`` or ``name``) and plain flat dicts of
    numbers.  Every finite number is kept: the ``*_seconds`` metrics a
    run exports (``fault_overhead_seconds``,
    ``speculation_saved_seconds``) are simulated, so they are as
    deterministic as the makespan.
    """
    def numeric(d: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, value in d.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if not math.isfinite(value):
                continue
            out[prefix + key] = float(value)
        return out

    if isinstance(payload.get("results"), list):
        out: Dict[str, float] = {}
        for i, row in enumerate(payload["results"]):
            tag = row.get("solver") or row.get("name") or str(i)
            out.update(numeric(row, prefix=f"{tag}."))
        return out
    if isinstance(payload.get("metrics"), dict):
        return numeric(payload["metrics"])
    return numeric(payload)


def compare_metrics(
    old: Dict[str, float], new: Dict[str, float], threshold: float
) -> List[Dict[str, Any]]:
    """Per-metric comparison rows; ``regressed`` marks threshold breaks.

    The ratio (:func:`~repro.obs.metrics.oriented_ratio`) is above 1.0
    when the new value is worse, whichever the metric's direction;
    metrics without a direction are not compared.
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(old) & set(new)):
        direction = metric_direction(name)
        if direction is None:
            continue
        a, b = old[name], new[name]
        ratio = oriented_ratio(a, b, direction)
        rows.append(
            {
                "metric": name,
                "old": a,
                "new": b,
                "ratio": ratio,
                "regressed": ratio > threshold,
            }
        )
    return rows


def _cmd_diff(args) -> int:
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    rows = compare_metrics(flatten_metrics(old), flatten_metrics(new), args.threshold)
    if not rows:
        print("no comparable metrics found", file=sys.stderr)
        return 2
    regressions = [r for r in rows if r["regressed"]]
    width = max(len(r["metric"]) for r in rows)
    print(f"{'metric':<{width}s} | {'old':>12s} | {'new':>12s} | ratio")
    print("-" * (width + 42))
    # worst relative delta first, so the biggest regression tops the table
    for r in sorted(rows, key=lambda r: (-r["ratio"], r["metric"])):
        if not args.verbose and not r["regressed"]:
            continue
        mark = "  REGRESSED" if r["regressed"] else ""
        print(
            f"{r['metric']:<{width}s} | {r['old']:12.6g} | {r['new']:12.6g} | "
            f"{r['ratio']:6.3f}{mark}"
        )
    print(
        f"{len(rows)} metrics compared, {len(regressions)} regression(s) "
        f"past threshold {args.threshold:g}"
    )
    for r in sorted(regressions, key=lambda r: (-r["ratio"], r["metric"])):
        print(
            f"  REGRESSED {r['metric']}: {r['old']:.6g} -> {r['new']:.6g} "
            f"(ratio {r['ratio']:.3f} > {args.threshold:g})"
        )
    return 1 if regressions else 0


# ----------------------------------------------------------------------
# run registry: history / trend
# ----------------------------------------------------------------------
def _format_ts(ts: float) -> str:
    """Local-time ``YYYY-mm-dd HH:MM:SS`` rendering of an epoch stamp."""
    import time

    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def _cmd_history(args) -> int:
    from .registry import RunRegistry

    registry = RunRegistry(args.registry_dir)
    records = registry.history(key=args.key, last=args.last)
    if not records:
        print(f"no run records under {registry.path}", file=sys.stderr)
        return 2
    for r in records:
        print(
            f"{_format_ts(r.get('timestamp', 0.0))}  "
            f"{r.get('key', '?'):<38s} "
            f"{r.get('solver') or '?':<6s} "
            f"{r.get('backend', '?'):<6s} "
            f"cores={r.get('cores', 0):<5d} "
            f"makespan={r.get('makespan', 0.0):.6g}"
        )
    print(f"{len(records)} run record(s) in {registry.path}")
    return 0


def _cmd_trend(args) -> int:
    from .registry import RunRegistry

    registry = RunRegistry(args.registry_dir)
    summary = registry.trend(
        metric=args.metric,
        key=args.key,
        last=args.last,
        threshold=args.threshold,
    )
    if summary["count"] < 2:
        skipped = summary.get("skipped", 0)
        note = f" ({skipped} record(s) without a finite value)" if skipped else ""
        print(
            f"need at least 2 comparable records for {args.metric!r}, "
            f"found {summary['count']}{note}",
            file=sys.stderr,
        )
        return 2
    scope = f" for key {args.key}" if args.key else ""
    print(f"trend of {args.metric} over {summary['count']} record(s){scope}:")
    print(f"  baseline (median)   {summary['baseline']:.6g}")
    print(f"  latest              {summary['latest']:.6g}")
    print(
        f"  oriented ratio      {summary['ratio']:.3f} "
        f"(>1 is worse; direction: {summary['direction']})"
    )
    if summary["drifted"]:
        print(f"  DRIFTED past threshold {args.threshold:g}")
        return 1
    print(f"  within threshold {args.threshold:g}")
    return 0


# ----------------------------------------------------------------------
# calibration / prometheus
# ----------------------------------------------------------------------
class _ScaledCost:
    """Proxy cost evaluator scaling ``tsymb`` by a constant factor.

    The ``calib --distort`` testing aid: an intentionally mispriced
    model the calibration gate must reject.  Everything except
    ``tsymb`` passes through to the wrapped evaluator.
    """

    def __init__(self, inner, factor: float) -> None:
        self._inner = inner
        self._factor = float(factor)

    def tsymb(self, task, q: int) -> float:
        """The wrapped ``Tsymb`` scaled by the distortion factor."""
        return self._inner.tsymb(task, q) * self._factor

    def __getattr__(self, name: str):
        """Delegate every other attribute to the wrapped evaluator."""
        return getattr(self._inner, name)


def _cmd_calib(args) -> int:
    from .calibrate import calibrate_spans

    # the functional run is driven below with its own instrumentation,
    # so the sim pipeline run stays clean of wall-clock spans
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    args.checkpoint_dir = None
    spec, result, _ = _run_spec(args)
    eval_cost = result.cost
    if args.distort != 1.0:
        eval_cost = _ScaledCost(eval_cost, args.distort)
        print(f"cost model distorted by x{args.distort:g} (testing aid)")
    report = result.calibration(cost=eval_cost)
    print(report.report(top=args.top))
    if checkpoint_dir:
        from ..experiments.recovery_run import run_checkpointed_step
        from ..ode import PAPER_CONFIGS, bruss2d, functional_step
        from ..runtime.backends import parse_backend_spec
        from .events import Instrumentation

        problem, cfg = bruss2d(spec["n"]), PAPER_CONFIGS[args.solver]
        wall_obs = Instrumentation()
        backend_spec = getattr(args, "backend", None) or "serial"
        run_checkpointed_step(
            problem,
            cfg,
            checkpoint_dir,
            resume=args.resume,
            backend=parse_backend_spec(backend_spec),
            obs=wall_obs,
        )
        _, _, body, _ = functional_step(problem, cfg)
        wall = calibrate_spans(body, eval_cost, wall_obs)
        print()
        print(f"wall-clock calibration ({backend_spec} backend):")
        print(wall.report(top=args.top))
    if args.gate:
        problems = report.gate(max_bias=args.max_bias, max_mape=args.max_mape)
        if problems:
            for problem in problems:
                print(f"CALIBRATION GATE FAILED: {problem}", file=sys.stderr)
            return 1
        print(
            f"calibration gate passed (|bias| {abs(report.bias):.3f} <= "
            f"{args.max_bias:g}, MAPE {report.mape:.3f} <= {args.max_mape:g})"
        )
    return 0


def _cmd_prom(args) -> int:
    from .events import Instrumentation
    from .registry import MetricsRegistry, publish_result

    registry = MetricsRegistry()
    spec, result, _ = _run_spec(args, obs=Instrumentation())
    publish_result(
        registry,
        result,
        solver=spec["solver"],
        platform=spec["platform"],
        cores=spec["cores"],
        backend=spec.get("backend", "sim"),
    )
    text = registry.render_prometheus()
    if args.out:
        _print_recovery(spec)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {len(text.splitlines())} exposition lines to {out}")
    else:
        sys.stdout.write(text)
    return 0


#: shared ``--help`` epilog of the run-spec subcommands; kept in sync
#: with ``_add_run_arguments`` by ``tests/test_docs_flags.py``
_RUN_EPILOG = """\
fault-tolerance, recovery and telemetry flags:
  --faults SEED:RATE[:LAYER:NODES]   seeded fault injection
  --speculate FACTOR[:QUANTILE]      speculative backup attempts
  --checkpoint-dir DIR               journaled functional step
  --resume                           resume from that journal
  --backend serial|pool|cluster[:W]  functional execution backend
  --registry-dir DIR                 append a RunRecord to the run registry

examples:
  python -m repro.obs export --solver irk --quick --faults 7:0.2 -o trace.json
  python -m repro.obs report --solver pabm --speculate 1.5:0.9
  python -m repro.obs gantt --solver irk --quick --width 100
  python -m repro.obs export --quick --checkpoint-dir ckpt --backend pool:4
  python -m repro.obs calib --solver irk --quick --gate
  python -m repro.obs prom --quick --registry-dir runs
"""

_DIFF_EPILOG = """\
examples:
  python -m repro.obs diff BENCH_shootout.json new.json --threshold 1.25
  python -m repro.obs diff old_run.json new_run.json --verbose
"""

#: ``--help`` epilog of the registry-querying subcommands
_REGISTRY_EPILOG = """\
examples:
  python -m repro.obs history --registry-dir runs --last 10
  python -m repro.obs trend --registry-dir runs --metric makespan --last 10
  python -m repro.obs trend --registry-dir runs --key 83a632 --threshold 1.1
"""


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro.obs`` argument parser."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect pipeline runs: trace export, analytics, Gantt, diffs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "export",
        help="run a pipeline and export trace-event JSON",
        epilog=_RUN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_run_arguments(p)
    p.add_argument("-o", "--out", default="trace.json", help="trace output path")
    p.add_argument(
        "--run-json", help="additionally write flat run metrics (for `diff`)"
    )
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "report",
        help="print schedule analytics of a run",
        epilog=_RUN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_run_arguments(p)
    p.add_argument("--run", help="report a previously exported run JSON instead")
    p.add_argument(
        "--per-core", action="store_true", help="include the per-core usage table"
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "gantt",
        help="ASCII Gantt chart of a run",
        epilog=_RUN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_run_arguments(p)
    p.add_argument("--width", type=int, default=72, help="chart width in cells")
    p.add_argument("--by", choices=("core", "node"), default="core")
    p.add_argument(
        "--layers", action="store_true", help="also render per-layer group bars"
    )
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser(
        "diff",
        help="compare two run/benchmark JSONs; non-zero exit on regression",
        epilog=_DIFF_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("old", help="baseline JSON (run export or BENCH_*.json)")
    p.add_argument("new", help="candidate JSON")
    p.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="worst-case ratio before a metric counts as regressed (default 1.25)",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true", help="print all compared metrics"
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "calib",
        help="predicted-vs-actual cost-model calibration (with --gate: CI gate)",
        epilog=_RUN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_run_arguments(p)
    p.add_argument(
        "--top", type=int, default=5, help="worst offenders to list (default 5)"
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when |bias| or MAPE exceed the thresholds",
    )
    p.add_argument(
        "--max-bias",
        type=float,
        default=1.0,
        help="gate threshold on |mean signed relative error| (default 1.0)",
    )
    p.add_argument(
        "--max-mape",
        type=float,
        default=1.0,
        help="gate threshold on mean absolute relative error (default 1.0)",
    )
    p.add_argument(
        "--distort",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="scale Tsymb by FACTOR before calibrating -- a deliberately "
        "mispriced model for exercising the gate (default 1.0: honest)",
    )
    p.set_defaults(func=_cmd_calib)

    p = sub.add_parser(
        "prom",
        help="run a pipeline and render its metrics in Prometheus text format",
        epilog=_RUN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_run_arguments(p)
    p.add_argument(
        "-o", "--out", help="write the exposition to a file instead of stdout"
    )
    p.set_defaults(func=_cmd_prom)

    p = sub.add_parser(
        "history",
        help="list the persistent run registry",
        epilog=_REGISTRY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--registry-dir",
        required=True,
        metavar="DIR",
        help="run-registry directory (holds runs.jsonl)",
    )
    p.add_argument(
        "--key", help="filter by digest-key prefix (program/topology/options)"
    )
    p.add_argument(
        "--last", type=int, default=None, help="show only the N most recent records"
    )
    p.set_defaults(func=_cmd_history)

    p = sub.add_parser(
        "trend",
        help="detect metric drift across recent run records",
        epilog=_REGISTRY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--registry-dir",
        required=True,
        metavar="DIR",
        help="run-registry directory (holds runs.jsonl)",
    )
    p.add_argument(
        "--metric",
        default="makespan",
        help="record field or metrics entry to track (default: makespan)",
    )
    p.add_argument(
        "--key", help="filter by digest-key prefix (program/topology/options)"
    )
    p.add_argument(
        "--last",
        type=int,
        default=10,
        help="window size: latest record vs the median of the earlier "
        "records in the window (default 10)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="oriented worst/better ratio before the drift exit (default 1.25)",
    )
    p.set_defaults(func=_cmd_trend)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "platform"):  # a run spec: the platform must allocate it
        from ..cluster.platforms import by_name

        try:
            by_name(args.platform).with_cores(args.cores)
        except ValueError as exc:
            ap.error(f"--platform {args.platform} --cores {args.cores}: {exc}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was piped into head/less and closed early; not an error
        sys.stderr.close()
        return 0
