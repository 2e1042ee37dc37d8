"""Run identity digests, run records and the persistent run registry.

* :class:`RunRegistry` -- an append-only JSONL store of structured
  :class:`RunRecord` entries, one per pipeline/runtime run, keyed by
  the content digests of the program, the topology and the run options
  (reusing the :mod:`repro.recovery` digest machinery).  The records
  are deterministic: two identical runs produce byte-identical JSON
  modulo the injected ``timestamp``.
* :func:`publish_result` -- exposes a finished run in a
  :class:`~repro.obs.metrics.MetricsRegistry` for Prometheus rendering.

The metrics model itself (:class:`~repro.obs.metrics.Counter`,
:class:`~repro.obs.metrics.MetricsRegistry`, ...) lives in
:mod:`repro.obs.metrics`, which imports nothing from the package; this
module imports :mod:`repro.recovery` and so cannot be imported by
:mod:`repro.obs.events`.  Both names stay importable from here (they
are not part of ``__all__``).

``python -m repro.obs history`` lists recorded runs, ``trend`` detects
metric drift across the last N records of a matching digest key, and
``prom`` renders a run's metrics in Prometheus text format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..recovery.checkpoint import json_digest
from ..recovery.files import append_line, open_log, read_log
from .metrics import Counter, MetricsRegistry, child_key, split_key  # noqa: F401
from .metrics import metric_direction, oriented_ratio

__all__ = [
    "RunRecord",
    "RunRegistry",
    "program_digest",
    "topology_digest",
    "options_digest",
    "record_from_result",
    "publish_result",
]


# ----------------------------------------------------------------------
# content digests of a run's identity
# ----------------------------------------------------------------------
def program_digest(graph) -> str:
    """Content digest of an M-task graph's *scheduling-relevant* shape.

    Hashes every task's name, work, processor bounds, synchronisation
    points, collective specs and parameter shapes plus the edge list --
    everything the cost model and the scheduler see.  Task bodies
    (``func``) are excluded: two builds of the same program digest
    identically even though their closures differ.
    """
    tasks = sorted(graph.topological_order(), key=lambda t: t.name)
    payload = {
        "name": getattr(graph, "name", ""),
        "tasks": [
            {
                "name": t.name,
                "work": t.work,
                "min_procs": t.min_procs,
                "max_procs": t.max_procs,
                "sync_points": t.sync_points,
                "comm": [
                    [c.op, c.total_elements, c.itemsize, c.count, c.scope,
                     c.task_parallel_only]
                    for c in t.comm
                ],
                "params": [
                    [p.name, str(p.mode), p.elements, p.itemsize]
                    for p in t.params
                ],
            }
            for t in tasks
        ],
        "edges": sorted((u.name, v.name) for u, v, _ in graph.edges()),
    }
    return json_digest(payload)


def topology_digest(machine_or_platform) -> str:
    """Content digest of the target machine's architecture tree."""
    machine = getattr(machine_or_platform, "machine", machine_or_platform)
    payload = {
        "name": machine.name,
        "total_cores": machine.total_cores,
        "node_shapes": [list(s) for s in machine.node_shapes],
    }
    return json_digest(payload)


def options_digest(options: Dict[str, Any]) -> str:
    """Content digest of the run-options dict (solver, mapping, flags)."""
    return json_digest(options or {})


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One structured, persisted record of a pipeline/runtime run.

    Every field except ``timestamp`` is derived deterministically from
    the run, so two identical runs serialize byte-identically modulo the
    injected timestamp (the property the registry round-trip test
    asserts).  The digest triple ``(program, topology, options)`` keys
    comparable runs for drift detection.
    """

    program: str
    topology: str
    options: str
    solver: str = ""
    scheduler: str = ""
    backend: str = "sim"
    platform: str = ""
    cores: int = 0
    tasks: int = 0
    makespan: float = 0.0
    predicted_makespan: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)
    analysis: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    timestamp: float = 0.0
    schema: str = "repro.obs.runrecord/1"

    @property
    def key(self) -> str:
        """Short digest-triple key grouping comparable runs."""
        return f"{self.program[:12]}-{self.topology[:12]}-{self.options[:12]}"

    def to_dict(self) -> Dict[str, Any]:
        """Export every field as a JSON-serialisable dict."""
        return {
            "schema": self.schema,
            "key": self.key,
            "program": self.program,
            "topology": self.topology,
            "options": self.options,
            "solver": self.solver,
            "scheduler": self.scheduler,
            "backend": self.backend,
            "platform": self.platform,
            "cores": self.cores,
            "tasks": self.tasks,
            "makespan": self.makespan,
            "predicted_makespan": self.predicted_makespan,
            "metrics": dict(self.metrics),
            "analysis": dict(self.analysis),
            "counters": dict(self.counters),
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=str
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from its :meth:`to_dict` payload."""
        known = {
            k: payload[k]
            for k in (
                "program", "topology", "options", "solver", "scheduler",
                "backend", "platform", "cores", "tasks", "makespan",
                "predicted_makespan", "metrics", "analysis", "counters",
                "timestamp", "schema",
            )
            if k in payload
        }
        return cls(**known)


def record_from_result(
    result,
    *,
    timestamp: float,
    spec: Optional[Dict[str, Any]] = None,
    backend: Optional[str] = None,
    program: Optional[str] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a pipeline run.

    ``result`` is a :class:`~repro.pipeline.PipelineResult`; ``spec`` the
    CLI/run option dict folded into the options digest; ``timestamp``
    must be injected by the caller so the record itself stays a pure
    function of the run.  ``backend`` labels what executed the run
    (``"sim"`` for simulated pipelines, a backend name for functional
    runs) and defaults to the spec's ``backend`` entry.  ``program`` is
    the graph's :func:`program_digest` when the caller already has it
    (a compiled request does); without it the graph is hashed here.
    """
    spec = dict(spec or {})
    spec.pop("recovery", None)  # wall-clock-free options only
    trace = result.trace
    if trace is not None:
        topo = topology_digest(trace.machine)
    else:
        topo = json_digest({"cores": result.scheduling.nprocs})
    opts = dict(spec)
    opts["strategy"] = result.meta.get("strategy", "")
    return RunRecord(
        program=program or program_digest(result.graph),
        topology=topo,
        options=options_digest(opts),
        solver=str(spec.get("solver", "")),
        scheduler=result.scheduling.scheduler or "",
        backend=backend or str(spec.get("backend", "sim")),
        platform=str(spec.get("platform", "")),
        cores=int(result.scheduling.nprocs),
        tasks=len(result.graph),
        makespan=float(result.makespan),
        predicted_makespan=float(result.predicted_makespan),
        metrics=result.metrics(),
        analysis=result.analysis().to_dict() if trace is not None else {},
        counters={k: float(v) for k, v in sorted(result.obs.counters.items())},
        timestamp=float(timestamp),
    )


def publish_result(registry: MetricsRegistry, result, **labels: Any) -> None:
    """Expose a pipeline run in ``registry`` for Prometheus rendering.

    Every entry of ``result.metrics()`` becomes a labelled gauge
    ``repro_run_<metric>``.  The run's own metrics are not copied:
    ``registry`` adopts the child objects of ``result.obs.registry`` --
    counters as ``repro_<counter>_total`` and histograms as
    ``repro_<histogram>``, with ``labels`` added beneath their own, and
    the labelled gauges (the backends' ``backend_*`` heartbeats) under
    their own names.  Unlabelled gauges are the pipeline's summary
    values, which ``repro_run_*`` already carries.  Used by
    ``python -m repro.obs prom``.
    """
    for name, value in sorted(result.metrics().items()):
        registry.gauge(f"repro_run_{name}", **labels).set(value)
    run = result.obs.registry
    for store, children, suffix in (
        (registry.counters, run.counters, "_total"),
        (registry.histograms, run.histograms, ""),
    ):
        for key, child in children.items():
            name, own = split_key(key)
            store[child_key(f"repro_{name}{suffix}", {**labels, **dict(own)})] = child
    registry.gauges.update((k, g) for k, g in run.gauges.items() if split_key(k)[1])


# ----------------------------------------------------------------------
# the persistent run registry
# ----------------------------------------------------------------------
class RunRegistry:
    """Append-only JSONL store of :class:`RunRecord` entries.

    One record per line under ``<root>/runs.jsonl``, a log of
    :mod:`repro.recovery.files` like the run journal: loading drops a
    torn final line and the next append truncates it, so a run killed
    mid-append never corrupts the history; a malformed line anywhere
    else raises :class:`~repro.recovery.files.CorruptLog`.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.path = self.root / "runs.jsonl"

    def append(self, record: RunRecord) -> Path:
        """Append one record durably; returns the registry file path."""
        with open_log(self.path) as fh:
            append_line(fh, record.to_json())
        return self.path

    def load(self) -> List[Dict[str, Any]]:
        """All stored records as dicts, oldest first (torn tail dropped)."""
        return read_log(self.path)[0]

    def history(
        self, key: Optional[str] = None, last: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Stored records, optionally filtered by digest-key prefix.

        ``key`` matches the record's digest-triple ``key`` or any of the
        three full digests by prefix; ``last`` keeps only the N most
        recent matches (still oldest first).
        """
        records = self.load()
        if key:
            records = [
                r
                for r in records
                if str(r.get("key", "")).startswith(key)
                or str(r.get("program", "")).startswith(key)
                or str(r.get("topology", "")).startswith(key)
                or str(r.get("options", "")).startswith(key)
            ]
        if last is not None and last >= 0:
            # guard the Python slicing pitfall: records[-0:] is the whole
            # list, but "the 0 most recent records" must be none at all
            records = records[-last:] if last > 0 else []
        return records

    def trend(
        self,
        metric: str = "makespan",
        key: Optional[str] = None,
        last: int = 10,
        threshold: float = 1.25,
    ) -> Dict[str, Any]:
        """Detect drift of ``metric`` across the last ``last`` records.

        Compares the latest value against the median of the earlier
        window (records matching ``key``, newest ``last`` of them); the
        ratio is the diff gate's :func:`~repro.obs.metrics.oriented_ratio`,
        above 1.0 when the latest value is worse (any change counts for a
        metric without a direction).  Returns a summary dict with
        ``drifted`` set when the ratio exceeds ``threshold``; fewer than
        two comparable records -- a single-record registry, an empty
        window (``last <= 0``), or records whose metric is missing or
        non-finite (counted in ``skipped``) -- yield ``count < 2`` and
        no verdict, never a drift report.
        """
        def value_of(record: Dict[str, Any]) -> Optional[float]:
            v = record.get(metric, record.get("metrics", {}).get(metric))
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return None
            return float(v) if math.isfinite(v) else None

        rows = [
            (r.get("timestamp", 0.0), value_of(r))
            for r in self.history(key=key, last=last)
        ]
        values = [v for _, v in rows if v is not None]
        out: Dict[str, Any] = {
            "metric": metric,
            "key": key,
            "count": len(values),
            "skipped": len(rows) - len(values),
            "values": values,
            "threshold": threshold,
        }
        if len(values) < 2:
            return out
        latest = values[-1]
        earlier = sorted(values[:-1])
        mid = len(earlier) // 2
        if len(earlier) % 2:
            baseline = earlier[mid]
        else:
            baseline = 0.5 * (earlier[mid - 1] + earlier[mid])
        direction = metric_direction(metric)
        ratio = oriented_ratio(baseline, latest, direction)
        out.update(
            latest=latest,
            baseline=baseline,
            ratio=ratio,
            direction=direction or "any",
            drifted=ratio > threshold,
        )
        return out
