"""The one metrics model, its direction policy and derived schedule analytics.

Three layers live here:

* **the model** -- :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` children grouped into labelled families by
  :class:`MetricsRegistry`, which also renders them in the Prometheus
  text exposition format.  Every metric value in the package lives in
  one of these registries: an :class:`~repro.obs.Instrumentation` owns
  one per run (``obs.registry``; ``obs.count`` / ``observe`` / ``gauge``
  / ``publish`` write into it, ``obs.counters`` / ``gauges`` /
  ``histograms`` are flat read-only views of it) and
  :class:`~repro.serve.service.ScheduleService` owns one per server.  A
  histogram keeps at most :data:`HISTOGRAM_CAP` samples, so a
  long-lived registry holds bounded memory;
* **the direction policy** -- which metrics are better lower or higher
  (:func:`metric_direction`) and the one :func:`oriented_ratio` both
  ``repro.obs diff`` and ``RunRegistry.trend`` judge a change by;
* **derived analytics** -- :class:`ScheduleAnalysis`, computed by
  :func:`analyze` from any simulated pipeline run: per-core busy/idle/
  redist-wait fractions, per-layer load imbalance, the critical-path
  share of the makespan and the group-size distribution the scheduler
  chose.

Everything is dependency-free and duck-typed against the pipeline's
artefacts (``PipelineResult``, ``ExecutionTrace``, ``LayeredSchedule``)
so the module can be imported from anywhere in the package without
cycles.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "HISTOGRAM_CAP", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "child_key", "split_key", "flat_view",
    "LOWER_IS_BETTER", "HIGHER_IS_BETTER", "WALL_CLOCK_SUFFIXES",
    "metric_direction", "oriented_ratio",
    "CoreUsage", "LayerBalance", "ScheduleAnalysis", "analyze",
]

#: the one histogram bound: a :class:`Histogram` never holds this many
#: samples.  Below it every value is kept, so the per-run histograms
#: (task seconds, layer times, calibration residuals) are exact; each
#: time it is reached the histogram drops every other sample it holds
#: and its quantiles become estimates
HISTOGRAM_CAP = 8192

#: canonical label set: ``(name, value)`` string pairs sorted by name
LabelKey = Tuple[Tuple[str, str], ...]


class Counter:
    """An accumulating metric (Prometheus ``counter``).

    The value keeps the type it was fed: integer increments stay an
    ``int``, so exported JSON reads ``3``, not ``3.0``.
    """

    def __init__(self, name: str = "", value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, {self.value:g})"


class Gauge:
    """A metric that holds its last-written value."""

    def __init__(self, name: str = "", value: float = 0.0) -> None:
        self.name = name
        self.value = float(value)

    def set(self, value: float) -> None:
        """Overwrite the gauge with a new value."""
        self.value = float(value)

    def to_dict(self) -> Dict[str, float]:
        """Export the current value."""
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, {self.value:g})"


class Histogram:
    """Streaming collection of numeric observations with percentiles.

    ``count``, ``total``, ``min`` and ``max`` are exact however many
    samples arrive.  ``values`` holds every sample while there are fewer
    than :data:`HISTOGRAM_CAP`; each time it fills up, every other
    sample it holds is dropped into an exact summary (no random choice:
    the same sequence always leaves the same sample).  Memory is bounded
    and, past the cap, percentiles are estimates that weight recent
    samples more -- every overflow halves the share of what was already
    held, as a decaying reservoir does.  Percentiles use linear
    interpolation between order statistics, matching
    ``numpy.percentile``'s default.
    """

    def __init__(self, name: str = "", values: Iterable[float] = ()) -> None:
        self.name = name
        self.values: List[float] = []
        # exact summary of the samples ``values`` no longer holds
        self._dropped = 0
        self._dropped_total = 0.0
        self._dropped_min = math.inf
        self._dropped_max = -math.inf
        self._sorted: Optional[List[float]] = None
        for v in values:
            self.observe(v)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.values.append(float(value))
        self._sorted = None
        if len(self.values) >= HISTOGRAM_CAP:
            dropped = self.values[1::2]
            del self.values[1::2]
            self._dropped += len(dropped)
            self._dropped_total += sum(dropped)
            self._dropped_min = min(self._dropped_min, min(dropped))
            self._dropped_max = max(self._dropped_max, max(dropped))

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Samples observed (exact)."""
        return self._dropped + len(self.values)

    @property
    def total(self) -> float:
        """Sum of all samples (exact)."""
        return sum(self.values, self._dropped_total)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def min(self) -> float:
        """Smallest observation; ``NaN`` when empty.  An empty histogram
        has no extrema -- reporting ``0.0`` made the diff gate compare
        fabricated zeros (and flag them as regressions once a value
        arrived)."""
        return min(self._dropped_min, min(self.values)) if self.values else math.nan

    @property
    def max(self) -> float:
        """Largest observation; ``NaN`` when empty (see :attr:`min`)."""
        return max(self._dropped_max, max(self.values)) if self.values else math.nan

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), linearly interpolated."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.values)
        xs = self._sorted
        if len(xs) == 1:
            return xs[0]
        rank = p / 100.0 * (len(xs) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(xs) - 1)
        frac = rank - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def to_dict(self) -> Dict[str, float]:
        # an empty histogram exports only its count: absent stats cannot
        # be mistaken for observed zeros by downstream diffing
        """Export count and order statistics (empty: count only)."""
        if not self.values:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Histogram({self.name!r}, n={self.count}, mean={self.mean:g}, "
            f"p50={self.p50:g}, p99={self.p99:g})"
        )


# ----------------------------------------------------------------------
# labelled families and the Prometheus renderer
# ----------------------------------------------------------------------
def child_key(name: str, labels: Dict[str, Any]) -> Any:
    """Store key of the child ``name`` with ``labels``.

    An unlabelled child is keyed by its bare name -- which keeps
    ``obs.count(name)`` a plain dict lookup -- and a labelled one by
    ``(name, LabelKey)``, the labels stringified and sorted.
    """
    if not labels:
        return name
    return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def split_key(key: Any) -> Tuple[str, LabelKey]:
    """``(name, LabelKey)`` of a store key (inverse of :func:`child_key`)."""
    return (key, ()) if isinstance(key, str) else key


def flat_view(store: Dict[Any, Any]) -> Dict[str, Any]:
    """``store`` re-keyed by flat names, in insertion order.

    An unlabelled child keeps its ``name``; a labelled one becomes
    ``name{k=v,...}`` -- the keys exported JSON uses.
    """
    out = {}
    for key, child in store.items():
        name, labels = split_key(key)
        if labels:
            name += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
        out[name] = child
    return out


def _families(store: Dict[Any, Any]):
    """``(name, rows)`` per metric name, rows being ``(name, LabelKey,
    child)``; names and label sets sorted."""
    rows = sorted(((*split_key(k), c) for k, c in store.items()), key=lambda row: row[:2])
    return groupby(rows, key=lambda row: row[0])


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name into the Prometheus charset."""
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_escape(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _prom_labels(labels: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    """Render a label set as ``{k="v",...}`` (empty string for none)."""
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    body = ",".join(f'{_prom_name(k)}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    """Render a sample value (Prometheus spells non-finite values out)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class MetricsRegistry:
    """Families of labelled counters, gauges and histograms.

    A *family* is one metric name; each distinct label set within it is
    a separate child metric.  Children are created on first access and
    returned on every later access with the same labels, so callers can
    freely write ``registry.counter("runs_total", solver="irk").inc()``
    in hot paths.  The three stores (``counters``, ``gauges``,
    ``histograms``) are insertion-ordered dicts keyed by
    :func:`child_key`; :func:`flat_view` re-keys one for export.
    """

    def __init__(self) -> None:
        self.counters: Dict[Any, Counter] = {}
        self.gauges: Dict[Any, Gauge] = {}
        self.histograms: Dict[Any, Histogram] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _child(self, store, cls, name: str, help: str, labels) -> Any:
        if help:
            self._help.setdefault(name, help)
        key = child_key(name, labels)
        child = store.get(key)
        if child is None:
            child = store[key] = cls(name)
        return child

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter ``name`` with the given label set."""
        return self._child(self.counters, Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The gauge ``name`` with the given label set."""
        return self._child(self.gauges, Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", **labels: Any) -> Histogram:
        """The histogram ``name`` with the given label set."""
        return self._child(self.histograms, Histogram, name, help, labels)

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Counters and gauges render one sample per label set; histograms
        render as *summaries* (``{quantile="..."}`` samples plus
        ``_sum``/``_count``) because quantiles are computed client-side
        from the kept samples.
        """
        lines: List[str] = []
        for kind, store in (
            ("counter", self.counters),
            ("gauge", self.gauges),
            ("summary", self.histograms),
        ):
            for name, rows in _families(store):
                prom = _prom_name(name)
                if name in self._help:
                    lines.append(f"# HELP {prom} {self._help[name]}")
                lines.append(f"# TYPE {prom} {kind}")
                for _, key, metric in rows:
                    if kind != "summary":
                        lines.append(f"{prom}{_prom_labels(key)} {_prom_value(metric.value)}")
                        continue
                    if metric.count:
                        for q in (50, 90, 99):
                            quantile = _prom_labels(key, (("quantile", str(q / 100)),))
                            lines.append(f"{prom}{quantile} {_prom_value(metric.percentile(q))}")
                    lines.append(f"{prom}_sum{_prom_labels(key)} {_prom_value(metric.total)}")
                    lines.append(f"{prom}_count{_prom_labels(key)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Metric directions: which way a change is a regression
# ----------------------------------------------------------------------
#: metric name suffixes where an *increase* past the threshold regresses
LOWER_IS_BETTER = (
    "makespan",
    "predicted_makespan",
    "simulated_makespan",
    "cache_requests",
    "cache_misses",
    "gsearch_probes",
    "redist_wait_fraction",
    "idle_fraction",
    "mean_layer_imbalance",
    "max_layer_imbalance",
    "critical_path_share",
    "task_seconds_p50",
    "task_seconds_p90",
    "task_seconds_p99",
    "task_retries_total",
    "degraded_makespan",
    "speculation_losses",
)
#: metric name suffixes where a *decrease* past the threshold regresses
HIGHER_IS_BETTER = (
    "cache_hit_rate",
    "evaluation_reduction",
    "busy_fraction",
    "utilization",
    "speculation_wins",
    # pool-vs-serial wall-clock speedup from benchmarks/bench_runtime.py
    "speedup",
    # listed here (checked before the generic ``_seconds`` -> lower
    # fallback) so --include-wall diffs orient it correctly
    "speculation_saved_seconds",
)
#: wall-clock metrics, too noisy for a gate unless explicitly included
WALL_CLOCK_SUFFIXES = ("_seconds",)


def metric_direction(name: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` is better for the metric ``name`` (its
    last dotted component decides), or ``None`` when it has no known
    direction."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in HIGHER_IS_BETTER:
        return "higher"
    if leaf in LOWER_IS_BETTER or leaf.endswith(WALL_CLOCK_SUFFIXES):
        return "lower"
    return None


def oriented_ratio(old: float, new: float, direction: Optional[str]) -> float:
    """``worse / better`` of two values, above 1.0 when ``new`` is worse.

    ``direction`` is :func:`metric_direction`'s answer; without one any
    relative change counts, whichever way it goes.
    """
    if direction == "lower":
        worse, better = new, old
    elif direction == "higher":
        worse, better = old, new
    else:
        worse, better = max(new, old), min(new, old)
    if better == 0.0:
        return 1.0 if worse == 0.0 else float("inf")
    return worse / better


# ----------------------------------------------------------------------
# Derived schedule analytics
# ----------------------------------------------------------------------
@dataclass
class CoreUsage:
    """Busy/idle accounting of one physical core over a run."""

    label: str
    busy: float
    idle: float
    redist_wait: float
    tasks: int

    @property
    def busy_fraction(self) -> float:
        span = self.busy + self.idle
        return self.busy / span if span > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Export per-group utilisation fields as a plain dict."""
        return {
            "label": self.label,
            "busy": self.busy,
            "idle": self.idle,
            "redist_wait": self.redist_wait,
            "tasks": self.tasks,
            "busy_fraction": self.busy_fraction,
        }


@dataclass
class LayerBalance:
    """Load imbalance of one layer of the layered schedule."""

    index: int
    tasks: int
    groups: int
    #: per-group busy core-seconds accumulated from the trace
    group_busy: List[float]

    @property
    def imbalance(self) -> float:
        """``max / mean`` of per-group busy time (1.0 = perfectly even)."""
        loads = [l for l in self.group_busy]
        if not loads:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 1.0

    def to_dict(self) -> Dict[str, Any]:
        """Export per-layer fields as a plain dict."""
        return {
            "index": self.index,
            "tasks": self.tasks,
            "groups": self.groups,
            "group_busy": list(self.group_busy),
            "imbalance": self.imbalance,
        }


@dataclass
class ScheduleAnalysis:
    """Derived analytics of one simulated pipeline run.

    Produced by :func:`analyze`; everything is computed from the
    :class:`~repro.sim.trace.ExecutionTrace` (ground truth for timing)
    plus, when available, the layered schedule (for group structure).
    """

    makespan: float
    total_cores: int
    cores: List[CoreUsage] = field(default_factory=list)
    layers: List[LayerBalance] = field(default_factory=list)
    critical_path: float = 0.0
    group_size_distribution: Dict[int, int] = field(default_factory=dict)
    task_seconds: Histogram = field(default_factory=lambda: Histogram("task_seconds"))
    redist_wait_seconds: Histogram = field(
        default_factory=lambda: Histogram("redist_wait_seconds")
    )
    #: per-task retry counts / fault overhead (fault-injected runs only;
    #: empty for clean runs so their exports stay unchanged)
    task_retries: Histogram = field(default_factory=lambda: Histogram("task_retries"))
    fault_overhead_seconds: Histogram = field(
        default_factory=lambda: Histogram("fault_overhead_seconds")
    )
    #: speculative-backup outcomes (runs with speculation only; zero for
    #: other runs so their exports stay unchanged)
    speculation_wins: int = 0
    speculation_losses: int = 0
    speculation_saved_seconds: float = 0.0
    #: cost-evaluator counters (runs through a
    #: :class:`~repro.core.costmodel.CachedCostEvaluator` only; zero
    #: otherwise so cache-less exports stay unchanged).  ``cache_batched``
    #: counts Tsymb cells answered by vectorized batch tables -- the
    #: decide/cost split's replacement for scalar g-search probes.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_batched: int = 0

    # ------------------------------------------------------------------
    @property
    def busy_fraction(self) -> float:
        """Busy core-time over the ``P x makespan`` area."""
        area = self.makespan * self.total_cores
        return sum(c.busy for c in self.cores) / area if area > 0 else 0.0

    @property
    def idle_fraction(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_fraction)

    @property
    def redist_wait_fraction(self) -> float:
        """Re-distribution wait over the ``P x makespan`` area."""
        area = self.makespan * self.total_cores
        return sum(c.redist_wait for c in self.cores) / area if area > 0 else 0.0

    @property
    def critical_path_share(self) -> float:
        """Critical path (longest dependency chain of simulated task
        durations) as a fraction of the makespan; 1.0 means the run is
        completely serialised on its critical path."""
        return self.critical_path / self.makespan if self.makespan > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Scalar cost-cache hit rate (0.0 when no cache was active)."""
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    @property
    def mean_layer_imbalance(self) -> float:
        if not self.layers:
            return 1.0
        return sum(l.imbalance for l in self.layers) / len(self.layers)

    @property
    def max_layer_imbalance(self) -> float:
        if not self.layers:
            return 1.0
        return max(l.imbalance for l in self.layers)

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Flat, diff-friendly summary (all deterministic quantities).

        Fault metrics appear only when faults actually occurred, so a
        clean run's metric dict is identical to the pre-fault baseline.
        """
        out = {
            "makespan": self.makespan,
            "busy_fraction": self.busy_fraction,
            "idle_fraction": self.idle_fraction,
            "redist_wait_fraction": self.redist_wait_fraction,
            "critical_path_share": self.critical_path_share,
            "mean_layer_imbalance": self.mean_layer_imbalance,
            "max_layer_imbalance": self.max_layer_imbalance,
            "task_seconds_p50": self.task_seconds.p50,
            "task_seconds_p90": self.task_seconds.p90,
            "task_seconds_p99": self.task_seconds.p99,
        }
        if self.task_retries.count:
            out["task_retries_total"] = self.task_retries.total
        if self.fault_overhead_seconds.count:
            out["fault_overhead_seconds"] = self.fault_overhead_seconds.total
        if self.speculation_wins or self.speculation_losses:
            out["speculation_wins"] = float(self.speculation_wins)
            out["speculation_losses"] = float(self.speculation_losses)
            out["speculation_saved_seconds"] = self.speculation_saved_seconds
        if self.cache_hits or self.cache_misses or self.cache_batched:
            out["cache_hits"] = float(self.cache_hits)
            out["cache_misses"] = float(self.cache_misses)
            out["cache_hit_rate"] = self.cache_hit_rate
            out["cache_batched"] = float(self.cache_batched)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Export the full analysis as a JSON-serialisable dict."""
        return {
            "makespan": self.makespan,
            "total_cores": self.total_cores,
            "busy_fraction": self.busy_fraction,
            "idle_fraction": self.idle_fraction,
            "redist_wait_fraction": self.redist_wait_fraction,
            "critical_path": self.critical_path,
            "critical_path_share": self.critical_path_share,
            "mean_layer_imbalance": self.mean_layer_imbalance,
            "max_layer_imbalance": self.max_layer_imbalance,
            "group_size_distribution": {
                str(k): v for k, v in sorted(self.group_size_distribution.items())
            },
            "cores": [c.to_dict() for c in self.cores],
            "layers": [l.to_dict() for l in self.layers],
            "task_seconds": self.task_seconds.to_dict(),
            "redist_wait_seconds": self.redist_wait_seconds.to_dict(),
            **(
                {
                    "task_retries": self.task_retries.to_dict(),
                    "fault_overhead_seconds": self.fault_overhead_seconds.to_dict(),
                }
                if self.task_retries.count
                else {}
            ),
            **(
                {
                    "speculation": {
                        "wins": self.speculation_wins,
                        "losses": self.speculation_losses,
                        "saved_seconds": self.speculation_saved_seconds,
                    }
                }
                if self.speculation_wins or self.speculation_losses
                else {}
            ),
            **(
                {
                    "cache": {
                        "hits": self.cache_hits,
                        "misses": self.cache_misses,
                        "hit_rate": self.cache_hit_rate,
                        "batched": self.cache_batched,
                    }
                }
                if self.cache_hits or self.cache_misses or self.cache_batched
                else {}
            ),
        }

    def report(self, per_core: bool = False) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"schedule analysis: {self.task_seconds.count} tasks on "
            f"{self.total_cores} cores",
            f"  makespan            {self.makespan:.6g} s",
            f"  busy fraction       {self.busy_fraction * 100:6.2f} %",
            f"  idle fraction       {self.idle_fraction * 100:6.2f} %",
            f"  redist-wait frac.   {self.redist_wait_fraction * 100:6.2f} %",
            f"  critical-path share {self.critical_path_share * 100:6.2f} %",
        ]
        if self.layers:
            lines.append(
                f"  layer imbalance     mean {self.mean_layer_imbalance:.3f}, "
                f"max {self.max_layer_imbalance:.3f} (max/mean group load)"
            )
        if self.group_size_distribution:
            dist = ", ".join(
                f"{size}c x{count}"
                for size, count in sorted(self.group_size_distribution.items())
            )
            lines.append(f"  group sizes         {dist}")
        h = self.task_seconds
        if h.count:
            lines.append(
                f"  task seconds        p50 {h.p50:.4g}  p90 {h.p90:.4g}  "
                f"p99 {h.p99:.4g}  max {h.max:.4g}"
            )
        if self.task_retries.count:
            lines.append(
                f"  fault injection     {int(self.task_retries.total)} retries over "
                f"{self.task_retries.count} tasks, "
                f"{self.fault_overhead_seconds.total:.4g} s overhead"
            )
        if self.speculation_wins or self.speculation_losses:
            lines.append(
                f"  speculation         {self.speculation_wins} wins / "
                f"{self.speculation_losses} losses, "
                f"{self.speculation_saved_seconds:.4g} s saved"
            )
        if self.cache_hits or self.cache_misses or self.cache_batched:
            lines.append(
                f"  cost cache          {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"({self.cache_hit_rate * 100:.1f} %), "
                f"{self.cache_batched} batched cells"
            )
        if per_core:
            lines.append("  per-core usage:")
            for c in self.cores:
                lines.append(
                    f"    core {c.label:>8s}  busy {c.busy_fraction * 100:6.2f} %  "
                    f"redist-wait {c.redist_wait:.4g} s  tasks {c.tasks}"
                )
        return "\n".join(lines)


def _critical_path(graph, trace) -> float:
    """Longest dependency chain of simulated durations through ``graph``."""
    longest: Dict[Any, float] = {}
    for task in graph.topological_order():
        if task not in trace:
            continue
        entry = trace[task]
        best_pred = 0.0
        for p in graph.predecessors(task):
            if p in longest:
                best_pred = max(best_pred, longest[p])
        longest[task] = best_pred + entry.duration
    return max(longest.values(), default=0.0)


def _layer_balances(layered, trace) -> List[LayerBalance]:
    out: List[LayerBalance] = []
    for li, layer in enumerate(layered.layers):
        group_busy: List[float] = []
        n_tasks = 0
        for group in layer.groups:
            busy = 0.0
            for node in group:
                for member in layered.expand(node):
                    n_tasks += 1
                    if member in trace:
                        e = trace[member]
                        busy += e.duration * len(e.cores)
            group_busy.append(busy)
        out.append(
            LayerBalance(
                index=li,
                tasks=n_tasks,
                groups=layer.num_groups,
                group_busy=group_busy,
            )
        )
    return out


def analyze(result) -> ScheduleAnalysis:
    """Compute a :class:`ScheduleAnalysis` from a pipeline run.

    ``result`` is a :class:`~repro.pipeline.PipelineResult` (or anything
    with ``.trace``, ``.graph`` and ``.scheduling`` attributes) whose
    pipeline ran with ``simulate=True``.
    """
    trace = getattr(result, "trace", None)
    if trace is None:
        raise ValueError(
            "cannot analyze a run without an execution trace "
            "(the pipeline ran with simulate=False)"
        )
    graph = getattr(result, "graph", None)
    scheduling = getattr(result, "scheduling", None)
    layered = getattr(scheduling, "layered", None) if scheduling is not None else None

    span = trace.makespan
    busy = trace.per_core_busy()
    waits: Dict[Any, float] = {}
    ntasks: Dict[Any, int] = {}
    for e in trace.entries:
        for c in e.cores:
            waits[c] = waits.get(c, 0.0) + e.redist_wait
            ntasks[c] = ntasks.get(c, 0) + 1
    cores = [
        CoreUsage(
            label=c.label,
            busy=busy.get(c, 0.0),
            idle=span - busy.get(c, 0.0),
            redist_wait=waits.get(c, 0.0),
            tasks=ntasks.get(c, 0),
        )
        for c in trace.machine.cores()
    ]

    analysis = ScheduleAnalysis(
        makespan=span,
        total_cores=trace.machine.total_cores,
        cores=cores,
    )
    for e in trace.entries:
        analysis.task_seconds.observe(e.duration)
        if e.redist_wait > 0:
            analysis.redist_wait_seconds.observe(e.redist_wait)
        if getattr(e, "retries", 0) > 0:
            analysis.task_retries.observe(e.retries)
            analysis.fault_overhead_seconds.observe(
                getattr(e, "fault_overhead", 0.0)
            )
        spec = getattr(e, "speculation", "")
        if spec == "win":
            analysis.speculation_wins += 1
            analysis.speculation_saved_seconds += e.speculation_saved
        elif spec == "loss":
            analysis.speculation_losses += 1
    if graph is not None:
        analysis.critical_path = _critical_path(graph, trace)
    if layered is not None:
        analysis.layers = _layer_balances(layered, trace)
        for layer in layered.layers:
            for size in layer.group_sizes:
                analysis.group_size_distribution[size] = (
                    analysis.group_size_distribution.get(size, 0) + 1
                )
    cache = getattr(result, "cache", None)
    if cache is not None:
        analysis.cache_hits = cache.total_hits
        analysis.cache_misses = cache.total_misses
        analysis.cache_batched = cache.total_batched
    return analysis
