"""Observability for pipeline runs: events, metrics, traces, rendering.

* :mod:`repro.obs.events` -- the in-run collector
  (:class:`Instrumentation`: spans, records, and a front for the run's
  metrics);
* :mod:`repro.obs.metrics` -- the one metrics model: labelled
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` families in a
  :class:`MetricsRegistry` with Prometheus text exposition (every
  metric value in the package lives in one), and the derived
  :class:`ScheduleAnalysis`;
* :mod:`repro.obs.registry` -- run identity digests and the persistent
  :class:`RunRegistry` of digest-keyed :class:`RunRecord` entries;
* :mod:`repro.obs.calibrate` -- predicted-vs-actual cost-model
  calibration (:class:`CalibrationReport`);
* :mod:`repro.obs.perfetto` -- Chrome trace-event / Perfetto export;
* :mod:`repro.obs.gantt` -- terminal-side Gantt rendering;
* :mod:`repro.obs.cli` -- the ``python -m repro.obs`` command line
  (export, report, gantt, the benchmark regression ``diff`` gate,
  ``history``/``trend`` over the run registry, ``calib`` and ``prom``).
"""

from .calibrate import CalibrationReport, TaskCalibration, calibrate_result, calibrate_spans
from .events import Instrumentation, SpanRecord
from .gantt import render_layers, render_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, ScheduleAnalysis, analyze
from .perfetto import (
    execution_trace_events,
    pipeline_trace,
    span_events,
    write_trace,
)
from .registry import (
    RunRecord,
    RunRegistry,
    options_digest,
    program_digest,
    publish_result,
    record_from_result,
    topology_digest,
)

__all__ = [
    "Instrumentation",
    "SpanRecord",
    "Histogram",
    "Gauge",
    "Counter",
    "ScheduleAnalysis",
    "analyze",
    "MetricsRegistry",
    "RunRecord",
    "RunRegistry",
    "program_digest",
    "topology_digest",
    "options_digest",
    "record_from_result",
    "publish_result",
    "CalibrationReport",
    "TaskCalibration",
    "calibrate_result",
    "calibrate_spans",
    "span_events",
    "execution_trace_events",
    "pipeline_trace",
    "write_trace",
    "render_trace",
    "render_layers",
]
