"""Structured-event instrumentation for the scheduling pipeline.

One :class:`Instrumentation` object travels through a pipeline run and
collects three kinds of observations:

* **spans** -- named wall-clock timers (``with obs.span("schedule"):``),
  nested spans record their parent for later tree reconstruction;
* **metrics** -- counters (``obs.count("gsearch.probes")``), gauges
  (``obs.gauge`` / ``obs.publish``) and histograms (``obs.observe``),
  each optionally labelled.  Their values live in one
  :class:`~repro.obs.metrics.MetricsRegistry` (``obs.registry``); the
  methods here are a front for it and ``obs.counters`` / ``obs.gauges``
  / ``obs.histograms`` are flat read-only views of it;
* **records** -- structured per-event dictionaries, e.g. one record per
  scheduled layer with the chosen group count.

Everything is in-memory, dependency-free and cheap enough to stay
enabled by default; :meth:`Instrumentation.to_json` exports a run for
offline analysis and the benchmark harness.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .metrics import Gauge, Histogram, MetricsRegistry, child_key, flat_view

__all__ = ["SpanRecord", "Instrumentation"]


@dataclass
class SpanRecord:
    """One completed (or still open) named timer.

    ``sid`` is a per-:class:`Instrumentation` unique id and
    ``parent_id`` the enclosing span's ``sid``; same-named spans (e.g.
    one ``layer`` span per scheduled layer) stay distinguishable in the
    reconstructed tree.
    """

    name: str
    start: float
    duration: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    sid: int = 0
    parent_id: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """Export the span as a JSON-serialisable dict."""
        out: Dict[str, Any] = {
            "name": self.name,
            "id": self.sid,
            "start": self.start,
            "duration": self.duration,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.meta:
            out["meta"] = dict(self.meta)
        return out


class Instrumentation:
    """Collector for spans, counters and structured records.

    The default clock is :func:`time.perf_counter` -- a *monotonic*
    clock, so span durations never go negative under NTP adjustments;
    tests inject a fake clock for deterministic durations.  The epoch
    origin sampled at construction (:attr:`epoch`, :meth:`epoch_of`)
    maps clock timestamps back to wall-clock time for trace alignment.

    Counter, gauge and histogram values live in ``obs.registry``, one
    labelled :class:`~repro.obs.metrics.MetricsRegistry` per run; every
    metric method takes optional ``**labels`` selecting the child, and
    ``obs.registry.render_prometheus()`` renders the run as it stands
    (backends report tasks done/total, per-worker busy fraction and
    speculation in flight through :meth:`publish`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: the run's metric store -- the only place a value lives
        self.registry = MetricsRegistry()
        #: ``(epoch seconds, clock seconds)`` sampled together at
        #: construction: wall time of any span is
        #: ``epoch[0] + (span.start - epoch[1])``
        self.epoch: tuple = (time.time(), self._clock())
        self.spans: List[SpanRecord] = []
        self.records: List[Dict[str, Any]] = []
        self._stack: List[SpanRecord] = []
        self._next_sid: int = 1

    def now(self) -> float:
        """Current time on this instrumentation's clock (span frame)."""
        return self._clock()

    def epoch_of(self, clock_time: float) -> float:
        """Wall-clock epoch seconds of a clock timestamp (trace alignment)."""
        return self.epoch[0] + (clock_time - self.epoch[1])

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[SpanRecord]:
        """Time a named stage; spans nest and record their parent."""
        rec = SpanRecord(
            name=name,
            start=self._clock(),
            meta=dict(meta),
            sid=self._next_sid,
            parent_id=self._stack[-1].sid if self._stack else None,
        )
        self._next_sid += 1
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.duration = self._clock() - rec.start
            self._stack.pop()

    def emit_span(
        self, name: str, start: float, duration: float, **meta: Any
    ) -> SpanRecord:
        """Append an externally timed span.

        Used for work that ran outside this process (e.g. a
        :class:`~repro.runtime.backends.ProcessPoolBackend` worker
        attempt): ``start`` must already be converted into this
        instrumentation's clock frame.  The span nests under the
        currently open span, if any, but never opens one itself.
        """
        rec = SpanRecord(
            name=name,
            start=start,
            duration=duration,
            meta=dict(meta),
            sid=self._next_sid,
            parent_id=self._stack[-1].sid if self._stack else None,
        )
        self._next_sid += 1
        self.spans.append(rec)
        return rec

    def span_seconds(self, name: str) -> float:
        """Total duration of all spans with ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def span_names(self) -> List[str]:
        """Names of the recorded spans, in completion-start order."""
        return [s.name for s in self.spans]

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count(self, name: str, inc: float = 1, **labels: Any) -> None:
        """Accumulate ``inc`` into counter ``name``."""
        # the hot path (no labels, counter exists) is one dict lookup
        child = None if labels else self.registry.counters.get(name)
        (child or self.registry.counter(name, **labels)).value += inc

    def set_counter(self, name: str, value: float, **labels: Any) -> None:
        """Overwrite counter ``name`` (final totals, e.g. cache stats)."""
        self.registry.counter(name, **labels).value = value

    def counter(self, name: str, default: float = 0, **labels: Any) -> float:
        """Current value of a counter (``default`` if never bumped)."""
        child = self.registry.counters.get(child_key(name, labels))
        return default if child is None else child.value

    @property
    def counters(self) -> Dict[str, float]:
        """Every counter's value by flat name (``name{k=v,...}`` if labelled)."""
        return {k: c.value for k, c in flat_view(self.registry.counters).items()}

    # ------------------------------------------------------------------
    # histograms and gauges
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record ``value`` into the histogram ``name``."""
        child = None if labels else self.registry.histograms.get(name)
        (child or self.registry.histogram(name, **labels)).observe(value)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram ``name`` (an empty one when never observed)."""
        return self.registry.histograms.get(child_key(name, labels), Histogram(name))

    def gauge(self, name: str, value: Optional[float] = None, **labels: Any) -> Gauge:
        """Get (and with ``value`` set) the gauge ``name``."""
        gauge = self.registry.gauge(name, **labels)
        if value is not None:
            gauge.set(value)
        return gauge

    def publish(self, name: str, value: float, **labels: Any) -> None:
        """Publish a live heartbeat gauge (:meth:`gauge` with a value)."""
        self.gauge(name, value, **labels)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """Every histogram by flat name (``name{k=v,...}`` if labelled)."""
        return flat_view(self.registry.histograms)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        """Every gauge by flat name (``name{k=v,...}`` if labelled)."""
        return flat_view(self.registry.gauges)

    # ------------------------------------------------------------------
    # structured records
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Append one structured event of ``kind``."""
        entry: Dict[str, Any] = {"kind": kind}
        entry.update(fields)
        self.records.append(entry)

    def records_of(self, kind: str) -> List[Dict[str, Any]]:
        """All structured records of one kind."""
        return [r for r in self.records if r.get("kind") == kind]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Export all spans, counters, and records as a dict."""
        out: Dict[str, Any] = {
            "spans": [s.to_dict() for s in self.spans],
            "counters": self.counters,
            "records": [dict(r) for r in self.records],
            "epoch_origin": {
                "epoch_seconds": self.epoch[0],
                "clock_seconds": self.epoch[1],
            },
        }
        for section, view in (("histograms", self.histograms), ("gauges", self.gauges)):
            if view:
                out[section] = {k: metric.to_dict() for k, metric in view.items()}
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Export :meth:`to_dict` as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instrumentation(spans={len(self.spans)}, "
            f"counters={len(self.registry.counters)}, records={len(self.records)})"
        )
