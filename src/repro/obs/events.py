"""Structured-event instrumentation for the scheduling pipeline.

One :class:`Instrumentation` object travels through a pipeline run and
collects three kinds of observations:

* **spans** -- named wall-clock timers (``with obs.span("schedule"):``),
  nested spans record their parent for later tree reconstruction;
* **metrics** -- counters (``obs.count("gsearch.probes")``), gauges
  (``obs.gauge`` / ``obs.publish``) and histograms (``obs.observe``),
  each optionally labelled.  Their values live in one
  :class:`~repro.obs.metrics.MetricsRegistry` (``obs.registry``); the
  methods here are a front for it and ``obs.counters`` is a flat
  read-only view of its counters;
* **records** -- structured per-event dictionaries, e.g. one record per
  scheduled layer with the chosen group count.

Everything is in-memory, dependency-free and cheap enough to stay
enabled by default.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from .metrics import Gauge, MetricsRegistry, child_key, flat_view

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


class Instrumentation:
    """Collector for spans, counters and structured records.

    The default clock is :func:`time.perf_counter` -- a *monotonic*
    clock, so span durations never go negative under NTP adjustments;
    tests inject a fake clock for deterministic durations.

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
        self.spans: List[SpanRecord] = []
        self.records: List[Dict[str, Any]] = []
        self._stack: List[SpanRecord] = []
        self._next_sid: int = 1

    def now(self) -> float:
        """Current time on this instrumentation's clock (span frame)."""
        return self._clock()

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

    def gauge(self, name: str, value: Optional[float] = None, **labels: Any) -> Gauge:
        """Get (and with ``value`` set) the gauge ``name``."""
        gauge = self.registry.gauge(name, **labels)
        if value is not None:
            gauge.set(value)
        return gauge

    def publish(self, name: str, value: float, **labels: Any) -> None:
        """Publish a live heartbeat gauge (:meth:`gauge` with a value)."""
        self.gauge(name, value, **labels)

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
