"""Structured-event instrumentation for the scheduling pipeline.

One :class:`Instrumentation` object travels through a pipeline run and
collects three kinds of observations:

* **spans** -- named wall-clock timers (``with obs.span("schedule"):``),
  nested spans record their parent for later tree reconstruction;
* **counters** -- monotonically accumulated numeric totals
  (``obs.count("gsearch.probes")``);
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

from .metrics import Gauge, Histogram

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

    An optional :class:`~repro.obs.registry.MetricsRegistry` can be
    attached; :meth:`publish` then mirrors live heartbeat gauges into it
    with labels (backends report tasks done/total, per-worker busy
    fraction, speculation in flight through this hook).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        registry: Optional[Any] = None,
    ) -> None:
        self._clock = clock
        #: optional labeled MetricsRegistry mirroring published gauges
        self.registry = registry
        #: ``(epoch seconds, clock seconds)`` sampled together at
        #: construction: wall time of any span is
        #: ``epoch[0] + (span.start - epoch[1])``
        self.epoch: tuple = (time.time(), self._clock())
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.records: List[Dict[str, Any]] = []
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
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
    def count(self, name: str, inc: float = 1) -> None:
        """Accumulate ``inc`` into counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + inc

    def set_counter(self, name: str, value: float) -> None:
        """Overwrite counter ``name`` (gauges, e.g. final cache stats)."""
        self.counters[name] = value

    def counter(self, name: str, default: float = 0) -> float:
        """Current value of a counter (``default`` if never bumped)."""
        return self.counters.get(name, default)

    # ------------------------------------------------------------------
    # histograms and gauges
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        self.histograms[name].observe(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name`` (an empty one when never observed)."""
        return self.histograms.get(name, Histogram(name))

    def gauge(self, name: str, value: Optional[float] = None) -> Gauge:
        """Get (and with ``value`` set) the gauge ``name``."""
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        if value is not None:
            self.gauges[name].set(value)
        return self.gauges[name]

    def publish(self, name: str, value: float, **labels: Any) -> None:
        """Publish a live heartbeat gauge, mirrored into the registry.

        Always lands in the plain :attr:`gauges` (keyed
        ``name{k=v,...}`` when labels are given, so distinct label sets
        stay distinct); when a
        :class:`~repro.obs.registry.MetricsRegistry` is attached, the
        labeled gauge there is updated too -- that is what
        ``repro.obs prom`` renders while a backend run is in flight.
        """
        if labels:
            key = name + "{" + ",".join(
                f"{k}={labels[k]}" for k in sorted(labels)
            ) + "}"
        else:
            key = name
        self.gauge(key, value)
        if self.registry is not None:
            self.registry.gauge(name, **labels).set(value)

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
            "counters": dict(self.counters),
            "records": [dict(r) for r in self.records],
            "epoch_origin": {
                "epoch_seconds": self.epoch[0],
                "clock_seconds": self.epoch[1],
            },
        }
        if self.histograms:
            out["histograms"] = {k: h.to_dict() for k, h in self.histograms.items()}
        if self.gauges:
            out["gauges"] = {k: g.to_dict() for k, g in self.gauges.items()}
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Export :meth:`to_dict` as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instrumentation(spans={len(self.spans)}, "
            f"counters={len(self.counters)}, records={len(self.records)})"
        )
