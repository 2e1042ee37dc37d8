"""Chrome trace-event / Perfetto JSON export of pipeline runs.

One run produces a single ``trace.json`` loadable in ``ui.perfetto.dev``
(or ``chrome://tracing``) that merges two time bases:

* the **wall-clock** side -- every :class:`~repro.obs.Instrumentation`
  span (pipeline stages, per-layer g-search probes, contention passes)
  becomes a complete (``ph: "X"``) event in a dedicated ``pipeline``
  process; nesting follows the span tree via containment;
* the **simulated** side -- every :class:`~repro.sim.trace.TraceEntry`
  is rendered on one track per *physical core*: a computation slice
  ``[start, start+comp]`` and a communication slice tiling the rest of
  ``[start, finish]``, plus a separate per-core wait track showing the
  re-distribution delay that was charged before the start.  Data
  dependencies become flow arrows from the producer's finish to the
  consumer's start.

Timestamps are microseconds (the trace-event unit); both sides are
normalized to start at 0, so the absolute offset between wall clock and
simulated clock carries no meaning -- only the per-process structure
does.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MICROS",
    "span_events",
    "worker_span_events",
    "execution_trace_events",
    "pipeline_trace",
    "write_trace",
    "validate_trace_events",
]

#: trace-event timestamps are microseconds; artefact times are seconds
MICROS = 1e6

#: pid of the wall-clock (instrumentation span) process
SPAN_PID = 1
#: pid of the pool-worker wall-clock process (one tid per worker)
WORKER_PID = 5
#: first pid of the simulated per-node processes
CORE_PID_BASE = 10


def _meta(pid: int, name: str, value: str, tid: int = 0) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": name,
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": {"name": value},
    }


def span_events(obs) -> List[Dict[str, Any]]:
    """Complete events for every instrumentation span of ``obs``.

    All spans live on one thread of the ``pipeline`` process; because
    spans strictly nest in time, the viewer reconstructs the tree from
    containment.  Span ids and metadata travel in ``args``.  Spans
    carrying a ``worker`` meta key ran concurrently on pool workers --
    they would break the single-thread nesting invariant and are
    rendered separately by :func:`worker_span_events`.
    """
    spans = [s for s in obs.spans if "worker" not in s.meta]
    if not spans:
        return []
    t0 = min(s.start for s in obs.spans)
    events: List[Dict[str, Any]] = [
        _meta(SPAN_PID, "process_name", "pipeline (wall clock)"),
        _meta(SPAN_PID, "thread_name", "stages", tid=1),
    ]
    for s in spans:
        args: Dict[str, Any] = {"id": s.sid}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        args.update(s.meta)
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": "stage",
                "pid": SPAN_PID,
                "tid": 1,
                "ts": (s.start - t0) * MICROS,
                "dur": s.duration * MICROS,
                "args": args,
            }
        )
    return events


def worker_span_events(obs) -> List[Dict[str, Any]]:
    """Complete events for spans executed on pool workers.

    The :class:`~repro.runtime.backends.ProcessPoolBackend` re-emits
    every worker attempt as a span whose meta carries the executing
    ``worker`` id; those spans overlap in time (that is the point of the
    pool), so they get one *thread per worker* in a dedicated process
    instead of joining the single nested wall-clock track.  Timestamps
    share :func:`span_events`' normalisation origin so both processes
    line up in the viewer.
    """
    spans = [s for s in obs.spans if "worker" in s.meta]
    if not spans:
        return []
    t0 = min(s.start for s in obs.spans)
    workers = sorted({int(s.meta["worker"]) for s in spans})
    events: List[Dict[str, Any]] = [
        _meta(WORKER_PID, "process_name", "pool workers (wall clock)")
    ]
    for w in workers:
        events.append(_meta(WORKER_PID, "thread_name", f"worker {w}", tid=w + 1))
    for s in spans:
        args: Dict[str, Any] = {"id": s.sid}
        args.update(s.meta)
        events.append(
            {
                "ph": "X",
                "name": str(s.meta.get("task", s.name)),
                "cat": "speculation" if s.name == "task_backup" else "worker",
                "pid": WORKER_PID,
                "tid": int(s.meta["worker"]) + 1,
                "ts": (s.start - t0) * MICROS,
                "dur": s.duration * MICROS,
                "args": args,
            }
        )
    return events


def _finite(value: float, fallback: float = 0.0) -> float:
    """Coerce NaN/inf to ``fallback``; trace viewers reject non-finite
    timestamps and negative durations, so the export sanitizes instead
    of emitting a file Perfetto silently drops."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return fallback
    return v if math.isfinite(v) else fallback


def _core_tracks(machine) -> Dict[Any, Tuple[int, int]]:
    """Map each core to its ``(pid, run-tid)``; wait tid is run tid + 1."""
    tracks: Dict[Any, Tuple[int, int]] = {}
    for i, core in enumerate(machine.cores()):
        tracks[core] = (CORE_PID_BASE + core.node, 2 * i)
    return tracks


def execution_trace_events(
    trace,
    graph=None,
    *,
    flows: bool = True,
) -> List[Dict[str, Any]]:
    """Trace-event list for a simulated :class:`ExecutionTrace`.

    One process per compute node, two threads per physical core: the run
    track carries the comp/comm slices that exactly tile each task's
    ``[start, finish]`` interval on that core, the wait track carries the
    re-distribution delay charged before the start.  With ``graph``,
    flow arrows connect producer finish to consumer start along every
    data dependency present in the trace.
    """
    tracks = _core_tracks(trace.machine)
    entries = sorted(trace.entries, key=lambda e: (e.start, e.task.name))
    used_cores = sorted(
        {c for e in entries for c in e.cores}
        | {c for e in entries for c in getattr(e, "backup_cores", ())}
    )
    used_nodes = sorted({c.node for c in used_cores})

    events: List[Dict[str, Any]] = []
    for node in used_nodes:
        pid = CORE_PID_BASE + node
        events.append(_meta(pid, "process_name", f"node {node}"))
    for core in used_cores:
        pid, tid = tracks[core]
        events.append(_meta(pid, "thread_name", f"core {core.label}", tid=tid))
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"sort_index": tid},
            }
        )

    wait_cores = set()
    for e in entries:
        # failed attempts + backoff precede the successful attempt, so the
        # fault slice leads and comp/comm tile the rest of [start, finish]
        overhead = max(0.0, _finite(getattr(e, "fault_overhead", 0.0)))
        spec = getattr(e, "speculation", "")
        # sanitize the interval itself: a 0.0 or NaN-adjacent simulated
        # duration must still tile [start, finish] without inverting it
        start = max(0.0, _finite(e.start))
        finish = max(start, _finite(e.finish, start))
        comp_time = max(0.0, _finite(e.comp_time))
        redist_wait = max(0.0, _finite(e.redist_wait))
        # a winning backup cancels the primary at the backup's finish, so
        # every primary slice is clamped to [start, finish]
        comp_start = min(start + overhead, finish)
        comp_end = min(comp_start + comp_time, finish)
        args = {
            "width": len(e.cores),
            "comp_time": e.comp_time,
            "comm_time": e.comm_time,
            "redist_wait": e.redist_wait,
        }
        if getattr(e, "retries", 0):
            args["retries"] = e.retries
        if overhead > 0:
            args["fault_overhead"] = overhead
        if spec:
            args["speculation"] = spec
            args["primary_finish"] = e.primary_finish
        for c in e.cores:
            pid, tid = tracks[c]
            if overhead > 0 and comp_start > start:
                events.append(
                    {
                        "ph": "X",
                        "name": f"{e.task.name} (retries)",
                        "cat": "fault",
                        "pid": pid,
                        "tid": tid,
                        "ts": start * MICROS,
                        "dur": (comp_start - start) * MICROS,
                        "args": args,
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "name": e.task.name,
                    "cat": "comp",
                    "pid": pid,
                    "tid": tid,
                    "ts": comp_start * MICROS,
                    "dur": (comp_end - comp_start) * MICROS,
                    "args": args,
                }
            )
            # the comm slice tiles the remainder of [start, finish]
            # exactly (comp + comm == duration up to float error)
            if finish > comp_end:
                events.append(
                    {
                        "ph": "X",
                        "name": f"{e.task.name} (comm)",
                        "cat": "comm",
                        "pid": pid,
                        "tid": tid,
                        "ts": comp_end * MICROS,
                        "dur": (finish - comp_end) * MICROS,
                        "args": args,
                    }
                )
            if redist_wait > 0:
                wait_start = max(0.0, start - redist_wait)
                events.append(
                    {
                        "ph": "X",
                        "name": f"{e.task.name} (redist wait)",
                        "cat": "redist",
                        "pid": pid,
                        "tid": tid + 1,
                        "ts": wait_start * MICROS,
                        "dur": (start - wait_start) * MICROS,
                        "args": args,
                    }
                )
                wait_cores.add(c)
        # speculative backup attempt on its idle cores, threshold to finish
        for c in getattr(e, "backup_cores", ()):
            pid, tid = tracks[c]
            backup_start = min(max(0.0, _finite(e.backup_start)), finish)
            events.append(
                {
                    "ph": "X",
                    "name": f"{e.task.name} (backup)",
                    "cat": "speculation",
                    "pid": pid,
                    "tid": tid,
                    "ts": backup_start * MICROS,
                    "dur": (finish - backup_start) * MICROS,
                    "args": args,
                }
            )
    for core in sorted(wait_cores):
        pid, tid = tracks[core]
        events.append(
            _meta(pid, "thread_name", f"core {core.label} (redist wait)", tid=tid + 1)
        )

    if flows and graph is not None:
        events.extend(_flow_events(trace, graph, tracks))
    return events


def _flow_events(trace, graph, tracks) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    flow_id = 1
    for u, v, _flows in graph.edges():
        if u not in trace or v not in trace:
            continue
        eu, ev = trace[u], trace[v]
        pid_u, tid_u = tracks[eu.cores[0]]
        pid_v, tid_v = tracks[ev.cores[0]]
        common = {"cat": "dataflow", "name": "dep", "id": flow_id}
        events.append(
            {
                "ph": "s",
                "pid": pid_u,
                "tid": tid_u,
                # bind strictly inside the producer's final slice
                "ts": max(eu.start, eu.finish - 1e-9) * MICROS,
                **common,
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "pid": pid_v,
                "tid": tid_v,
                "ts": ev.start * MICROS,
                **common,
            }
        )
        flow_id += 1
    return events


def _sorted_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    # metadata first, then per-track chronological; at equal ts the
    # longer slice first so complete events nest for the viewer
    order = {"M": 0}
    return sorted(
        events,
        key=lambda e: (
            order.get(e["ph"], 1),
            e["pid"],
            e["tid"],
            e.get("ts", 0),
            -e.get("dur", 0),
        ),
    )


def pipeline_trace(
    result, *, flows: bool = True, run_meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The full trace-event JSON document of one pipeline run.

    ``result`` is a :class:`~repro.pipeline.PipelineResult`; the
    document merges its instrumentation spans and (when the pipeline
    simulated) its execution trace.  ``run_meta`` (solver, cores,
    backend, program digest, ...) is stamped into ``otherData["run"]``
    and as ``process_labels`` metadata on every process, so an archived
    trace stays self-describing; ``None`` keeps the document
    byte-identical to earlier releases.
    """
    events = span_events(result.obs)
    events.extend(worker_span_events(result.obs))
    if result.trace is not None:
        events.extend(execution_trace_events(result.trace, result.graph, flows=flows))
    reschedule = getattr(result, "reschedule", None)
    if reschedule is not None and result.trace is not None:
        # global instant marker on the first surviving node's process at
        # the moment the platform shrank and the suffix was re-planned
        nodes = sorted({c.node for e in result.trace.entries for c in e.cores})
        events.append(
            {
                "ph": "i",
                "s": "g",
                "name": f"core loss: -{reschedule.loss.nodes} node(s)",
                "cat": "fault",
                "pid": CORE_PID_BASE + (nodes[0] if nodes else 0),
                "tid": 0,
                "ts": reschedule.prefix_makespan * MICROS,
                "args": reschedule.summary(),
            }
        )
    other: Dict[str, Any] = {
        "exporter": "repro.obs.perfetto",
        "scheduler": result.scheduling.scheduler,
        "nprocs": result.scheduling.nprocs,
        "tasks": len(result.graph),
        "predicted_makespan": result.predicted_makespan,
        "simulated_makespan": result.trace.makespan if result.trace else None,
    }
    if result.meta.get("faults"):
        other["faults"] = result.meta["faults"]
    if result.meta.get("speculation"):
        other["speculation"] = result.meta["speculation"]
        if result.trace is not None:
            other["speculation_summary"] = result.trace.speculation_summary()
    if reschedule is not None:
        other["reschedule"] = reschedule.summary()
    if run_meta:
        other["run"] = dict(run_meta)
        label = ", ".join(f"{k}={v}" for k, v in run_meta.items())
        for pid in sorted(
            {
                ev["pid"]
                for ev in events
                if ev.get("ph") == "M" and ev.get("name") == "process_name"
            }
        ):
            events.append(
                {
                    "ph": "M",
                    "name": "process_labels",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"labels": label},
                }
            )
    return {
        "traceEvents": _sorted_events(events),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_trace(path, document: Dict[str, Any]) -> Path:
    """Write a trace-event document (or raw event list) to ``path``."""
    if isinstance(document, list):
        document = {"traceEvents": _sorted_events(document), "displayTimeUnit": "ms"}
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, default=str) + "\n")
    return out


def validate_trace_events(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema-check a trace-event list; returns the list of problems.

    Checks the invariants the test-suite and the viewer rely on: every
    event has a phase, complete events carry non-negative ``ts``/``dur``
    and integer ``pid``/``tid``, and per-track start times are
    monotonically non-decreasing in document order.
    """
    problems: List[str] = []
    last_ts: Dict[Tuple[int, int], float] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph is None:
            problems.append(f"event {i}: missing 'ph'")
            continue
        if ph == "M":
            continue
        for key in ("ts", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i} ({ph}): missing {key!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"event {i} ({ph}): pid/tid must be integers")
            continue
        ts = ev.get("ts", 0)
        if not math.isfinite(ts):
            # NaN compares False against everything, so the sign checks
            # below would silently pass a timestamp the viewer rejects
            problems.append(f"event {i} ({ph}): non-finite ts {ts}")
            continue
        if ts < 0:
            problems.append(f"event {i} ({ph}): negative ts {ts}")
        if ph == "X":
            dur = ev.get("dur")
            if dur is None:
                problems.append(f"event {i}: complete event without 'dur'")
            elif not math.isfinite(dur):
                problems.append(f"event {i}: non-finite dur {dur}")
            elif dur < 0:
                problems.append(f"event {i}: negative dur {dur}")
            track = (ev["pid"], ev["tid"])
            if ts < last_ts.get(track, 0.0) - 1e-6:
                problems.append(
                    f"event {i}: ts {ts} goes backwards on track {track}"
                )
            last_ts[track] = max(last_ts.get(track, 0.0), ts)
    return problems
