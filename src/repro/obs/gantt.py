"""Terminal-side Gantt rendering of traces and layered schedules.

The one renderer of a simulated :class:`~repro.sim.trace.ExecutionTrace`
(``legend=False`` gives the bare per-core or per-node strip); it draws
the chart the ``repro.obs gantt`` subcommand prints:

* a time axis in milliseconds,
* one row per physical core (or per node), upper-case letters for the
  computation part of a task slice, lower-case for its communication
  tail, ``~`` for re-distribution waits inside otherwise idle gaps,
* a legend mapping letters to task names with start/finish times,
* for layered schedules, per-layer group bars showing the load balance
  the scheduler achieved.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

__all__ = ["render_trace", "render_layers"]


def _letter(i: int) -> str:
    return chr(ord("A") + i % 26)


def _axis(span: float, width: int, indent: int) -> List[str]:
    """Two header lines: tick marks and millisecond labels."""
    ticks = [0.0, 0.25, 0.5, 0.75, 1.0]
    marks = [" "] * width
    labels = [" "] * (width + 12)
    for f in ticks:
        x = min(int(f * (width - 1)), width - 1)
        marks[x] = "|"
        text = f"{f * span * 1e3:.3g}"
        for j, ch in enumerate(text):
            if x + j < len(labels):
                labels[x + j] = ch
    pad = " " * indent
    return [pad + " " + "".join(labels[:width]) + " [ms]", pad + " " + "".join(marks)]


def render_trace(
    trace,
    width: int = 72,
    by: str = "core",
    legend: bool = True,
    max_rows: int = 64,
) -> str:
    """ASCII Gantt chart of an :class:`~repro.sim.trace.ExecutionTrace`.

    ``by`` is ``"core"`` (one row per physical core) or ``"node"`` (one
    row per compute node).  Upper-case cells are computation, lower-case
    communication, ``~`` re-distribution wait, ``!`` fault overhead
    (failed attempts + backoff of injected faults), blank idle.
    """
    if by not in ("core", "node"):
        raise ValueError("by must be 'core' or 'node'")
    span = trace.makespan
    if not (math.isfinite(span) and span > 0):
        # zero-duration traces (and NaN-polluted ones) still render: every
        # slice collapses onto the first column instead of crashing cell()
        span = 1.0
    entries = sorted(trace.entries, key=lambda e: (e.start, e.task.name))
    letters = {e.task: _letter(i) for i, e in enumerate(entries)}

    used = {c for e in entries for c in e.cores} | {
        c for e in entries for c in getattr(e, "backup_cores", ())
    }
    if by == "node":
        keys = sorted({c.node for c in used})
        key_of = lambda c: c.node
        label = lambda k: f"node {k:4d}"
    else:
        keys = sorted(used)
        key_of = lambda c: c
        label = lambda k: f"core {k.label:>7s}"

    def cell(t: float) -> int:
        if not math.isfinite(t) or t < 0:
            # NaN-adjacent timestamps degrade to the chart origin; they
            # must not crash int() or produce negative column indices
            t = 0.0
        return min(int(t / span * (width - 1)), width - 1)

    grid: Dict[Any, List[str]] = {k: [" "] * width for k in keys}
    for e in entries:
        a = cell(e.start)
        overhead = getattr(e, "fault_overhead", 0.0)
        comp_start = e.start + overhead
        f = max(a + 1, cell(comp_start)) if overhead > 0 else a
        comp_end = comp_start + e.comp_time
        b = max(f + 1, cell(comp_end))
        c_end = max(b, cell(e.finish))
        ch = letters[e.task]
        for core in e.cores:
            row = grid[key_of(core)]
            if e.redist_wait > 0:
                for x in range(cell(max(0.0, e.start - e.redist_wait)), a):
                    if row[x] == " ":
                        row[x] = "~"
            for x in range(a, min(f, width)):
                row[x] = "!"
            for x in range(f, min(b, width)):
                row[x] = ch
            for x in range(b, min(c_end, width)):
                row[x] = ch.lower()
        # speculative backup attempt on its idle cores
        if getattr(e, "backup_cores", ()):
            ba = cell(e.backup_start)
            bb = max(ba + 1, cell(e.finish))
            for core in e.backup_cores:
                row = grid[key_of(core)]
                for x in range(ba, min(bb, width)):
                    if row[x] == " ":
                        row[x] = "+"

    indent = len(label(keys[0])) if keys else 8
    lines = _axis(span, width, indent)
    shown = keys[:max_rows]
    for k in shown:
        lines.append(f"{label(k)} |{''.join(grid[k])}|")
    if len(keys) > len(shown):
        lines.append(f"... {len(keys) - len(shown)} more rows (raise max_rows)")
    if legend:
        lines.append("")
        lines.append(
            "legend (UPPER = comp, lower = comm, ~ = redist wait, "
            "! = fault overhead, + = speculative backup):"
        )
        for e in entries[: 2 * 26]:
            spec = getattr(e, "speculation", "")
            lines.append(
                f"  {letters[e.task]}  {e.task.name:<24s} "
                f"[{e.start * 1e3:9.3f}, {e.finish * 1e3:9.3f}] ms  "
                f"x{len(e.cores)} cores"
                + (f"  [spec {spec}]" if spec else "")
            )
        if len(entries) > 2 * 26:
            lines.append(f"  ... {len(entries) - 2 * 26} more tasks")
    return "\n".join(lines)


def render_layers(layered, cost, width: int = 48) -> str:
    """Per-layer group bars of a layered schedule.

    Each group of each layer gets one bar proportional to its summed
    symbolic execution time; the longest group of a layer sets the
    layer's span, so ragged bars show intra-layer imbalance directly.
    """
    lines: List[str] = [
        f"layered schedule: {layered.num_layers} layers on {layered.nprocs} cores"
    ]
    for li, layer in enumerate(layered.layers):
        loads: List[float] = []
        for gi, group in enumerate(layer.groups):
            q = layer.group_sizes[gi]
            load = 0.0
            for node in group:
                for m in layered.expand(node):
                    load += cost.tsymb(m, m.clamp_procs(q))
            loads.append(load)
        longest = max(loads) if loads else 0.0
        lines.append(f" layer {li}  ({len(layer.tasks)} tasks, {layer.num_groups} groups)")
        for gi, load in enumerate(loads):
            frac = load / longest if longest > 0 else 0.0
            bar = "#" * max(1, int(frac * width)) if load > 0 else ""
            names = ", ".join(t.name for t in layer.groups[gi][:3])
            if len(layer.groups[gi]) > 3:
                names += ", ..."
            lines.append(
                f"   g{gi} {layer.group_sizes[gi]:4d}c |{bar:<{width}s}| "
                f"{load * 1e3:9.3f} ms  {names}"
            )
    return "\n".join(lines)

