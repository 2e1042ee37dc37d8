"""Tests for the Chrome trace-event / Perfetto exporter."""

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import pytest

from repro.cluster import generic_cluster
from repro.core import CollectiveSpec, CostModel, DataFlow, MTask, TaskGraph
from repro.obs import (
    Instrumentation,
    execution_trace_events,
    pipeline_trace,
    span_events,
)
from repro.obs.perfetto import MICROS, write_trace
from repro.pipeline import SchedulingPipeline
from repro.scheduling import LayerBasedScheduler

GOLDEN = Path(__file__).parent / "data" / "golden_irk_trace.json"


def validate_trace_events(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema-check a trace-event list; returns the list of problems.

    The exporter's oracle: the invariants the viewer relies on -- every
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


def irk_two_layer_pipeline():
    """The IRK step kernel as a 2-layer M-task graph: K=2 stage-vector
    tasks feeding the combine task, with data flows on the edges."""
    plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
    cost = CostModel(plat)
    n = 5000
    g = TaskGraph()
    combine = MTask(
        "combine", work=5e6, comm=(CollectiveSpec("bcast", n, scope="global"),)
    )
    for k in (1, 2):
        stage = MTask(
            f"stage{k}",
            work=2e7,
            comm=(CollectiveSpec("allgather", n, scope="group"),),
        )
        g.add_dependency(stage, combine, [DataFlow(f"MU{k}", n)])
    pipe = SchedulingPipeline(LayerBasedScheduler(cost))
    return pipe.run(g)


@pytest.fixture(scope="module")
def result():
    return irk_two_layer_pipeline()


@pytest.fixture(scope="module")
def document(result):
    return pipeline_trace(result)


class TestSchema:
    def test_two_layer_schedule(self, result):
        assert result.scheduling.layered.num_layers == 2

    def test_validator_finds_no_problems(self, document):
        assert validate_trace_events(document["traceEvents"]) == []

    def test_every_event_has_phase(self, document):
        assert all("ph" in ev for ev in document["traceEvents"])

    def test_complete_events_have_ts_dur_pid_tid(self, document):
        for ev in document["traceEvents"]:
            if ev["ph"] != "X":
                continue
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)

    def test_track_timestamps_monotonic(self, document):
        last = {}
        for ev in document["traceEvents"]:
            if ev["ph"] != "X":
                continue
            track = (ev["pid"], ev["tid"])
            assert ev["ts"] >= last.get(track, 0.0) - 1e-6
            last[track] = ev["ts"]

    def test_validator_reports_problems(self):
        events = [
            {"name": "x"},  # no phase
            {"ph": "X", "name": "y", "ts": -1, "dur": 1, "pid": 1, "tid": 1},
        ]
        problems = validate_trace_events(events)
        assert any("missing 'ph'" in p for p in problems)
        assert any("negative ts" in p for p in problems)

    def test_document_metadata(self, document, result):
        other = document["otherData"]
        assert other["simulated_makespan"] == pytest.approx(result.trace.makespan)
        assert other["tasks"] == 3


class TestCoreSlices:
    def _core_run_slices(self, result):
        """Comp/comm slices per (pid, tid) run track, from the events."""
        events = execution_trace_events(result.trace, result.graph)
        slices = {}
        for ev in events:
            if ev.get("ph") == "X" and ev.get("cat") in ("comp", "comm"):
                slices.setdefault((ev["pid"], ev["tid"]), []).append(ev)
        return slices

    def test_slices_tile_task_intervals_exactly(self, result):
        """Acceptance: per-core slices exactly tile each core's
        ``[start, finish]`` intervals -- no overlaps, gaps are idle."""
        slices = self._core_run_slices(result)
        # collect the expected intervals per core from the trace itself
        from repro.obs.perfetto import _core_tracks

        tracks = _core_tracks(result.trace.machine)
        by_track = {}
        for e in result.trace.entries:
            for c in e.cores:
                by_track.setdefault(tracks[c], []).append(e)
        assert set(slices) == set(
            tr for tr, entries in by_track.items() if entries
        )
        for track, entries in by_track.items():
            evs = sorted(slices[track], key=lambda ev: ev["ts"])
            # no overlaps anywhere on the track
            for a, b in zip(evs, evs[1:]):
                assert a["ts"] + a["dur"] <= b["ts"] + 1e-6
            # each entry's [start, finish] is exactly covered
            for e in sorted(entries, key=lambda e: e.start):
                inside = [
                    ev
                    for ev in evs
                    if ev["ts"] >= e.start * MICROS - 1e-6
                    and ev["ts"] + ev["dur"] <= e.finish * MICROS + 1e-6
                ]
                assert inside, f"no slices for {e.task.name}"
                assert inside[0]["ts"] == pytest.approx(e.start * MICROS)
                assert inside[-1]["ts"] + inside[-1]["dur"] == pytest.approx(
                    e.finish * MICROS
                )
                covered = sum(ev["dur"] for ev in inside)
                assert covered == pytest.approx((e.finish - e.start) * MICROS)

    def test_flow_arrows_follow_dependencies(self, result):
        events = execution_trace_events(result.trace, result.graph)
        starts = [ev for ev in events if ev["ph"] == "s"]
        finishes = [ev for ev in events if ev["ph"] == "f"]
        # two edges: stage1 -> combine, stage2 -> combine
        assert len(starts) == len(finishes) == 2
        assert all(ev["bp"] == "e" for ev in finishes)
        combine_start = result.trace.entries[-1].start
        for ev in finishes:
            assert ev["ts"] == pytest.approx(combine_start * MICROS)

    def test_redist_wait_on_separate_track(self, result):
        events = execution_trace_events(result.trace, result.graph)
        waits = [ev for ev in events if ev.get("cat") == "redist"]
        has_wait = any(e.redist_wait > 0 for e in result.trace.entries)
        assert bool(waits) == has_wait
        run_tids = {
            ev["tid"]
            for ev in events
            if ev.get("cat") in ("comp", "comm")
        }
        assert all(ev["tid"] not in run_tids for ev in waits)


class TestSpanEvents:
    def test_span_tree_exported_with_ids(self):
        obs = Instrumentation()
        with obs.span("pipeline"):
            with obs.span("layer", index=0):
                pass
            with obs.span("layer", index=1):
                pass
        events = span_events(obs)
        xs = [ev for ev in events if ev["ph"] == "X"]
        assert [ev["name"] for ev in xs] == ["pipeline", "layer", "layer"]
        pipeline_id = xs[0]["args"]["id"]
        layer_ids = {ev["args"]["id"] for ev in xs[1:]}
        assert len(layer_ids) == 2
        assert all(ev["args"]["parent_id"] == pipeline_id for ev in xs[1:])

    def test_empty_instrumentation_yields_no_events(self):
        assert span_events(Instrumentation()) == []


class TestGolden:
    def test_matches_golden_file(self, result):
        """The exporter's simulated-side output is deterministic; compare
        against the committed golden file (float-tolerant)."""
        events = execution_trace_events(result.trace, result.graph)
        golden = json.loads(GOLDEN.read_text())
        assert len(events) == len(golden)
        for got, want in zip(events, golden):
            assert got.get("ph") == want.get("ph")
            assert got.get("name") == want.get("name")
            assert got.get("cat") == want.get("cat")
            assert got.get("pid") == want.get("pid")
            assert got.get("tid") == want.get("tid")
            assert got.get("ts", 0) == pytest.approx(want.get("ts", 0), rel=1e-9)
            assert got.get("dur", 0) == pytest.approx(want.get("dur", 0), rel=1e-9)


class TestMergedAndWritten:
    def test_write_trace_round_trips(self, tmp_path, document):
        path = write_trace(tmp_path / "trace.json", document)
        parsed = json.loads(path.read_text())
        assert parsed["displayTimeUnit"] == "ms"
        assert len(parsed["traceEvents"]) == len(document["traceEvents"])
