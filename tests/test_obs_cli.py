"""Tests for the ``python -m repro.obs`` command-line interface."""

import json

import pytest

from repro.obs.cli import compare_metrics, flatten_metrics, main

QUICK = ["--solver", "irk", "--cores", "16", "--quick"]


def run_json(tmp_path, name, makespan, extra=None):
    payload = {
        "schema": "repro.obs.run/1",
        "spec": {"solver": "irk"},
        "metrics": {"makespan": makespan, **(extra or {})},
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestExport:
    def test_export_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        run = tmp_path / "run.json"
        rc = main(
            ["export", *QUICK, "-o", str(out), "--run-json", str(run)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert all("ph" in ev for ev in doc["traceEvents"])
        payload = json.loads(run.read_text())
        assert payload["schema"] == "repro.obs.run/1"
        assert payload["metrics"]["makespan"] > 0
        assert "busy_fraction" in payload["analysis"]

    def test_journaled_run_resumes_on_a_pool(self, tmp_path, capsys):
        """The CLI front door of a journaled functional run: the first
        ``export --checkpoint-dir`` executes every task, the same command
        with ``--resume`` restores them all from the journal."""
        ckpt = str(tmp_path / "ckpt")
        summaries = []
        for name, extra in (("a.json", []), ("b.json", ["--resume"])):
            run = tmp_path / name
            rc = main(["export", "--quick", "--checkpoint-dir", ckpt,
                       "--backend", "pool:2", *extra,
                       "-o", str(tmp_path / "trace.json"), "--run-json", str(run)])
            assert rc == 0
            summaries.append(json.loads(run.read_text())["recovery"])
        first, resumed = summaries
        assert first["resumed_tasks"] == 0 and first["tasks_executed"] > 0
        # ``tasks_executed`` counts every task the run completed, restored
        # ones included: all of them were restored, none ran again
        assert resumed["resumed_tasks"] == first["tasks_executed"]
        assert resumed["tasks_executed"] == resumed["resumed_tasks"]
        assert resumed["checkpoint_bytes"] == 0 < first["checkpoint_bytes"]
        assert [s["backend"] for s in summaries] == ["pool:2", "pool:2"]


class TestReportAndGantt:
    def test_report_live(self, capsys):
        assert main(["report", *QUICK]) == 0
        text = capsys.readouterr().out
        assert "busy fraction" in text

    def test_report_from_run_json(self, tmp_path, capsys):
        run = run_json(tmp_path, "run.json", 2.5, {"busy_fraction": 0.8})
        assert main(["report", "--run", str(run)]) == 0
        text = capsys.readouterr().out
        assert "makespan" in text

    def test_gantt(self, capsys):
        assert main(["gantt", *QUICK, "--width", "40"]) == 0
        text = capsys.readouterr().out
        assert "core" in text

    def test_gantt_layers(self, capsys):
        assert main(["gantt", *QUICK, "--layers"]) == 0
        assert "layer 0" in capsys.readouterr().out


#: malformed values of the run-spec flags (``D`` is a checkpoint dir)
MALFORMED = {
    "obs": [
        ["--platform", "nope"],
        ["--cores", "250"],  # CHiC allocates whole nodes of 4 cores
        ["--faults", "7:x"],
        ["--speculate", "abc"],
        ["--backend", "pool:x", "--checkpoint-dir", "D"],
        ["--n", "1"],  # the request bounds: 2 <= n <= MAX_PROBLEM_N
        ["--quick", "--n", "500"],  # two problem sizes
    ],
    "experiments": [
        ["--faults", "7:x"],
        ["--speculate", "abc"],
        # run flags that only ``repro.obs`` takes
        ["--backend", "pool:x", "--checkpoint-dir", "D"],
    ],
}


@pytest.mark.parametrize(
    "cli,args",
    [(cli, args) for cli, cases in MALFORMED.items() for args in cases],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_malformed_value_is_a_usage_error(cli, args, tmp_path, capsys):
    """A usage error (exit 2) before anything runs, not a traceback."""
    from repro.experiments.__main__ import main as experiments_main

    ckpt = tmp_path / "ckpt"
    args = [str(ckpt) if a == "D" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        if cli == "obs":
            main(["report", *args])
        else:
            experiments_main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("usage:") == 1 and "error:" in err
    assert not ckpt.exists()


class TestFlatten:
    def test_flat_metrics_dict(self):
        flat = flatten_metrics({"metrics": {"makespan": 1.0, "note": "x"}})
        assert flat == {"makespan": 1.0}

    def test_bench_rows_are_prefixed(self):
        payload = {
            "results": [
                {"solver": "irk", "simulated_makespan": 2.0, "cores": 64},
                {"solver": "pab", "simulated_makespan": 3.0, "cores": 64},
            ]
        }
        flat = flatten_metrics(payload)
        assert flat["irk.simulated_makespan"] == 2.0
        assert flat["pab.simulated_makespan"] == 3.0

    def test_booleans_and_non_finite_skipped(self):
        flat = flatten_metrics(
            {"metrics": {"ok": True, "inf": float("inf"), "makespan": 1.0}}
        )
        assert flat == {"makespan": 1.0}


class TestCompare:
    def test_regression_detected_lower_is_better(self):
        rows = compare_metrics({"makespan": 1.0}, {"makespan": 1.3}, 1.25)
        (row,) = [r for r in rows if r["regressed"]]
        assert row["metric"] == "makespan"
        assert row["ratio"] == pytest.approx(1.3)

    def test_regression_detected_higher_is_better(self):
        rows = compare_metrics(
            {"cache_hit_rate": 0.9}, {"cache_hit_rate": 0.6}, 1.25
        )
        assert any(r["regressed"] for r in rows)

    def test_simulated_seconds_regression_fails_the_gate(self, tmp_path, capsys):
        """``*_seconds`` run metrics are simulated, hence gated like the
        makespan: a 3x fault overhead alone makes ``diff`` exit 1."""
        old = tmp_path / "old.json"
        rc = main(["export", *QUICK, "--faults", "7:0.3",
                   "-o", str(tmp_path / "trace.json"), "--run-json", str(old)])
        assert rc == 0
        payload = json.loads(old.read_text())
        payload["metrics"]["fault_overhead_seconds"] *= 3
        new = tmp_path / "new.json"
        new.write_text(json.dumps(payload))
        assert main(["diff", str(old), str(old)]) == 0
        assert main(["diff", str(old), str(new)]) == 1
        assert "fault_overhead_seconds" in capsys.readouterr().out

    def test_improvement_not_flagged(self):
        rows = compare_metrics({"makespan": 1.3}, {"makespan": 1.0}, 1.25)
        assert not any(r["regressed"] for r in rows)


class TestDiff:
    def test_identical_runs_diff_zero(self, tmp_path, capsys):
        a = run_json(tmp_path, "a.json", 2.0)
        b = run_json(tmp_path, "b.json", 2.0)
        assert main(["diff", str(a), str(b)]) == 0

    def test_synthetic_makespan_regression_exits_nonzero(self, tmp_path, capsys):
        """Acceptance: a >=25% makespan regression trips the default gate."""
        base = run_json(tmp_path, "base.json", 1.0)
        worse = run_json(tmp_path, "worse.json", 1.3)
        rc = main(["diff", "--threshold", "1.25", str(base), str(worse)])
        assert rc != 0
        assert "makespan" in capsys.readouterr().out

    def test_threshold_is_configurable(self, tmp_path, capsys):
        base = run_json(tmp_path, "base.json", 1.0)
        worse = run_json(tmp_path, "worse.json", 1.3)
        assert main(["diff", "--threshold", "1.5", str(base), str(worse)]) == 0

    def test_bench_payloads_diff(self, tmp_path, capsys):
        old = {"results": [{"solver": "irk", "simulated_makespan": 1.0}]}
        new = {"results": [{"solver": "irk", "simulated_makespan": 2.0}]}
        pa, pb = tmp_path / "old.json", tmp_path / "new.json"
        pa.write_text(json.dumps(old))
        pb.write_text(json.dumps(new))
        assert main(["diff", str(pa), str(pb)]) == 1
        assert "irk.simulated_makespan" in capsys.readouterr().out

    def test_no_comparable_metrics(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"metrics": {"x_seconds": 1.0}}))
        b.write_text(json.dumps({"metrics": {"y_seconds": 2.0}}))
        assert main(["diff", str(a), str(b)]) == 2

    def test_rows_sorted_worst_relative_delta_first(self, tmp_path, capsys):
        base = run_json(
            tmp_path, "base.json",
            1.0, {"idle_fraction": 0.1, "critical_path_share": 0.2},
        )
        worse = run_json(
            tmp_path, "worse.json",
            1.5, {"idle_fraction": 0.4, "critical_path_share": 0.21},
        )
        rc = main(["diff", "--verbose", str(base), str(worse)])
        assert rc == 1
        out = capsys.readouterr().out
        table = [
            line.split()[0]
            for line in out.splitlines()
            if line.startswith(("makespan", "idle_fraction",
                                "critical_path_share"))
        ]
        # idle_fraction quadrupled, makespan x1.5, critical path ~flat
        assert table == ["idle_fraction", "makespan", "critical_path_share"]

    def test_failure_message_includes_absolute_values(self, tmp_path, capsys):
        base = run_json(tmp_path, "base.json", 1.0)
        worse = run_json(tmp_path, "worse.json", 1.5)
        assert main(["diff", str(base), str(worse)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED makespan: 1 -> 1.5 (ratio 1.500 > 1.25)" in out

    def test_committed_baseline_self_diff_passes(self, capsys):
        """The CI gate diffing the committed baseline against itself must
        pass -- mirrors the workflow wiring."""
        from pathlib import Path

        bench = Path(__file__).parent.parent / "BENCH_shootout.json"
        assert bench.exists()
        assert main(["diff", "--threshold", "1.25", str(bench), str(bench)]) == 0
