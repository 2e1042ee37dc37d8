"""Round-trip tests: a live run's ScheduleAnalysis exported as run-JSON
must survive serialisation (NaN / empty-histogram fields included) and
drive ``repro.obs report --run`` plus the ``diff`` gate, calibration and
registry blocks intact."""

import json
import math

import pytest

from repro.cluster import chic
from repro.experiments.common import ode_pipeline
from repro.mapping import consecutive
from repro.obs import RunRecord, analyze, record_from_result
from repro.obs.cli import flatten_metrics, main
from repro.obs.metrics import Histogram
from repro.ode import MethodConfig, bruss2d

QUICK = ["--solver", "irk", "--cores", "16", "--quick"]


@pytest.fixture(scope="module")
def result():
    return ode_pipeline(
        bruss2d(40),
        MethodConfig("irk", K=4, m=3),
        chic().with_cores(16),
        consecutive(),
    )


@pytest.fixture(scope="module")
def exported(tmp_path_factory, result):
    """One CLI export: ``(trace path, run-JSON payload, run path)``."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    out, run = tmp / "trace.json", tmp / "run.json"
    rc = main(["export", *QUICK, "-o", str(out), "--run-json", str(run)])
    assert rc == 0
    return out, json.loads(run.read_text()), run


class TestAnalysisRoundTrip:
    def test_analysis_survives_json(self, result):
        analysis = result.analysis()
        clone = json.loads(json.dumps(analysis.to_dict(), default=str))
        assert clone["busy_fraction"] == pytest.approx(
            analysis.to_dict()["busy_fraction"]
        )
        assert clone["total_cores"] == analysis.to_dict()["total_cores"]

    def test_empty_histogram_fields_round_trip(self):
        # an empty histogram's min/max are NaN; to_dict collapses to count 0
        h = Histogram("empty")
        assert math.isnan(h.min) and math.isnan(h.max)
        assert json.loads(json.dumps(h.to_dict())) == {"count": 0}

    def test_nan_metrics_are_skipped_by_the_gate(self):
        flat = flatten_metrics(
            {"metrics": {"makespan": 1.0, "weird": float("nan")}}
        )
        assert flat == {"makespan": 1.0}

    def test_run_json_carries_all_blocks(self, exported):
        _, payload, _ = exported
        assert payload["schema"] == "repro.obs.run/1"
        assert payload["metrics"]["makespan"] > 0
        assert payload["analysis"]["busy_fraction"] > 0
        calib = payload["calibration"]
        assert calib["mode"] == "sim"
        assert calib["tasks"] > 0
        assert set(calib["residual_quantiles"]) == {"p50", "p90", "p99"}
        assert calib["worst"]

    def test_report_from_exported_run_json(self, exported, capsys):
        _, _, run_path = exported
        assert main(["report", "--run", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "calibration (sim)" in out

    def test_exported_run_json_self_diffs_clean(self, exported):
        _, _, run_path = exported
        assert main(["diff", str(run_path), str(run_path)]) == 0

    def test_trace_carries_run_metadata(self, exported):
        trace_path, _, _ = exported
        doc = json.loads(trace_path.read_text())
        assert doc["otherData"]["run"]["solver"] == "irk"
        assert "program_digest" in doc["otherData"]["run"]
        labels = [
            ev for ev in doc["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_labels"
        ]
        assert labels
        assert all("solver=irk" in ev["args"]["labels"] for ev in labels)


class TestRegistryRoundTrip:
    def test_record_survives_registry_file(self, tmp_path, result):
        from repro.obs import RunRegistry

        rec = record_from_result(
            result, spec={"solver": "irk"}, timestamp=42.0
        )
        reg = RunRegistry(tmp_path / "runs")
        reg.append(rec)
        (stored,) = reg.load()
        clone = RunRecord.from_dict(stored)
        assert clone.to_json() == rec.to_json()
        # the analysis block made it through intact
        assert clone.analysis["busy_fraction"] == pytest.approx(
            result.analysis().to_dict()["busy_fraction"]
        )

    def test_cli_export_appends_run_record(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["export", *QUICK, "-o", str(out),
                   "--registry-dir", str(tmp_path / "reg")])
        assert rc == 0
        lines = (tmp_path / "reg" / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["schema"] == "repro.obs.runrecord/1"
        assert record["solver"] == "irk"
        assert record["metrics"]["makespan"] > 0

    def test_analyze_matches_result_analysis(self, result):
        direct = analyze(result).to_dict()
        via_result = result.analysis().to_dict()
        assert direct["busy_fraction"] == pytest.approx(
            via_result["busy_fraction"]
        )
