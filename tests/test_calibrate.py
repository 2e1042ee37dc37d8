"""Tests for predicted-vs-actual cost-model calibration: the simulator
join, wall-clock joins from the serial and pool backend spans, grouping
and worst-offender reports, and the gate semantics -- including the
acceptance criterion that an intentionally mispriced cost model makes
``repro.obs calib --gate`` exit non-zero."""

import pytest

from repro.cluster import chic
from repro.experiments.common import ode_pipeline
from repro.mapping import consecutive
from repro.obs import Instrumentation, calibrate_spans
from repro.obs.calibrate import CalibrationReport, TaskCalibration
from repro.obs.cli import main
from repro import ode
from repro.ode import MethodConfig, bruss2d
from repro.runtime import ProcessPoolBackend, SerialBackend, run_program


@pytest.fixture(scope="module")
def result():
    return ode_pipeline(
        bruss2d(40),
        MethodConfig("irk", K=4, m=3),
        chic().with_cores(16),
        consecutive(),
    )


@pytest.fixture(scope="module")
def functional_step():
    """One functional IRK step: ``(body graph, live-in store, cost)``."""
    from repro.core import CostModel

    _, _, body, store = ode.functional_step(bruss2d(16), MethodConfig("irk", K=4, m=3))
    return body, store, CostModel(chic().with_cores(16))


class ScaledCost:
    """A cost evaluator whose ``tsymb`` is scaled by a factor."""

    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor

    def tsymb(self, task, q):
        return self.inner.tsymb(task, q) * self.factor


# ----------------------------------------------------------------------
# simulator mode
# ----------------------------------------------------------------------
class TestSimMode:
    def test_every_traced_task_joins(self, result):
        report = result.calibration()
        assert report.mode == "sim"
        assert report.count == len(result.trace.entries)
        names = {r.task for r in report.rows}
        assert names == {e.task.name for e in result.trace.entries}

    def test_rows_carry_layer_and_width(self, result):
        report = result.calibration()
        assert all(r.width >= 1 for r in report.rows)
        assert any(r.layer is not None for r in report.rows)

    def test_groupings_partition_the_rows(self, result):
        report = result.calibration()
        for grouped in (report.by_width(), report.by_layer(),
                        report.by_collectives()):
            assert sum(g["tasks"] for g in grouped.values()) == report.count

    def test_worst_sorted_by_absolute_residual(self, result):
        report = result.calibration()
        worst = report.worst(top=5)
        mags = [abs(r.residual(report.scale)) for r in worst]
        assert mags == sorted(mags, reverse=True)

    def test_to_dict_round_trips_through_json(self, result):
        import json

        payload = json.loads(json.dumps(result.calibration().to_dict()))
        assert payload["mode"] == "sim"
        assert payload["tasks"] > 0
        assert set(payload["residual_quantiles"]) == {"p50", "p90", "p99"}

    def test_report_is_human_readable(self, result):
        text = result.calibration().report()
        assert "signed bias" in text
        assert "worst offenders" in text

    def test_underpriced_model_inflates_bias(self, result):
        honest = result.calibration()
        cheap = result.calibration(
            cost=ScaledCost(result.cost, 0.2)
        )
        assert cheap.bias > honest.bias + 1.0

    def test_no_trace_raises(self, result):
        from repro.obs.calibrate import calibrate_result

        class NoTrace:
            trace = None

        with pytest.raises(ValueError, match="without an execution trace"):
            calibrate_result(NoTrace())


# ----------------------------------------------------------------------
# wall-clock mode (serial and pool backends)
# ----------------------------------------------------------------------
class TestWallMode:
    def run_with(self, backend, functional_step):
        body, store, cost = functional_step
        obs = Instrumentation()
        run = run_program(body, dict(store), backend=backend, obs=obs)
        spans = [s for s in obs.spans
                 if s.name == "task" and "task" in s.meta]
        return calibrate_spans(body, cost, obs), run, spans

    def test_serial_backend_joins_per_task(self, functional_step):
        report, run, spans = self.run_with(SerialBackend(), functional_step)
        assert report.mode == "wall"
        # one residual per recorded task span, covering most of the step
        assert report.count == len(spans)
        assert report.count >= run.stats.tasks_executed * 0.8
        assert report.scale > 0
        assert len(report.residuals) == report.count

    @pytest.mark.skipif(
        not hasattr(__import__("os"), "fork"), reason="needs fork"
    )
    def test_pool_backend_joins_per_task(self, functional_step):
        report, run, spans = self.run_with(
            ProcessPoolBackend(workers=2), functional_step
        )
        assert report.mode == "wall"
        assert report.count == len(spans)
        assert report.count >= run.stats.tasks_executed * 0.8
        assert all(r.actual > 0 for r in report.rows)

    def test_fitted_scale_is_least_squares(self, functional_step):
        body, _, cost = functional_step
        obs = Instrumentation()
        for task in body.topological_order():
            with obs.span("task", task=task.name, q=2):
                pass
        report = calibrate_spans(body, cost, obs)
        num = sum(r.predicted * r.actual for r in report.rows)
        den = sum(r.predicted * r.predicted for r in report.rows)
        assert report.scale == pytest.approx(num / den)

    def test_error_spans_are_excluded(self, functional_step):
        body, _, cost = functional_step
        task = next(iter(body.topological_order()))
        obs = Instrumentation()
        with obs.span("task", task=task.name, q=1, error="boom"):
            pass
        report = calibrate_spans(body, cost, obs)
        assert report.count == 0

    def test_explicit_scale_is_kept(self, functional_step):
        body, _, cost = functional_step
        obs = Instrumentation()
        with obs.span("task", task=next(iter(body.topological_order())).name,
                      q=1):
            pass
        report = calibrate_spans(body, cost, obs, scale=2.5)
        assert report.scale == 2.5


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
class TestGate:
    def test_empty_report_fails(self):
        report = CalibrationReport(mode="sim")
        assert report.gate() == ["no (predicted, actual) pairs joined"]

    def test_unbiased_rows_pass(self):
        rows = [TaskCalibration("t", 1, 1.0, 1.0) for _ in range(3)]
        assert CalibrationReport(mode="sim", rows=rows).gate() == []

    def test_bias_and_mape_violations_reported(self):
        rows = [TaskCalibration("t", 1, 1.0, 3.0)]
        problems = CalibrationReport(mode="sim", rows=rows).gate(
            max_bias=0.25, max_mape=0.35
        )
        assert len(problems) == 2
        assert any("bias" in p for p in problems)
        assert any("MAPE" in p for p in problems)

    def test_mispriced_model_fails_gate_api(self, result):
        """Acceptance: an intentionally under-priced cost model trips
        the gate that the honest model passes."""
        honest = result.calibration()
        assert honest.gate(max_bias=2.0, max_mape=2.0) == []
        cheap = result.calibration(cost=ScaledCost(result.cost, 0.1))
        assert cheap.gate(max_bias=2.0, max_mape=2.0) != []


QUICK = ["--solver", "irk", "--cores", "16", "--quick"]


class TestCalibCli:
    def test_calib_prints_sim_report(self, capsys):
        assert main(["calib", *QUICK]) == 0
        out = capsys.readouterr().out
        assert "cost-model calibration (sim mode)" in out

    def test_honest_model_passes_gate(self, capsys):
        rc = main(["calib", *QUICK, "--gate",
                   "--max-bias", "2", "--max-mape", "2"])
        assert rc == 0
        assert "calibration gate passed" in capsys.readouterr().out

    def test_mispriced_model_fails_gate(self, capsys):
        """Acceptance: ``calib --gate`` exits non-zero when the cost
        model misprices past the threshold: the honest sim-mode bias at
        16 cores reads about +1.1, above ``--max-bias 0.5``."""
        rc = main(["calib", *QUICK, "--gate", "--max-bias", "0.5"])
        assert rc == 1
        assert "CALIBRATION GATE FAILED" in capsys.readouterr().err

    def test_wall_mode_report_from_checkpoint_run(self, tmp_path, capsys):
        rc = main(["calib", *QUICK,
                   "--checkpoint-dir", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cost-model calibration (wall mode)" in out
        assert "fitted scale" in out
