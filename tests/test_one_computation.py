"""One computation per run.

A cold ``/v1/simulate`` and a ``repro.obs export --run-json`` of the same
request analyse their pipeline run once (``obs.metrics.analyze``) and
hash their program once (``obs.registry.program_digest``, in
``compile_request``); ``calib --checkpoint-dir``, whose wall-clock mode
calibrates against the journaled step it ran, builds the solver's
functional program once.
The counts are taken by wrapping the three functions where their callers
look them up.
"""

import pytest

from repro.obs import metrics, registry
from repro.obs.cli import main as obs_main
from repro.ode import integrate
from repro.serve import ScheduleService, api

from .test_serve import call

REQUEST = {"workload": {"solver": "irk", "n": 120}, "topology": {"cores": 64}}


@pytest.fixture
def calls(monkeypatch):
    """Per-function call counts of analyses, digests and functional builds."""
    counts = {"analyze": 0, "program_digest": 0, "functional_build": 0}

    def counting(name, fn, counted=lambda *args, **kwargs: True):
        def wrapper(*args, **kwargs):
            counts[name] += bool(counted(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(metrics, "analyze", counting("analyze", metrics.analyze))
    monkeypatch.setattr(
        registry,
        "program_digest",
        counting("program_digest", registry.program_digest),
    )
    monkeypatch.setattr(
        integrate,
        "build_ode_program",
        counting(
            "functional_build",
            integrate.build_ode_program,
            lambda *args, functional=False, **kwargs: functional,
        ),
    )
    return counts


def test_cold_simulate_analyses_and_digests_once(calls):
    service = ScheduleService(workers=0)
    try:
        response = call(service, "POST", "/v1/simulate", REQUEST)
    finally:
        service.close()
    assert response.status == 200, response.body
    assert response.headers["X-Cache"] == "miss"
    assert calls == {"analyze": 1, "program_digest": 1, "functional_build": 0}


def test_export_run_json_analyses_and_digests_once(calls, tmp_path, capsys):
    assert obs_main(
        ["export", "--solver", "irk", "--quick", "-o", str(tmp_path / "t.json"),
         "--run-json", str(tmp_path / "run.json")]
    ) == 0
    assert calls == {"analyze": 1, "program_digest": 1, "functional_build": 0}


def test_calib_wall_mode_builds_its_program_once(calls, tmp_path, capsys):
    ckpt = str(tmp_path / "ckpt")
    assert obs_main(["calib", "--solver", "irk", "--quick", "--checkpoint-dir", ckpt]) == 0
    assert calls["functional_build"] == 1


def test_derived_numbers_are_computed_once_and_copied(calls):
    request = api.validate_request("simulate", REQUEST)
    result, record = api.run_pipeline(request, api.compile_request(request))
    first_metrics, first_analysis = result.metrics(), result.analysis().to_dict()
    assert record.metrics == first_metrics
    assert record.analysis == first_analysis

    # what a caller gets is its own: changing it changes no later answer
    result.metrics()["makespan"] = -1.0
    mutated = result.analysis()
    mutated.cores.clear()
    mutated.task_seconds.observe(1e9)
    mutated.makespan = -1.0
    assert result.metrics() == first_metrics
    assert result.analysis().to_dict() == first_analysis
    assert calls["analyze"] == 1

