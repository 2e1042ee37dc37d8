"""One front door for a paper solver step, one table of schedulers.

A named solver ``(irk|diirk|epol|pab|pabm, n)`` reaches the scheduler,
the simulator and the functional runtime through one solver table
(``repro.ode.PAPER_CONFIGS``), one modelled path
(``experiments.common.ode_pipeline``, whose ``paper_scheduler`` adds the
paper's group count to the ``tp`` / ``dp`` entries of the scheduler
table) and one functional prologue (``repro.ode.functional_step``);
fault options live only in ``SimulationOptions``.  Every scheduler name
-- served, raced in the shoot-out or drawn in Fig. 13 -- is a key of the
one table ``repro.scheduling.SCHEDULERS``, and each front door accepts
its own subset of it.  These tests pin that the consumers agree.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import chic
from repro.core import CostModel
from repro.experiments.common import ode_pipeline, paper_scheduler
from repro.experiments.fig13_scheduling import LEGEND, make_scheduler
from repro.experiments.recovery_run import run_checkpointed_step
from repro.experiments.shootout import ZOO, run_shootout
from repro.faults import CoreLoss, FaultPlan
from repro.mapping import consecutive, scattered
from repro.obs.cli import main as obs_main
from repro.ode import PAPER_CONFIGS, bruss2d, functional_step
from repro.pipeline import SchedulingPipeline
from repro.recovery import array_digest, json_digest
from repro.runtime import run_program
from repro.runtime.backends import parse_backend_spec
from repro.scheduling import SCHEDULERS, LayerBasedScheduler
from repro.serve import SOLVER_CFGS, ScheduleService, api
from repro.sim.executor import SimulationOptions

from .test_faults import diamond_mgraph
from .test_serve import call, decoded

N, CORES = 24, 32


class TestModelledPath:
    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    @pytest.mark.parametrize(
        "mapping,version", [("consecutive", "tp"), ("scattered", "dp")]
    )
    def test_serve_experiments_and_obs_agree(
        self, solver, mapping, version, tmp_path, capsys
    ):
        request = api.validate_request(
            "simulate",
            {
                "workload": {"solver": solver, "n": N},
                "topology": {"cores": CORES},
                "options": {"mapping": mapping, "version": version},
            },
        )
        served = api.compute_response(request)["body"]

        strategy = consecutive() if mapping == "consecutive" else scattered()
        direct = ode_pipeline(
            bruss2d(N),
            PAPER_CONFIGS[solver],
            chic().with_cores(CORES),
            strategy,
            version=version,
        )

        run_json = tmp_path / "run.json"
        args = ["--solver", solver, "--n", str(N), "--cores", str(CORES)]
        args += ["--mapping", mapping, "--version", version]
        assert obs_main(["report", *args]) == 0
        report = capsys.readouterr().out
        assert obs_main(
            ["export", *args, "-o", str(tmp_path / "t.json"), "--run-json", str(run_json)]
        ) == 0
        exported = json.loads(run_json.read_text())["metrics"]

        for name, value in (
            ("makespan", direct.makespan),
            ("predicted_makespan", direct.predicted_makespan),
        ):
            assert served[name] == value
            assert exported[name] == value
        assert f"simulated makespan: {direct.makespan:.6g} s" in report

    def test_serve_reads_the_ode_table(self):
        assert SOLVER_CFGS is PAPER_CONFIGS

    @pytest.mark.parametrize(
        "payload",
        [
            {"workload": {"solver": "irk", "n": N}, "topology": {"cores": CORES}},
            {
                "program": {
                    "dsl": "task a(x : vector : out : replic);\n"
                    "cmmain M(x : vector : out : replic) { seq { a(x); } }",
                    "sizes": {"vector": 8},
                },
                "topology": {"cores": 8},
            },
        ],
        ids=["workload", "dsl"],
    )
    def test_graph_built_once_per_compute_response(self, payload, monkeypatch):
        calls = []
        build = api._program_graph

        def counting(request):
            calls.append(request["endpoint"])
            return build(request)

        monkeypatch.setattr(api, "_program_graph", counting)
        request = api.validate_request("schedule", payload)
        envelope = api.compute_response(request)
        assert calls == ["schedule"]
        digests = api.request_digests(request)
        assert envelope["body"]["digests"] == digests
        assert envelope["body"]["key"] == api.cache_key("schedule", digests)


#: json_digest of ``{variable: array_digest}`` after one functional step
#: on BRUSS2D N=24, as the commit before ``functional_step`` produced it
#: through ``/v1/run`` and through ``run_checkpointed_step`` (both equal)
STEP_DIGESTS = {
    "irk": "9c70dded33906c06a1efbe5dc279c1d12dc411e08fa6284e37447514dcd0975a",
    "pabm": "4705c8fed2352329a276a99e939213b3ff2f33769f96046de72d0a070eedff12",
}
#: the same digest of the step's live-in store (that commit's inline prologue)
STORE_DIGESTS = {
    "irk": "0a9fcf9501308849807bc8e6d657c39f1b3b82f45149878ef79c47f28be146ca",
    "pabm": "f922740c891f3b9f45573455fb0bfe5dd694d578a02a8cbad65d26b09e04ecea",
}


def variables_digest(variables):
    return json_digest({k: array_digest(v) for k, v in sorted(variables.items())})


class TestFunctionalPrologue:
    @pytest.mark.parametrize("solver", sorted(STEP_DIGESTS))
    def test_store_and_step_match_pinned_digests(self, solver, tmp_path):
        cfg = PAPER_CONFIGS[solver]
        build, loop, body, store = functional_step(bruss2d(N), cfg)
        assert build.body_of(loop) is body
        assert variables_digest(store) == STORE_DIGESTS[solver]
        assert variables_digest(run_program(body, store).variables) == STEP_DIGESTS[solver]

        request = api.validate_request("run", {"workload": {"solver": solver, "n": N}})
        served = api.compute_response(request)["body"]["variables"]
        assert json_digest(served) == STEP_DIGESTS[solver]

        run, _ = run_checkpointed_step(bruss2d(N), cfg, tmp_path)
        assert variables_digest(run.variables) == STEP_DIGESTS[solver]

    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    def test_every_paper_solver_steps_functionally(self, solver):
        """DIIRK's bodies used a 3-stage tableau under a program declaring
        ``K = 4``, so ``init_mu`` never produced ``MUNEW[4]``."""
        _, _, body, store = functional_step(bruss2d(N), PAPER_CONFIGS[solver])
        run = run_program(body, store)
        assert not run.failures
        assert all(np.isfinite(a).all() for a in run.variables.values())

    def test_diirk_step_is_served_and_backend_independent(self):
        service = ScheduleService(workers=0)
        try:
            served = call(
                service, "POST", "/v1/run", {"workload": {"solver": "diirk", "n": N}}
            )
        finally:
            service.close()
        assert served.status == 200, served.body
        _, _, body, store = functional_step(bruss2d(N), PAPER_CONFIGS["diirk"])
        serial = run_program(body, dict(store))
        pool = run_program(body, dict(store), backend=parse_backend_spec("pool:2"))
        assert decoded(served)["variables"] == {
            k: array_digest(v) for k, v in sorted(serial.variables.items())
        }
        assert variables_digest(pool.variables) == variables_digest(serial.variables)

    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    def test_init_graph_moves_no_data(self, solver):
        """``integrate_functional`` starts its communication counts at the
        first step because the init graph has none to add."""
        build, _, _, store = functional_step(bruss2d(8), PAPER_CONFIGS[solver])
        stats = run_program(build.graph, store).stats
        assert stats.collective_counts() == {}
        assert stats.redistributed_bytes == 0


class TestFaultOptionsLiveInSimulationOptions:
    def test_pipeline_has_no_fault_fields(self):
        names = {f.name for f in dataclasses.fields(SchedulingPipeline)}
        assert not names & {"faults", "retry", "speculation"}
        assert names == {"scheduler", "strategy", "options", "simulate"}

    def test_core_loss_through_options_reschedules(self):
        platform = chic().with_cores(32)
        plan = FaultPlan(
            seed=3, failure_rate=0.3, core_loss=CoreLoss(after_layer=1, nodes=2)
        )
        result = SchedulingPipeline(
            LayerBasedScheduler(CostModel(platform)),
            strategy=consecutive(),
            options=SimulationOptions(faults=plan),
        ).run(diamond_mgraph())
        assert [s.name for s in result.obs.spans].count("reschedule") == 1
        assert result.reschedule.rescheduled
        assert result.meta["faults"] == plan.to_dict()
        # exact value of the commit that still had SchedulingPipeline.faults
        assert result.reschedule.degraded_makespan.hex() == "0x1.796f96f96f970p-3"


class TestOneSchedulerTable:
    def test_front_doors_name_table_keys(self):
        assert set(ZOO) <= set(SCHEDULERS)
        assert set(LEGEND.values()) <= set(SCHEDULERS)
        assert set(api.PROGRAM_SCHEDULERS) - {"paper"} <= set(SCHEDULERS)

    def test_front_doors_reject_names_outside_their_subset(self):
        cost = CostModel(chic().with_cores(CORES))
        with pytest.raises(ValueError, match="version"):
            paper_scheduler(PAPER_CONFIGS["irk"], cost, version="amtha")
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("nope", cost, PAPER_CONFIGS["irk"])
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_shootout(schedulers=["cpr"], suite={})
