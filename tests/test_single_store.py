"""One metrics model: every counter, gauge and histogram value lives in a
labelled ``MetricsRegistry`` -- ``Instrumentation`` is a front for the
run's, ``ScheduleService`` owns the server's -- and nothing an earlier
layer exported changed when the second store went away.

The digests and sample lists below were taken from the commit before
the stores were merged (Python 3.11).
"""

import asyncio
import hashlib
import inspect
import json
import sys

import pytest

from repro.cluster import chic
from repro.experiments.common import ode_pipeline
from repro.mapping import consecutive
from repro.obs import Instrumentation, record_from_result
from repro.obs.cli import main as obs_main
from repro.ode import PAPER_CONFIGS, bruss2d
from repro.serve import ScheduleService

from .test_serve import call


def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


class TestOneStore:
    def test_published_gauge_is_the_registry_child(self):
        obs = Instrumentation()
        obs.publish("g", 1.0, backend="x")
        assert obs.gauges["g{backend=x}"] is obs.registry.gauge("g", backend="x")
        assert 'g{backend="x"} 1.0' in obs.registry.render_prometheus()
        assert obs.to_dict()["gauges"] == {"g{backend=x}": {"value": 1.0}}

    def test_labels_select_children_on_every_method(self):
        obs = Instrumentation()
        obs.count("n")
        obs.count("n", 2, kind="a")
        obs.observe("h", 1.0, kind="a")
        assert obs.counters == {"n": 1, "n{kind=a}": 2}
        assert obs.counter("n", kind="a") == 2 and obs.counter("n", kind="b") == 0
        assert obs.histogram("h", kind="a").count == 1 and obs.histogram("h").count == 0
        # reading an absent metric creates nothing
        assert list(obs.histograms) == ["h{kind=a}"]

    def test_counters_keep_integers_integral(self):
        obs = Instrumentation()
        obs.count("gsearch.probes", 3)
        assert json.dumps(obs.to_dict()["counters"]) == '{"gsearch.probes": 3}'
        assert "gsearch_probes 3.0" in obs.registry.render_prometheus()

    def test_no_wiring_options_and_no_private_store(self):
        assert "registry" not in inspect.signature(Instrumentation.__init__).parameters
        assert "registry" not in inspect.signature(ScheduleService.__init__).parameters
        assert not [k for k, v in vars(Instrumentation()).items() if isinstance(v, dict)]


#: solver -> sha256 of (obs counters/gauges/histograms JSON, RunRecord JSON,
#: cold /v1/schedule body, cold /v1/simulate body); BRUSS2D n=120, CHiC, 64 cores
PINNED = {
    "irk": (
        "5afd3f5e1942516dbdcb98babaecb031eb62b4e528919c43b396129bb63d43e4",
        "bc160b751fa0b5adcce9e4e4a5181d58119a17c330b2388610c4a40e6c7956c0",
        "035f4f20a716c6c00ae01a48d8d36a1837b757acaf1582a168bdec01524ffda3",
        "f5561c01c98dfb9563b697820c6ec4ffeaf437c49c3e8e2fc0c693213798cd82",
    ),
    "diirk": (
        "514ed63121306ab41415cda86c78764540ff46a94250bc64d908ed07bcdbc773",
        "cc6d7ca7a1c4210123f61cc9a19edc16f189e103eab4fa4dceb1427c79bc939f",
        "dc943b3c356c3c854e2376e454d546392e8f50c1c75ea5fa698c1d14d1ca3a45",
        "55d884ff44c9bb90338508c63fa506135c3146055f034c841bcff550cfc2b9eb",
    ),
    "epol": (
        "c1bc61f59fe9d8128ad8be3a3b37a8a3c8ad1f38c40e4f32ecc28bbb1528f51f",
        "b273a92cb4ada0007f3733411bdbb0a84395c208bdfd271f181d8cd12134517c",
        "ce0a0e64a6dcf2d3c1bd08e783c5e4e219d836760eaf1fcfd9ed5f7a1522f0cb",
        "aaeda1e05a1f9d204650f2bb075514c93b970dfdebfde0c5efcfcef4e81fc756",
    ),
    "pab": (
        "fb52f19a24a6b76005e919a55685379eec617c2432a9a13b57637949de3f2169",
        "5a71f04b497aa68c9a15aa052125e47a7c3de30c02d3b3985d7f519532897941",
        "e504e3ae4a13a4318f8b5a08a4a410d848e031ccedd2799701a1481a3377c98d",
        "e70b6ada1dbfed0cf3f1d95124240e050a8b9cbb5262147795953d8b5ab23e9b",
    ),
    "pabm": (
        "0bbbb8b53247c087e9a71d5414b2f5ef065830330155aa3a2179fbd84d46c295",
        "0a5f5d734a3c5412631c5fecbcb16122a2188d13fe55735e3b6a60be58c5257f",
        "64462c29b5ddf0eb11757decbbb03404d9e9c9a75609b2cf36ca7ab5d9380bed",
        "2da430f2ca3882a93ec1721474230d50694949146c0d819d79847f260223f0dc",
    ),
}


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() over floats is compensated from Python 3.12 on, which moves "
    "the last bit of utilisation-style metrics; the digests are 3.11's",
)
@pytest.mark.parametrize("solver", sorted(PINNED))
class TestExportsAreByteIdentical:
    def test_instrumentation_sections_and_run_record(self, solver):
        result = ode_pipeline(
            bruss2d(120), PAPER_CONFIGS[solver], chic().with_cores(64), consecutive()
        )
        exported = result.obs.to_dict()
        sections = {k: exported.get(k) for k in ("counters", "gauges", "histograms")}
        assert sha(json.dumps(sections, sort_keys=True)) == PINNED[solver][0]
        assert sha(record_from_result(result, timestamp=0.0).to_json()) == PINNED[solver][1]

    def test_cold_served_bodies(self, solver):
        service = ScheduleService(workers=0)
        request = {"workload": {"solver": solver, "n": 120}, "topology": {"cores": 64}}
        try:
            bodies = [
                call(service, "POST", f"/v1/{endpoint}", request).body
                for endpoint in ("schedule", "simulate")
            ]
        finally:
            service.close()
        assert [sha(b) for b in bodies] == list(PINNED[solver][2:])


RUN_LABELS = '{backend="sim",cores="64",platform="chic",solver="irk"}'
#: sample names ``prom --solver irk --cores 64 --quick`` prints under RUN_LABELS
PROM_SAMPLES = """
repro_cache_batched_total repro_cache_hit_rate_total repro_cache_hits_total
repro_cache_misses_total repro_contract_chains_total
repro_gsearch_batch_widths_total repro_gsearch_layer_tact_count
repro_gsearch_layer_tact_sum repro_gsearch_probes_total repro_run_busy_fraction
repro_run_cache_batched repro_run_cache_hit_rate repro_run_cache_hits
repro_run_cache_misses repro_run_cache_requests repro_run_critical_path_share
repro_run_evaluation_reduction repro_run_gsearch_probes repro_run_idle_fraction
repro_run_makespan repro_run_max_layer_imbalance repro_run_mean_layer_imbalance
repro_run_predicted_makespan repro_run_redist_wait_fraction
repro_run_simulated_makespan repro_run_task_seconds_p50
repro_run_task_seconds_p90 repro_run_task_seconds_p99 repro_run_tasks
repro_run_utilization repro_sim_passes_total repro_sim_task_seconds_count
repro_sim_task_seconds_sum repro_sim_tasks_total
""".split()
#: ... and the two summaries, once per quantile
PROM_SUMMARIES = ("repro_gsearch_layer_tact", "repro_sim_task_seconds")

#: counter and gauge lines of ``GET /metrics`` after the five requests below
SERVE_LINES = """
serve_cache_hits_total{endpoint="schedule",tenant="alice"} 1.0
serve_cache_hits_total{endpoint="schedule",tenant="bob"} 1.0
serve_cache_misses_total{endpoint="schedule",tenant="alice"} 1.0
serve_coalesced_total{endpoint="schedule",tenant="alice"} 1.0
serve_rejected_total{reason="backpressure",tenant="alice"} 1.0
serve_requests_total{endpoint="schedule",status="200",tenant="alice"} 2.0
serve_requests_total{endpoint="schedule",status="200",tenant="bob"} 1.0
serve_requests_total{endpoint="schedule",status="400",tenant="anonymous"} 1.0
serve_requests_total{endpoint="schedule",status="429",tenant="alice"} 1.0
serve_scheduled_tasks_total{tenant="alice"} 31.0
serve_cache_entries 1.0
serve_queue_depth 0.0
""".strip().splitlines()
SERVE_FAMILIES = {
    "serve_requests_total": "counter",
    "serve_rejected_total": "counter",
    "serve_queue_depth": "gauge",
    "serve_cache_entries": "gauge",
    "serve_cache_hits_total": "counter",
    "serve_cache_misses_total": "counter",
    "serve_coalesced_total": "counter",
    "serve_request_seconds": "summary",
    "serve_solver_seconds": "summary",
    "serve_scheduled_tasks_total": "counter",
}


def families(text):
    """``{family: kind}`` of an exposition; a family declared twice fails."""
    declared = [line.split()[2:] for line in text.splitlines() if line.startswith("# TYPE")]
    assert len(declared) == len({name for name, _ in declared})
    return dict(declared)


class TestExpositionsKeepTheirNames:
    def test_prom_subcommand_samples(self, capsys):
        assert obs_main(["prom", "--solver", "irk", "--cores", "64", "--quick"]) == 0
        text = capsys.readouterr().out
        families(text)
        samples = sorted(
            line.rsplit(" ", 1)[0] for line in text.splitlines() if not line.startswith("#")
        )
        expected = [name + RUN_LABELS for name in PROM_SAMPLES] + [
            f'{name}{RUN_LABELS[:-1]},quantile="{q}"}}'
            for name in PROM_SUMMARIES
            for q in ("0.5", "0.9", "0.99")
        ]
        assert samples == sorted(expected)

    def test_serve_metrics_after_a_fixed_script(self):
        async def script(service):
            request = {"workload": {"solver": "irk", "n": 24}, "tenant": "alice"}

            def post(payload):
                return service.handle(
                    "POST", "/v1/schedule", json.dumps(payload).encode(), {}
                )

            service.max_queue = 0  # 429, but the digests are memoised ...
            rejected = await post(request)
            service.max_queue = 16  # ... so these two reach the cache in order
            miss, coalesced = await asyncio.gather(post(request), post(request))
            hit = await post(dict(request, tenant="bob"))
            invalid = await post({"workload": {"solver": "zz"}})
            metrics = await service.handle("GET", "/metrics", b"", {})
            return [rejected, miss, coalesced, hit, invalid], metrics.body.decode()

        service = ScheduleService(workers=0)
        try:
            responses, text = asyncio.run(script(service))
        finally:
            service.close()
        assert [r.status for r in responses] == [429, 200, 200, 200, 400]
        assert [r.headers.get("X-Cache") for r in responses[1:4]] == ["miss", "coalesced", "hit"]
        assert families(text) == SERVE_FAMILIES
        timed = ("serve_request_seconds", "serve_solver_seconds")
        lines = [
            line for line in text.splitlines() if not line.startswith(("#",) + timed)
        ]
        assert lines == SERVE_LINES
