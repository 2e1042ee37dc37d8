"""Bit-identity of the scheduler against golden paper-workload schedules.

``tests/data/golden_schedules.json`` (written by
``scripts/capture_golden_schedules.py``) records, for every paper solver
at two core counts and three scheduler variants, the exact decisions of
the layer-based scheduler: per-layer group membership in order, group
sizes, and the predicted makespan as a ``float.hex()`` string.

This suite asserts the current code reproduces every run *bit-for-bit*.
It is the safety net for the decide/cost split: batching the cost
evaluation, the heap-based LPT, the deque-based group adjustment and the
bulk graph construction are all pure optimisations and must not move a
single task between groups or change one bit of the predicted makespan.
Regenerate the golden file only when the algorithm's decisions change
on purpose.

The ``<solver>/256/fixed`` runs are also pinned as whole pipeline runs
(mapping and simulation included): probe and cost-cache counts, the
simulated makespan and the schedule analytics, taken before the commit
that retired the single-shot pipeline benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cluster import chic
from repro.core import CostModel
from repro.experiments.common import paper_group_count
from repro.mapping import consecutive
from repro.ode import MethodConfig, bruss2d, step_graph
from repro.pipeline import SchedulingPipeline
from repro.scheduling import LayerBasedScheduler, fixed_group_scheduler

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_schedules.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SOLVERS = {
    "irk": MethodConfig("irk", K=4, m=7),
    "diirk": MethodConfig("diirk", K=4, m=3, I=2),
    "epol": MethodConfig("epol", K=8),
    "pab": MethodConfig("pab", K=8),
    "pabm": MethodConfig("pabm", K=8, m=2),
}


def test_golden_file_schema():
    assert GOLDEN["schema"] == "repro.golden_schedules/1"
    assert len(GOLDEN["runs"]) == 30


@pytest.fixture(scope="module")
def graphs():
    """Build each solver's step graph once for all 6 runs that use it."""
    n = GOLDEN["n"]
    return {name: step_graph(bruss2d(n), cfg) for name, cfg in SOLVERS.items()}


def _scheduler(variant: str, method: str, cores: int):
    plat = chic().with_cores(cores)
    if variant == "gsearch":
        return LayerBasedScheduler(CostModel(plat))
    if variant == "fixed":
        return fixed_group_scheduler(CostModel(plat), paper_group_count(SOLVERS[method]))
    if variant == "noadjust":
        return LayerBasedScheduler(CostModel(plat), adjust=False)
    raise AssertionError(variant)


@pytest.mark.parametrize("key", sorted(GOLDEN["runs"]))
def test_schedule_is_bit_identical(key, graphs):
    method, cores, variant = key.split("/")
    ref = GOLDEN["runs"][key]
    scheduler = _scheduler(variant, method, int(cores))
    result = scheduler.schedule(graphs[method])

    layers = [
        {
            "groups": [[t.name for t in grp] for grp in layer.groups],
            "group_sizes": list(layer.group_sizes),
        }
        for layer in result.layered.layers
    ]
    assert layers == ref["layers"], f"{key}: group decisions diverged from golden"

    makespan = result.predicted_makespan(scheduler.cost)
    assert float(makespan).hex() == ref["predicted_makespan_hex"], (
        f"{key}: makespan {makespan!r} is not bit-identical to golden "
        f"{ref['predicted_makespan']!r}"
    )


#: solver -> (tasks, g-search probes, cost-cache requests, hit rate,
#: evaluation reduction, batch-priced Tsymb cells, simulated makespan) of
#: a whole pipeline run of the ``<solver>/256/fixed`` golden schedule with
#: the consecutive mapping
PIPELINE = {
    "diirk": (15, 3, 53, 0.39622641509433965, 1.65625, 22, "0x1.c7a713abd01adp-4"),
    "epol": (39, 3, 137, 0.5109489051094891, 2.044776119402985, 42, "0x1.213f64a1c8fccp-4"),
    "irk": (31, 3, 101, 0.5247524752475248, 2.1041666666666665, 22, "0x1.7320c5ad84728p-5"),
    "pab": (11, 3, 53, 0.32075471698113206, 1.4722222222222223, 98, "0x1.1e84ff1e4e41bp-6"),
    "pabm": (11, 3, 53, 0.32075471698113206, 1.4722222222222223, 98, "0x1.b40e9ce96035ap-6"),
}
#: (busy, redistribution-wait, critical-path share, max layer imbalance)
#: of the same runs
ANALYSIS = {
    "diirk": ("0x1.000000000000fp+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "epol": ("0x1.fdf266a4a50dcp-1", "0x1.06ccadad77d03p-8", "0x1.dd5f2bed899c8p-1",
             "0x1.0000000000000p+0"),
    "irk": ("0x1.fffffffffffe0p-1", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "pab": ("0x1.fffffffffffdcp-1", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    "pabm": ("0x1.fffffffffffdep-1", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
}


@pytest.fixture(scope="module")
def pipeline_runs(graphs):
    return {
        method: SchedulingPipeline(
            _scheduler("fixed", method, 256), strategy=consecutive()
        ).run(graphs[method])
        for method in SOLVERS
    }


@pytest.mark.parametrize("method", sorted(PIPELINE))
def test_pipeline_run_is_pinned(method, pipeline_runs):
    result = pipeline_runs[method]
    metrics = result.metrics()
    assert (
        metrics["tasks"],
        metrics["gsearch_probes"],
        metrics["cache_requests"],
        metrics["cache_hit_rate"],
        metrics["evaluation_reduction"],
        result.cache.total_batched,
        metrics["simulated_makespan"].hex(),
    ) == PIPELINE[method]
    golden = GOLDEN["runs"][f"{method}/256/fixed"]["predicted_makespan_hex"]
    assert metrics["predicted_makespan"].hex() == golden


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() over floats is compensated from Python 3.12 on, which moves "
    "the last bit of utilisation-style metrics; the pins are 3.11's",
)
@pytest.mark.parametrize("method", sorted(ANALYSIS))
def test_pipeline_analysis_is_pinned(method, pipeline_runs):
    metrics = pipeline_runs[method].metrics()
    assert tuple(
        metrics[name].hex()
        for name in ("busy_fraction", "redist_wait_fraction", "critical_path_share",
                     "max_layer_imbalance")
    ) == ANALYSIS[method]
