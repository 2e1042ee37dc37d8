"""Tests for core-loss re-planning on the functional IRK step graph, and
for what a functional run does instead when it loses a worker.

The pipeline's reschedule stage (``FaultPlan.core_loss`` ->
``reschedule_on_core_loss``) is the one re-planning path: here it runs
on the scheduled IRK step, before, inside and after its layers, with
growing and exhausting losses.  A cluster run that loses a worker
re-plans nothing: it requeues the work, stays bit-identical to serial
and reports the loss once -- a ``worker_crash`` record, the
``cluster.worker_losses`` counter and the ``backend_workers`` gauge --
and a journaled resume after it stays bit-identical too."""

import pytest

from repro.cluster import chic
from repro.core import CostModel
from repro.faults import CoreLoss, FaultPlan, RetryPolicy
from repro.mapping import consecutive
from repro.obs import Instrumentation
from repro.ode import MethodConfig
from repro.pipeline import SchedulingPipeline
from repro.recovery import RunJournal
from repro.runtime import ClusterBackend, run_program
from repro.scheduling import LayerBasedScheduler
from repro.sim.executor import SimulationOptions

from tests.test_backends import functional_step, summarize
from tests.test_obs import gauges
from tests.test_recovery import truncate_to_task_records


FAULTY = dict(
    faults=FaultPlan(seed=11, failure_rate=0.3),
    retry=RetryPolicy(seed=11),
    on_failure="degrade",
)
CORES = 32


def irk_step():
    """One functional IRK step: ``(body, store)``."""
    return functional_step(MethodConfig("irk", K=4, m=3))


def replan(loss, cores=CORES):
    """Schedule the IRK step with ``loss`` injected: the pipeline result."""
    body, _ = irk_step()
    platform = chic().with_cores(cores)
    res = SchedulingPipeline(
        LayerBasedScheduler(CostModel(platform)),
        strategy=consecutive(),
        options=SimulationOptions(faults=FaultPlan(core_loss=loss)),
    ).run(body)
    assert res.scheduling.layered is not None and res.reschedule is not None
    return res


def per_node(cores=CORES):
    return chic().with_cores(cores).machine.cores_per_node(0)


# ----------------------------------------------------------------------
# a real mid-batch SIGKILL: requeued, reported once, nothing re-planned
# ----------------------------------------------------------------------
class TestHandlerFromBackend:
    def test_worker_kill_triggers_reschedule_mid_run(self):
        body, store = irk_step()
        serial = run_program(body, dict(store), **FAULTY)
        obs = Instrumentation()
        cluster = run_program(
            body, dict(store), obs=obs,
            backend=ClusterBackend(workers=3, chaos_kill=(1, 2)),
            **FAULTY,
        )
        # the surviving run is still bit-identical to serial
        assert summarize(cluster) == summarize(serial)
        [crash] = obs.records_of("worker_crash")
        assert crash["backend"] == "cluster" and crash["worker"] == 1
        assert all(row["attempt"] == 0 for row in crash["in_flight"])
        assert obs.counter("cluster.worker_losses") == 1.0
        assert gauges(obs)["backend_workers{backend=cluster}"].value == 2.0

    def test_rescheduled_group_sizes_cover_the_suffix(self):
        res = replan(CoreLoss(after_layer=1, nodes=1))
        outcome, layered = res.reschedule, res.scheduling.layered
        assert outcome.rescheduled
        widths = {
            task: len(cores)
            for task, cores in outcome.suffix.placement.task_cores.items()
        }
        suffix_tasks = {
            m
            for layer in layered.layers[outcome.cut:]
            for t in layer.tasks
            for m in layered.expand(t)
        }
        assert suffix_tasks and suffix_tasks <= set(widths)
        reduced = outcome.reduced_platform.total_cores
        assert all(1 <= q <= reduced for q in widths.values())


# ----------------------------------------------------------------------
# layer boundaries: before, inside, after; growing losses
# ----------------------------------------------------------------------
class TestBatchBoundaryMapping:
    def test_loss_before_first_batch_reschedules_everything(self):
        outcome = replan(CoreLoss(after_layer=0, nodes=1)).reschedule
        assert outcome.cut == 0
        assert outcome.prefix_makespan == 0.0
        assert outcome.rescheduled
        assert outcome.reduced_platform.total_cores == CORES - per_node()

    def test_loss_inside_a_batch_keeps_the_finished_prefix(self):
        outcome = replan(CoreLoss(after_layer=2, nodes=1)).reschedule
        assert outcome.cut == 2
        assert outcome.prefix_makespan > 0.0
        assert outcome.rescheduled
        assert outcome.reduced_platform.total_cores == CORES - per_node()

    def test_loss_after_the_last_batch_is_a_noop_reschedule(self):
        base = replan(CoreLoss(after_layer=0, nodes=1))
        layers = base.scheduling.layered.num_layers
        res = replan(CoreLoss(after_layer=layers + 5, nodes=1))
        outcome = res.reschedule
        assert outcome.cut == layers
        assert not outcome.rescheduled
        assert outcome.prefix_makespan == res.makespan
        assert outcome.reduced_platform.total_cores == CORES - per_node()

    def test_departures_accumulate(self):
        """Losing a second node re-plans on fewer cores than the first."""
        one, two = (replan(CoreLoss(after_layer=1, nodes=n)).reschedule
                    for n in (1, 2))
        assert [o.loss.nodes for o in (one, two)] == [1, 2]
        assert one.cut == two.cut == 1
        assert one.prefix_makespan == two.prefix_makespan > 0.0
        assert one.rescheduled and two.rescheduled
        assert one.reduced_platform.total_cores == CORES - per_node()
        assert two.reduced_platform.total_cores == CORES - 2 * per_node()


# ----------------------------------------------------------------------
# running out of nodes
# ----------------------------------------------------------------------
class TestNodeExhaustion:
    def test_exhausting_the_nodes_records_an_error(self):
        nodes = chic().with_cores(CORES).machine.num_nodes
        with pytest.raises(ValueError, match="nothing left"):
            replan(CoreLoss(after_layer=1, nodes=nodes))


# ----------------------------------------------------------------------
# journaled resume after a worker loss stays bit-identical
# ----------------------------------------------------------------------
class TestResumeAfterReschedule:
    def test_resume_after_loss_and_reschedule_is_bit_identical(self, tmp_path):
        body, store = irk_step()
        serial = run_program(body, dict(store), **FAULTY)

        obs = Instrumentation()
        journal = RunJournal(tmp_path / "journal.jsonl")
        killed = run_program(
            body, dict(store), journal=journal, obs=obs,
            backend=ClusterBackend(workers=3, chaos_kill=(1, 2)),
            **FAULTY,
        )
        assert summarize(killed) == summarize(serial)
        assert obs.counter("cluster.worker_losses") == 1.0

        # the coordinator process "crashes": the journal is cut to its
        # first five completions, then the run resumes on a smaller
        # cluster
        truncate_to_task_records(tmp_path / "journal.jsonl", keep=5)
        resumed = run_program(
            body, dict(store),
            journal=RunJournal(tmp_path / "journal.jsonl"), resume=True,
            backend=ClusterBackend(workers=2),
            **FAULTY,
        )
        assert summarize(resumed) == summarize(serial)
