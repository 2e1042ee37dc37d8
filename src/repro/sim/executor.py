"""Simulated execution of a mapped M-task program.

Given the task graph, a :class:`~repro.core.schedule.Placement` (the
output of scheduling + mapping) and a cost model, the executor plays the
program through the event kernel:

* a task becomes *data-ready* when every predecessor has finished and the
  re-distribution of the connecting data flows (costed on the actual
  physical core sets and distributions) has arrived;
* it starts when additionally all of its physical cores are free, in
  placement-priority order;
* its duration is ``Tcomp/q`` plus the mapped communication time of its
  internal collectives, where NIC contention is taken from the set of
  tasks actually overlapping in time.

Because contention depends on overlap and overlap depends on durations,
the executor runs a small fixed-point iteration: pass 1 assumes no
cross-task contention, every further pass rebuilds each task's contention
context from the previous pass's overlap intervals.  Two passes suffice
in practice (the layer structure changes little between passes); the
iteration count is configurable for the contention ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as replace_entry
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.architecture import CoreId, Machine
from ..comm.contention import ContentionContext, node_counts
from ..core.costmodel import CostModel
from ..core.graph import TaskGraph
from ..core.schedule import Placement
from ..core.task import MTask
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs import Instrumentation
from ..recovery.speculation import SpeculationPolicy
from .engine import CoreResource, Simulator
from .trace import ExecutionTrace, TraceEntry

__all__ = ["simulate", "SimulationOptions"]


@dataclass(frozen=True)
class SimulationOptions:
    """Tuning knobs of the simulated execution."""

    #: fixed-point passes for cross-task NIC contention; 1 disables
    #: cross-task contention entirely (ablation).
    contention_passes: int = 2
    #: include re-distribution delays on graph edges.
    redistribution: bool = True
    #: deterministic fault injection (``None`` or a disabled plan leaves
    #: the simulation bit-identical to the historical behaviour).  The
    #: simulator charges injected slowdowns as scaled compute time and
    #: failed attempts as :class:`~repro.sim.trace.TraceEntry.fault_overhead`
    #: preceding the successful attempt; a plan's ``core_loss`` is handled
    #: one level up, by the pipeline's reschedule stage.
    faults: Optional[FaultPlan] = None
    #: retry policy costing the injected failures (attempt duration,
    #: capped at the per-attempt timeout, plus seeded backoff).  Defaults
    #: to ``RetryPolicy()`` whenever a fault plan is active.  A task whose
    #: injected failure count exceeds ``max_retries`` is charged its
    #: retried attempts only -- give-up semantics live in the runtime.
    retry: Optional[RetryPolicy] = None
    #: speculative straggler mitigation: a dispatched task whose charged
    #: duration exceeds the policy's threshold (factor x the clean
    #: cost-model estimate, or factor x a quantile of durations already
    #: dispatched) launches a backup attempt on idle cores at the
    #: threshold; the first finisher wins and the loser is cancelled.
    #: ``None`` or a disabled policy leaves the simulation bit-identical.
    speculation: Optional[SpeculationPolicy] = None


def _phase_counts(
    machine: Machine, task: MTask, cores: Sequence[CoreId]
) -> Tuple[np.ndarray, np.ndarray]:
    """Inter-node messages per node (out, in) of a task's representative
    communication round, a ring over its cores (for contention)."""
    if len(cores) < 2 or not task.comm:
        idle = np.zeros(machine.num_nodes, dtype=np.intp)
        return idle, idle
    ring = machine.core_index(cores)
    return node_counts(machine, ring, np.roll(ring, -1))


def _overlaps(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    return a[0] < b[1] - 1e-15 and b[0] < a[1] - 1e-15


def simulate(
    graph: TaskGraph,
    placement: Placement,
    cost: CostModel,
    options: SimulationOptions = SimulationOptions(),
    obs: Optional[Instrumentation] = None,
) -> ExecutionTrace:
    """Simulate one execution of ``graph`` under ``placement``.

    ``obs`` (optional) collects per-pass spans and counters: number of
    contention passes, tasks simulated and the final makespan.
    """
    machine = cost.platform.machine
    placement.validate(graph)
    if options.contention_passes < 1:
        raise ValueError("contention_passes must be >= 1")
    obs = obs if obs is not None else Instrumentation()

    intervals: Dict[MTask, Tuple[float, float]] = {}
    trace = ExecutionTrace(machine)
    with obs.span("simulate", tasks=len(graph)):
        for pass_no in range(options.contention_passes):
            last_pass = pass_no == options.contention_passes - 1
            ctxs: Dict[MTask, Optional[ContentionContext]] = {}
            peers: Dict[MTask, List[Tuple[CoreId, ...]]] = {}
            if pass_no == 0:
                for t in graph:
                    ctxs[t] = None  # own edges only
                    peers[t] = []
            else:
                # a task's context is the sum of the rounds of its
                # concurrent set; each round is counted once per pass
                phase = {
                    t: _phase_counts(machine, t, placement.cores_of(t)) for t in graph
                }
                for t in graph:
                    mine = intervals[t]
                    concurrent = [
                        o for o in graph if o is t or _overlaps(intervals[o], mine)
                    ]
                    ctxs[t] = ContentionContext.from_counts(
                        sum(phase[o][0] for o in concurrent),
                        sum(phase[o][1] for o in concurrent),
                    )
                    peers[t] = [tuple(placement.cores_of(o)) for o in concurrent]
            with obs.span("contention_pass", index=pass_no):
                trace = _run_once(
                    graph, placement, cost, ctxs, peers, options, last_pass
                )
            obs.count("sim.passes")
            intervals = {e.task: (e.start, e.finish) for e in trace.entries}
    obs.count("sim.tasks", len(trace))
    for e in trace.entries:
        obs.observe("sim.task_seconds", e.duration)
        if e.redist_wait > 0:
            obs.observe("sim.redist_wait_seconds", e.redist_wait)
        if e.retries > 0:
            obs.observe("task_retries", e.retries)
            obs.count("faults.retries", e.retries)
        if e.fault_overhead > 0:
            obs.observe("sim.fault_overhead_seconds", e.fault_overhead)
        if e.speculation == "win":
            obs.count("speculation.wins")
            obs.observe("speculation.saved_seconds", e.speculation_saved)
        elif e.speculation == "loss":
            obs.count("speculation.losses")
    obs.record("simulate", tasks=len(trace), makespan=trace.makespan)
    return trace


def _run_once(
    graph: TaskGraph,
    placement: Placement,
    cost: CostModel,
    ctxs: Dict[MTask, Optional[ContentionContext]],
    peers: Dict[MTask, List[Tuple[CoreId, ...]]],
    options: SimulationOptions,
    record: bool,
) -> ExecutionTrace:
    machine = cost.platform.machine
    sim = Simulator()
    cores: Dict[CoreId, CoreResource] = {c: CoreResource() for c in machine.cores()}
    trace = ExecutionTrace(machine)
    plan = options.faults if options.faults is not None and options.faults.enabled else None
    policy = options.retry
    if plan is not None and policy is None:
        policy = RetryPolicy()
    spec = (
        options.speculation
        if options.speculation is not None and options.speculation.enabled
        else None
    )
    #: effective durations already dispatched (speculation quantile base)
    done_durations: List[float] = []
    # program version: task parallel iff any task leaves cores to others
    is_tp = any(
        len(placement.cores_of(t)) < machine.total_cores for t in graph
    )

    remaining_preds: Dict[MTask, int] = {
        t: len(graph.predecessors(t)) for t in graph
    }
    data_ready: Dict[MTask, float] = {t: 0.0 for t in graph}
    redist_charged: Dict[MTask, float] = {t: 0.0 for t in graph}
    #: tasks whose dependencies are satisfied, pending core dispatch
    ready_pool: List[MTask] = []

    def try_dispatch() -> None:
        # Dispatch every ready task immediately, booking its cores at the
        # earliest feasible (possibly future) start time.  Costs are
        # deterministic, so eager future-booking is equivalent to waiting
        # for the virtual clock and keeps the event count linear in the
        # task count.  Placement priority orders simultaneous arrivals,
        # mirroring the scheduler's intra-group serialisation.
        ready_pool.sort(key=lambda t: (placement.priority.get(t, 0.0), t.name))
        while ready_pool:
            t = ready_pool.pop(0)
            tcores = placement.cores_of(t)
            start = max(data_ready[t], sim.now)
            for c in tcores:
                start = cores[c].earliest_start(start)
            comp = cost.tcomp_mapped(t, tcores)
            comm = cost.tcomm_mapped(
                t,
                tcores,
                ctxs[t],
                peers.get(t),
                all_cores=placement.all_cores,
                task_parallel_program=is_tp,
            )
            comp_clean = comp
            retries = 0
            overhead = 0.0
            if plan is not None:
                slow = plan.slowdown(t.name)
                if slow != 1.0:
                    comp *= slow
                retries = min(plan.failures_of(t.name), policy.max_retries)
                for a in range(retries):
                    attempt = comp + comm
                    if policy.timeout is not None:
                        attempt = min(attempt, policy.timeout)
                    overhead += attempt + policy.delay(t.name, a)
            dur = comp + comm + overhead
            for c in tcores:
                cores[c].book(start, dur)
            finish = start + dur
            trace.add(
                TraceEntry(
                    task=t,
                    start=start,
                    finish=finish,
                    cores=tuple(tcores),
                    comp_time=comp,
                    comm_time=comm,
                    redist_wait=redist_charged[t],
                    retries=retries,
                    fault_overhead=overhead,
                )
            )
            # --- speculative backup for suspected stragglers -------------
            # The race is decided when the virtual clock actually reaches
            # the straggler threshold: by then every competing task that
            # became ready earlier has booked its cores, so the backup can
            # only grab cores that are genuinely idle -- not cores a
            # sibling is about to run on.  Costs are deterministic, so the
            # whole race then resolves in one event: the first finisher
            # wins, the loser is cancelled at the winner's finish.
            threshold = (
                spec.threshold(estimate=comp_clean + comm, completed=done_durations)
                if spec is not None
                else None
            )
            if threshold is not None and dur > threshold:
                sim.at(
                    start + threshold,
                    lambda t=t, tcores=tcores, start=start, cc=comp_clean,
                    comm=comm, pf=finish: try_backup(t, tcores, start, cc, comm, pf),
                )
            else:
                if spec is not None:
                    done_durations.append(dur)
                sim.at(finish, lambda t=t: complete(t))

    def try_backup(
        t: MTask,
        tcores: Sequence[CoreId],
        start: float,
        comp_clean: float,
        comm: float,
        primary_finish: float,
    ) -> None:
        bstart = sim.now
        taken = set(tcores)
        idle = [
            c
            for c in machine.cores()
            if c not in taken and cores[c].free_from <= bstart + 1e-12
        ]
        if len(idle) < len(tcores):
            # no room for a backup; the straggler just runs to the end
            done_durations.append(primary_finish - start)
            sim.at(primary_finish, lambda: complete(t))
            return
        backup_cores = tuple(idle[: len(tcores)])
        backup_slow = plan.slowdown(t.name, 1) if plan is not None else 1.0
        backup_finish = bstart + comp_clean * backup_slow + comm
        if backup_finish < primary_finish:
            kind = "win"
            finish = backup_finish
            # reclaim the cancelled primary's tail on every core where its
            # booking is still the last one
            for c in tcores:
                if cores[c].free_from == primary_finish:
                    cores[c].busy_time -= primary_finish - finish
                    cores[c].free_from = finish
        else:
            kind = "loss"
            finish = primary_finish
        for c in backup_cores:
            cores[c].book(bstart, finish - bstart)
        trace.replace(
            replace_entry(
                trace[t],
                finish=finish,
                speculation=kind,
                backup_cores=backup_cores,
                backup_start=bstart,
                primary_finish=primary_finish,
            )
        )
        done_durations.append(finish - start)
        sim.at(finish, lambda: complete(t))

    def complete(t: MTask) -> None:
        t_finish = sim.now
        for s in graph.successors(t):
            arrival = t_finish
            if options.redistribution:
                flows = graph.flows(t, s)
                rd = cost.redistribution_time(
                    flows, placement.cores_of(t), placement.cores_of(s)
                )
                arrival += rd
                redist_charged[s] = max(redist_charged[s], rd)
            data_ready[s] = max(data_ready[s], arrival)
            remaining_preds[s] -= 1
            if remaining_preds[s] == 0:
                sim.at(arrival, lambda s=s: (ready_pool.append(s), try_dispatch()))

    for t in graph:
        if remaining_preds[t] == 0:
            ready_pool.append(t)
    sim.at(0.0, try_dispatch)
    sim.run()

    missing = [t.name for t in graph if t not in trace]
    if missing:
        raise AssertionError(f"simulation deadlock; unexecuted tasks: {missing}")
    return trace
