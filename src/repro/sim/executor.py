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
cross-task contention, every further pass rebuilds each task's NIC load
from the previous pass's overlap intervals.  Two passes suffice
in practice (the layer structure changes little between passes); the
iteration count is configurable for the contention ablation.

One :func:`simulate` call works out what its communication reads of the
mapping once, in a price plan that lives as long as the call:

* every distinct core tuple gets a group id and one dense index array
  (:meth:`Machine.core_index <repro.cluster.architecture.Machine.core_index>`),
  kept with the collectives' round tables in a
  :class:`~repro.comm.patterns.CommPlan`;
* every distinct ``(flows, source group, target group)`` edge is priced
  once, before the first pass, and both passes read the price
  (:func:`_successors`);
* every ``(op, core tuple)`` and ``(op, orthogonal peer set)`` collective
  gets its load-independent round table the first time a price needs it
  (:class:`~repro.comm.collectives.CollectiveRounds`), so a later price
  only reads the NIC load;
* each distinct communication request is priced once: a memo shared by
  all passes, keyed on what ``tcomm_mapped`` reads -- the task's
  ``comm`` and ``sync_points``, its core tuple, the contention counts as
  bytes and the ordered distinct core tuples of its concurrent groups
  (the program version and ``all_cores`` are fixed for the call) -- so
  the tasks of a stage chain share a price and a pass whose concurrent
  sets did not change evaluates nothing.

Core occupancy is one ``free_from`` array over the same dense indices, so
a dispatch is one gather and one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as replace_entry
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.architecture import CoreId, Machine
from ..comm.contention import NicLoad, node_counts
from ..comm.patterns import CommPlan
from ..core.costmodel import CachedCostEvaluator, CostModel
from ..core.graph import TaskGraph
from ..core.schedule import Placement
from ..core.task import MTask
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs import Instrumentation
from ..recovery.speculation import SpeculationPolicy
from .engine import Simulator
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
) -> NicLoad:
    """Inter-node messages per node (out, in) of a task's representative
    communication round, a ring over its cores (for contention)."""
    if len(cores) < 2 or not task.comm:
        idle = np.zeros(machine.num_nodes, dtype=np.intp)
        return idle, idle
    ring = machine.core_index(cores)
    return node_counts(machine, ring, np.concatenate((ring[1:], ring[:1])))


class _Occupancy:
    """When each core of the machine is next free: one float array indexed
    by :meth:`Machine.core_index`.  A core is a serially reusable
    resource: bookings arrive in non-decreasing time order, so one
    free-from time per core suffices, and a start before it is refused.
    A task's cores are an index array, so asking for and booking them is
    one gather and one scatter instead of a Python call per core."""

    def __init__(self, machine: Machine) -> None:
        self.free_from = np.zeros(machine.total_cores)

    def earliest_start(self, idx: np.ndarray, not_before: float) -> float:
        """Earliest time all cores ``idx`` are free at or after ``not_before``."""
        return max(not_before, float(self.free_from[idx].max()))

    def book(self, idx: np.ndarray, start: float, duration: float) -> float:
        """Occupy the cores ``idx`` for ``[start, start + duration)``."""
        busy_until = float(self.free_from[idx].max())
        if start < busy_until - 1e-12:
            raise ValueError(f"core booked at {start} while busy until {busy_until}")
        end = start + duration
        self.free_from[idx] = end
        return end


class _Layout:
    """Where the tasks run -- everything about a placement the passes of
    one :func:`simulate` call share: each task's group in the call's
    :class:`~repro.comm.patterns.CommPlan`, which holds every distinct core
    tuple with its dense core indices and the collectives' round tables."""

    def __init__(self, cost: CostModel, graph: TaskGraph, placement: Placement) -> None:
        machine = cost.platform.machine
        self.tasks: List[MTask] = list(graph)
        self.plan = CommPlan(machine, cost.platform.network)
        #: distinct core tuples and their dense core indices, by group id
        self.tuples = self.plan.tuples
        self.index = self.plan.index
        # tasks of one group share their tuple object (``Placement.validate``
        # relies on it too), so the plan knows most of them without hashing
        # their cores; placements given as lists become tuples
        #: group id of every task
        self.group: Dict[MTask, int] = {
            t: self.plan.group(placement.cores_of(t)) for t in self.tasks
        }
        #: dispatch order of simultaneously ready tasks
        self.rank: Dict[MTask, Tuple[float, str]] = {
            t: (placement.priority.get(t, 0.0), t.name) for t in self.tasks
        }
        # program version: task parallel iff any task leaves cores to others
        is_tp = any(len(c) < machine.total_cores for c in self.tuples)
        #: the keyword arguments of every ``tcomm_mapped`` call; the plan
        #: goes to the cost objects of this package, any other object gets
        #: the call it was written against
        self.tcomm_kw = dict(all_cores=placement.all_cores, task_parallel_program=is_tp)
        if isinstance(cost, (CostModel, CachedCostEvaluator)):
            self.tcomm_kw["plan"] = self.plan

    def cores_of(self, task: MTask) -> Tuple[CoreId, ...]:
        return self.tuples[self.group[task]]


def _successors(
    graph: TaskGraph, layout: _Layout, cost: CostModel, options: SimulationOptions
) -> Dict[MTask, List[Tuple[MTask, float]]]:
    """Every task's successors with the re-distribution price of the edge
    to each (0.0 without re-distribution), in ``graph.successors`` order.

    Each distinct ``(flows, source group, target group)`` edge is priced
    once, before the first pass.  A
    :class:`~repro.core.costmodel.CachedCostEvaluator` is consulted through
    :meth:`~repro.core.costmodel.CachedCostEvaluator.redistribution_times`,
    which credits it with the one request per graph edge and pass the
    passes read the price for, so its counters are what those requests
    would have left.
    """
    slot: Dict[tuple, int] = {}
    edges: List[tuple] = []
    requests: List[int] = []
    rows = {}
    for t in layout.tasks:
        row = []
        for s in graph.successors(t):
            i = None
            if options.redistribution:
                flows = graph.flows(t, s)
                key = (tuple(flows), layout.group[t], layout.group[s])
                i = slot.get(key)
                if i is None:
                    i = slot[key] = len(edges)
                    edges.append((flows, layout.cores_of(t), layout.cores_of(s)))
                    requests.append(0)
                requests[i] += options.contention_passes
            row.append((s, i))
        rows[t] = row
    if isinstance(cost, CachedCostEvaluator):
        prices = cost.redistribution_times(edges, requests)
    else:
        prices = [cost.redistribution_time(*edge) for edge in edges]
    return {
        t: [(s, 0.0 if i is None else prices[i]) for s, i in row] for t, row in rows.items()
    }


#: what a task's communication price depends on besides the task and its
#: cores: the NIC load (out | in counts per node), the concurrent groups'
#: core tuples and the part of the memo key that stands for the two
_Concurrent = Tuple[Optional[NicLoad], List[Tuple[CoreId, ...]], Optional[tuple]]


#: rows of the overlap matrix multiplied at a time: the product runs in
#: floats, and a float copy of the whole matrix would be eight times its size
_ROW_BLOCK = 1024


def _concurrent_sets(
    machine: Machine, layout: _Layout, trace: ExecutionTrace
) -> Dict[MTask, _Concurrent]:
    """Every task's concurrent set in ``trace``, as its next pass sees it.

    A task's NIC load is the sum of the rounds of the tasks overlapping it
    in time (itself included); each round is counted once per pass.  The
    sums of all tasks are one product of the overlap matrix with the
    per-task count table (out | in side by side) -- small integers held
    in floats, so exact in any order -- and tasks with the same
    concurrent set share one entry.
    """
    tasks = layout.tasks
    start = np.array([trace[t].start for t in tasks])
    ends = np.array([trace[t].finish for t in tasks]) - 1e-15
    overlap = (start < ends[:, None]) & (start[:, None] < ends)
    np.fill_diagonal(overlap, True)
    # the ring of a group loads the NICs alike for each of its communicating tasks
    phase: Dict[Tuple[int, bool], np.ndarray] = {}
    rows = []
    for t in tasks:
        key = (layout.group[t], bool(t.comm))
        if key not in phase:
            phase[key] = np.concatenate(_phase_counts(machine, t, layout.cores_of(t)))
        rows.append(phase[key])
    rounds = np.array(rows, dtype=float)
    load = np.empty(rounds.shape, dtype=np.intp)
    for lo in range(0, len(tasks), _ROW_BLOCK):
        load[lo : lo + _ROW_BLOCK] = overlap[lo : lo + _ROW_BLOCK] @ rounds

    group_of = np.array([layout.group[t] for t in tasks])
    nodes = machine.num_nodes
    by_members: Dict[bytes, _Concurrent] = {}
    sets: Dict[MTask, _Concurrent] = {}
    for i, t in enumerate(tasks):
        members = overlap[i].tobytes()
        shared = by_members.get(members)
        if shared is None:
            groups = group_of[overlap[i]].tolist()
            # what ``_orthogonal_groups`` makes of the peer list: repeats
            # dropped, first-seen order kept, a single group means none
            distinct = tuple(dict.fromkeys(groups))
            shared = by_members[members] = (
                (load[i, :nodes], load[i, nodes:]),
                [layout.tuples[g] for g in groups],
                (load[i].tobytes(), distinct if len(distinct) > 1 else ()),
            )
        sets[t] = shared
    return sets


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

    layout = _Layout(cost, graph, placement)
    successors = _successors(graph, layout, cost, options)
    #: ``tcomm_mapped`` results of this call, by what they depend on
    prices: Dict[tuple, float] = {}
    # pass 1: own edges only, no peers
    concurrent: Dict[MTask, _Concurrent] = dict.fromkeys(layout.tasks, (None, [], None))
    trace = ExecutionTrace(machine)
    with obs.span("simulate", tasks=len(graph)):
        for pass_no in range(options.contention_passes):
            if pass_no > 0:
                concurrent = _concurrent_sets(machine, layout, trace)
            with obs.span("contention_pass", index=pass_no):
                trace = _run_once(
                    graph, placement, cost, options, layout, successors, concurrent, prices
                )
            obs.count("sim.passes")
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
    options: SimulationOptions,
    layout: _Layout,
    successors: Dict[MTask, List[Tuple[MTask, float]]],
    concurrent: Dict[MTask, _Concurrent],
    prices: Dict[tuple, float],
) -> ExecutionTrace:
    machine = cost.platform.machine
    sim = Simulator()
    occupancy = _Occupancy(machine)
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
        ready_pool.sort(key=layout.rank.__getitem__)
        while ready_pool:
            t = ready_pool.pop(0)
            group = layout.group[t]
            tcores, idx = layout.tuples[group], layout.index[group]
            start = occupancy.earliest_start(idx, max(data_ready[t], sim.now))
            comp = cost.tcomp_mapped(t, tcores)
            nic_load, peers, load_key = concurrent[t]
            # ``comm`` and ``sync_points`` are all a model's mapped
            # communication price reads of the task itself
            key = (t.comm, t.sync_points, group, load_key)
            comm = prices.get(key)
            if comm is None:
                comm = prices[key] = cost.tcomm_mapped(
                    t, tcores, nic_load, peers, **layout.tcomm_kw
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
            finish = occupancy.book(idx, start, dur)
            trace.add(
                TraceEntry(
                    task=t,
                    start=start,
                    finish=finish,
                    cores=tcores,
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
                    lambda t=t, idx=idx, start=start, cc=comp_clean,
                    comm=comm, pf=finish: try_backup(t, idx, start, cc, comm, pf),
                )
            else:
                if spec is not None:
                    done_durations.append(dur)
                sim.at(finish, lambda t=t: complete(t))

    def try_backup(
        t: MTask,
        idx: np.ndarray,
        start: float,
        comp_clean: float,
        comm: float,
        primary_finish: float,
    ) -> None:
        bstart = sim.now
        free_from = occupancy.free_from
        idle = free_from <= bstart + 1e-12
        idle[idx] = False
        backup_idx = np.flatnonzero(idle)[: len(idx)]
        if len(backup_idx) < len(idx):
            # no room for a backup; the straggler just runs to the end
            done_durations.append(primary_finish - start)
            sim.at(primary_finish, lambda: complete(t))
            return
        backup_slow = plan.slowdown(t.name, 1) if plan is not None else 1.0
        backup_finish = bstart + comp_clean * backup_slow + comm
        if backup_finish < primary_finish:
            kind = "win"
            finish = backup_finish
            # reclaim the cancelled primary's tail on every core where its
            # booking is still the last one
            free_from[idx[free_from[idx] == primary_finish]] = finish
        else:
            kind = "loss"
            finish = primary_finish
        occupancy.book(backup_idx, bstart, finish - bstart)
        all_cores = machine.cores()
        trace.replace(
            replace_entry(
                trace[t],
                finish=finish,
                speculation=kind,
                backup_cores=tuple(all_cores[i] for i in backup_idx),
                backup_start=bstart,
                primary_finish=primary_finish,
            )
        )
        done_durations.append(finish - start)
        sim.at(finish, lambda: complete(t))

    def complete(t: MTask) -> None:
        t_finish = sim.now
        for s, rd in successors[t]:
            arrival = t_finish + rd
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
