"""Tests for the discrete-event kernel and the mapped-program executor.

The second half checks the array-form simulator (one memoised price per
distinct request, occupancy as one array, the contention pass as a
matrix product) against ``_reference_simulate`` -- the per-task loops it
replaced, kept here as the oracle -- entry by entry, floats by ``.hex()``.
"""

import random
from dataclasses import replace as replace_entry

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import chic, generic_cluster
from repro.core import (
    CachedCostEvaluator,
    CollectiveSpec,
    CostModel,
    DataFlow,
    DistributionSpec,
    MTask,
    Placement,
    TaskGraph,
)
from repro.experiments.common import paper_group_count
from repro.faults import FaultPlan, RetryPolicy
from repro.graphs import synthesize
from repro.hybrid import HybridCostModel
from repro.mapping import consecutive, place_result
from repro.ode import MethodConfig, bruss2d, step_graph
from repro.recovery import SpeculationPolicy
from repro.scheduling import fixed_group_scheduler
from repro.sim import SimulationOptions, Simulator, simulate
from repro.sim.executor import _Occupancy, _phase_counts
from repro.sim.trace import ExecutionTrace, TraceEntry


class TestEngine:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(2.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(2.0, lambda: log.append("c"))  # ties by insertion order
        end = sim.run()
        assert log == ["a", "b", "c"]
        assert end == 2.0

    def test_after_relative(self):
        sim = Simulator()
        out = []
        sim.at(1.0, lambda: sim.at(sim.now + 2.0, lambda: out.append(sim.now)))
        sim.run()
        assert out == [3.0]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        hits = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda t=t: hits.append(t))
        sim.run(until=2.5)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.5

    def test_core_resource_booking(self):
        """The oracle's per-core booking rule (``_RefCore``)."""
        c = _RefCore()
        assert c.earliest_start(0.5) == 0.5
        end = c.book(0.5, 2.0)
        assert end == 2.5
        assert c.earliest_start(1.0) == 2.5
        with pytest.raises(ValueError):
            c.book(1.0, 1.0)  # overlaps the existing booking


@pytest.fixture
def plat():
    return generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)


@pytest.fixture
def cost(plat):
    return CostModel(plat)


def place_all(graph, plat, width=None, order=None):
    cores = plat.machine.cores()
    width = width or len(cores)
    pl = {}
    pr = {}
    for i, t in enumerate(order or graph.topological_order()):
        pl[t] = cores[:width]
        pr[t] = float(i)
    return Placement(task_cores=pl, priority=pr, all_cores=cores)


class TestSimulate:
    def test_serial_chain_timing(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        b = g.add_task(MTask("b", work=1e9))
        g.add_dependency(a, b)
        tr = simulate(g, place_all(g, plat), cost)
        expected = 2 * cost.tcomp(a, plat.total_cores)
        assert tr.makespan == pytest.approx(expected)
        assert tr[b].start == pytest.approx(tr[a].finish)

    def test_disjoint_tasks_run_concurrently(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        b = g.add_task(MTask("b", work=1e9))
        cores = plat.machine.cores()
        pl = Placement(
            task_cores={a: cores[:8], b: cores[8:]},
            priority={a: 0, b: 1},
            all_cores=cores,
        )
        tr = simulate(g, pl, cost)
        assert tr[a].start == tr[b].start == 0.0
        assert tr.makespan == pytest.approx(cost.tcomp(a, 8))

    def test_shared_cores_serialise_by_priority(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        b = g.add_task(MTask("b", work=1e9))
        pl = place_all(g, plat, order=[b, a])
        tr = simulate(g, pl, cost)
        assert tr[b].start < tr[a].start  # b had higher priority

    def test_precedence_always_respected(self, plat, cost):
        g = TaskGraph()
        tasks = [g.add_task(MTask(f"t{i}", work=1e8)) for i in range(6)]
        for i in range(5):
            if i % 2 == 0:
                g.add_dependency(tasks[i], tasks[i + 1])
        tr = simulate(g, place_all(g, plat, width=4), cost)
        for u, v, _f in g.edges():
            assert tr[v].start >= tr[u].finish - 1e-12

    def test_redistribution_delays_successor(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e8))
        b = g.add_task(MTask("b", work=1e8))
        g.add_dependency(
            a, b,
            [DataFlow("x", 100000, src_dist=DistributionSpec("block"),
                      dst_dist=DistributionSpec("block"))],
        )
        cores = plat.machine.cores()
        pl = Placement(
            task_cores={a: cores[:4], b: cores[4:8]},
            priority={a: 0, b: 1},
            all_cores=cores,
        )
        with_rd = simulate(g, pl, cost)
        without = simulate(g, pl, cost, SimulationOptions(redistribution=False))
        assert with_rd.makespan > without.makespan
        assert with_rd[b].redist_wait > 0

    def test_contention_pass_refines(self, plat, cost):
        """Two scattered groups talking concurrently get slower once the
        second pass accounts for their shared NICs."""
        g = TaskGraph()
        comm = (CollectiveSpec("allgather", 1 << 20),)
        a = g.add_task(MTask("a", work=1e6, comm=comm))
        b = g.add_task(MTask("b", work=1e6, comm=comm))
        cores = plat.machine.cores()
        g1 = [c for c in cores if c.proc == 0 and c.core == 0]
        g2 = [c for c in cores if c.proc == 0 and c.core == 1]
        pl = Placement(task_cores={a: tuple(g1), b: tuple(g2)},
                       priority={a: 0, b: 1}, all_cores=cores)
        t1 = simulate(g, pl, cost, SimulationOptions(contention_passes=1))
        t2 = simulate(g, pl, cost, SimulationOptions(contention_passes=2))
        assert t2.makespan > t1.makespan

    def test_trace_accounting(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9, comm=(CollectiveSpec("allgather", 1 << 16),)))
        tr = simulate(g, place_all(g, plat), cost)
        e = tr[a]
        assert e.comp_time > 0 and e.comm_time > 0
        assert e.duration == pytest.approx(e.comp_time + e.comm_time)
        assert 0 < tr.utilization() <= 1
        assert 0 < tr.comm_fraction() < 1
        assert "makespan" in tr.summary()

    def test_validation_errors(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", min_procs=4))
        cores = plat.machine.cores()
        pl = Placement(task_cores={a: cores[:2]}, priority={a: 0})
        with pytest.raises(ValueError):
            simulate(g, pl, cost)
        with pytest.raises(ValueError):
            simulate(g, place_all(g, plat), cost, SimulationOptions(contention_passes=0))

    def test_all_tasks_traced(self, plat, cost):
        g = TaskGraph()
        ts = [g.add_task(MTask(f"t{i}", work=1e7)) for i in range(10)]
        for i in range(9):
            g.add_dependency(ts[i], ts[i + 1])
        tr = simulate(g, place_all(g, plat, width=2), cost)
        assert len(tr) == 10

    def test_per_node_busy(self, plat, cost):
        g = TaskGraph()
        a = g.add_task(MTask("a", work=1e9))
        cores = plat.machine.cores()
        pl = Placement(task_cores={a: cores[:4]}, priority={a: 0}, all_cores=cores)
        busy = simulate(g, pl, cost).per_core_busy()
        assert {c.node for c in busy} == {0}


# ----------------------------------------------------------------------
# the oracle: the per-task loops the array-form simulator replaced
# ----------------------------------------------------------------------
def _overlaps(a, b):
    return a[0] < b[1] - 1e-15 and b[0] < a[1] - 1e-15


class _RefCore:
    """One core as a serially reusable resource: bookings arrive in
    non-decreasing time order, so one free-from time suffices."""

    def __init__(self):
        self.free_from = 0.0

    def earliest_start(self, not_before):
        return max(self.free_from, not_before)

    def book(self, start, duration):
        if start < self.free_from - 1e-12:
            raise ValueError(f"core booked at {start} while busy until {self.free_from}")
        self.free_from = start + duration
        return self.free_from


def _reference_simulate(graph, placement, cost, options=SimulationOptions()):
    """``simulate`` as it was before the array form: every task's NIC load
    from a loop over all tasks, every dispatch priced, one :class:`_RefCore`
    per core."""
    machine = cost.platform.machine
    placement.validate(graph)
    intervals = {}
    trace = ExecutionTrace(machine)
    for pass_no in range(options.contention_passes):
        loads, peers = {}, {}
        if pass_no == 0:
            for t in graph:
                loads[t] = None  # own edges only
                peers[t] = []
        else:
            phase = {t: _phase_counts(machine, t, placement.cores_of(t)) for t in graph}
            for t in graph:
                mine = intervals[t]
                concurrent = [o for o in graph if o is t or _overlaps(intervals[o], mine)]
                loads[t] = (
                    sum(phase[o][0] for o in concurrent),
                    sum(phase[o][1] for o in concurrent),
                )
                peers[t] = [tuple(placement.cores_of(o)) for o in concurrent]
        trace = _reference_run_once(graph, placement, cost, loads, peers, options)
        intervals = {e.task: (e.start, e.finish) for e in trace.entries}
    return trace


def _reference_run_once(graph, placement, cost, loads, peers, options):
    machine = cost.platform.machine
    sim = Simulator()
    cores = {c: _RefCore() for c in machine.cores()}
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
    done_durations = []
    is_tp = any(len(placement.cores_of(t)) < machine.total_cores for t in graph)
    remaining_preds = {t: len(graph.predecessors(t)) for t in graph}
    data_ready = {t: 0.0 for t in graph}
    redist_charged = {t: 0.0 for t in graph}
    ready_pool = []

    def try_dispatch():
        ready_pool.sort(key=lambda t: (placement.priority.get(t, 0.0), t.name))
        while ready_pool:
            t = ready_pool.pop(0)
            tcores = placement.cores_of(t)
            start = max(data_ready[t], sim.now)
            for c in tcores:
                start = cores[c].earliest_start(start)
            comp = cost.tcomp_mapped(t, tcores)
            comm = cost.tcomm_mapped(
                t, tcores, loads[t], peers.get(t),
                all_cores=placement.all_cores, task_parallel_program=is_tp,
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
                    task=t, start=start, finish=finish, cores=tuple(tcores),
                    comp_time=comp, comm_time=comm, redist_wait=redist_charged[t],
                    retries=retries, fault_overhead=overhead,
                )
            )
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

    def try_backup(t, tcores, start, comp_clean, comm, primary_finish):
        bstart = sim.now
        taken = set(tcores)
        idle = [
            c for c in machine.cores()
            if c not in taken and cores[c].free_from <= bstart + 1e-12
        ]
        if len(idle) < len(tcores):
            done_durations.append(primary_finish - start)
            sim.at(primary_finish, lambda: complete(t))
            return
        backup_cores = tuple(idle[: len(tcores)])
        backup_slow = plan.slowdown(t.name, 1) if plan is not None else 1.0
        backup_finish = bstart + comp_clean * backup_slow + comm
        if backup_finish < primary_finish:
            kind = "win"
            finish = backup_finish
            for c in tcores:
                if cores[c].free_from == primary_finish:
                    cores[c].free_from = finish
        else:
            kind = "loss"
            finish = primary_finish
        for c in backup_cores:
            cores[c].book(bstart, finish - bstart)
        trace.replace(
            replace_entry(
                trace[t], finish=finish, speculation=kind, backup_cores=backup_cores,
                backup_start=bstart, primary_finish=primary_finish,
            )
        )
        done_durations.append(finish - start)
        sim.at(finish, lambda: complete(t))

    def complete(t):
        t_finish = sim.now
        for s in graph.successors(t):
            arrival = t_finish
            if options.redistribution:
                rd = cost.redistribution_time(
                    graph.flows(t, s), placement.cores_of(t), placement.cores_of(s)
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
    assert all(t in trace for t in graph)
    return trace


_FLOATS = (
    "start", "finish", "comp_time", "comm_time", "redist_wait",
    "fault_overhead", "backup_start", "primary_finish",
)


def _rows(trace):
    """A trace as comparable rows: floats by ``.hex()``, the rest as is.
    Every float must be a Python float -- no numpy scalar may leak out of
    the occupancy array into a trace."""
    rows = []
    for e in trace.entries:
        assert all(type(getattr(e, f)) is float for f in _FLOATS), e
        rows.append(
            (e.task.name, tuple(e.cores), e.retries, e.speculation, tuple(e.backup_cores))
            + tuple(getattr(e, f).hex() for f in _FLOATS)
        )
    return rows


def assert_matches_reference(graph, placement, cost, options=SimulationOptions()):
    got = simulate(graph, placement, cost, options)
    want = _reference_simulate(graph, placement, cost, options)
    assert _rows(got) == _rows(want)
    return got


# ----------------------------------------------------------------------
# oracle: synthetic families x placements x options
# ----------------------------------------------------------------------
SMALL = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
SMALL_CORES = SMALL.machine.cores()

#: group layouts over the 16 cores: equal blocks, unequal widths with a
#: one-core group, groups sharing cores, one core per group, groups
#: strided across the nodes (their rings load every NIC), one group
LAYOUTS = {
    "blocks": [SMALL_CORES[i : i + 4] for i in range(0, 16, 4)],
    "unequal": [SMALL_CORES[:7], SMALL_CORES[7:12], SMALL_CORES[12:15], SMALL_CORES[15:]],
    "shared": [SMALL_CORES[:6], SMALL_CORES[4:10], SMALL_CORES[8:16], SMALL_CORES[2:5]],
    "single": [(c,) for c in SMALL_CORES[:6]],
    "strided": [SMALL_CORES[i::4] for i in range(4)],
    "whole": [SMALL_CORES],
}
FAMILY_KWARGS = {"chain": {}, "forkjoin": {"width": 5}, "layered": {"width": 6}, "random": {}}
DISTS = (
    DistributionSpec("replic"),
    DistributionSpec("block"),
    DistributionSpec("cyclic"),
    DistributionSpec("blockcyclic", block_size=16),
)


@st.composite
def programs(draw):
    family = draw(st.sampled_from(sorted(FAMILY_KWARGS)))
    n = draw(st.integers(min_value=1, max_value=22))
    seed = draw(st.integers(0, 10**6))
    drawn = synthesize(family, n, seed=seed, cores=1, **FAMILY_KWARGS[family])
    # the generators' flows are replicated on both sides and so cost
    # nothing to re-distribute: give every flow a layout pair
    rng = random.Random(seed)
    graph = TaskGraph(drawn.name)
    graph.add_tasks(drawn)
    graph.add_edges_bulk(
        (
            u,
            v,
            [
                replace_entry(f, src_dist=rng.choice(DISTS), dst_dist=rng.choice(DISTS))
                for f in flows
            ],
        )
        for u, v, flows in drawn.edges()
    )
    groups = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    order = graph.topological_order()
    picks = draw(
        st.lists(st.integers(-1, len(groups) - 1), min_size=len(order), max_size=len(order))
    )
    # -1: the task spans all cores, whatever the layout
    task_cores = {t: SMALL_CORES if g < 0 else groups[g] for t, g in zip(order, picks)}
    priority = {t: float(i) for i, t in enumerate(order)}
    return graph, Placement(task_cores=task_cores, priority=priority, all_cores=SMALL_CORES)


fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 99),
        failure_rate=st.sampled_from([0.0, 0.3, 1.0]),
        slowdown_rate=st.sampled_from([0.0, 0.5, 1.0]),
        max_slowdown=st.sampled_from([1.6, 4.0]),
    ),
)
retry_policies = st.one_of(
    st.none(),
    st.builds(
        RetryPolicy,
        max_retries=st.integers(0, 3),
        timeout=st.sampled_from([None, 1e-6, 1e-4]),
    ),
)
speculation_policies = st.one_of(
    st.none(),
    st.builds(SpeculationPolicy, factor=st.sampled_from([1.1, 1.5, 2.5])),
    st.builds(
        SpeculationPolicy,
        factor=st.just(1.2),
        quantile=st.sampled_from([0.5, 1.0]),
        min_samples=st.integers(1, 3),
    ),
)
sim_options = st.builds(
    SimulationOptions,
    contention_passes=st.integers(1, 3),
    redistribution=st.booleans(),
    faults=fault_plans,
    retry=retry_policies,
    speculation=speculation_policies,
)


class TestAgainstReference:
    @given(program=programs(), options=sim_options, cached=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_synthetic_programs(self, program, options, cached):
        graph, placement = program
        model = CostModel(SMALL)
        assert_matches_reference(
            graph, placement, CachedCostEvaluator(model) if cached else model, options
        )

    @pytest.mark.parametrize("cores", [256, 64])
    @pytest.mark.parametrize(
        "cfg",
        [
            MethodConfig("irk", K=4, m=7),
            MethodConfig("diirk", K=4, m=3, I=2),
            MethodConfig("epol", K=8),
            MethodConfig("pab", K=8),
            MethodConfig("pabm", K=8, m=2),
        ],
        ids=lambda cfg: cfg.method,
    )
    def test_paper_solvers_on_chic(self, cfg, cores):
        platform = chic().with_cores(cores)
        graph, placement = solver_program(platform, cfg, n=100)
        assert_matches_reference(graph, placement, CachedCostEvaluator(CostModel(platform)))

    def test_hybrid_model(self):
        """The hybrid model prices thread-team barriers from
        ``task.sync_points`` on top of the collectives."""
        platform = chic().with_cores(64)
        graph, placement = solver_program(platform, MethodConfig("diirk", K=4, m=3, I=2), n=60)
        assert any(t.sync_points for t in graph)
        assert_matches_reference(
            graph, placement, HybridCostModel(platform, threads_per_process=4)
        )

    def test_a_win_and_a_loss(self):
        """One straggler whose backup wins, one whose backup loses."""
        graph = TaskGraph()
        tasks = [graph.add_task(MTask(name, work=1e9)) for name in ("far", "near", "ok")]
        groups = LAYOUTS["blocks"]
        placement = Placement(
            task_cores=dict(zip(tasks, groups)),
            priority={t: float(i) for i, t in enumerate(tasks)},
            all_cores=SMALL_CORES,
        )
        options = SimulationOptions(
            faults=FaultPlan(slowdowns={"far": 4.0, "near": 1.6}),
            speculation=SpeculationPolicy(factor=1.5),
        )
        trace = assert_matches_reference(graph, placement, CostModel(SMALL), options)
        assert [trace[t].speculation for t in tasks] == ["win", "loss", ""]

    def test_more_tasks_than_one_row_block(self, monkeypatch):
        """The overlap product runs over blocks of rows; 39 tasks in
        blocks of 4 cross many block boundaries, the last block short."""
        monkeypatch.setattr("repro.sim.executor._ROW_BLOCK", 4)
        platform = chic().with_cores(64)
        graph, placement = solver_program(platform, MethodConfig("epol", K=8), n=60)
        assert len(graph) % 4
        assert_matches_reference(graph, placement, CostModel(platform))

    def test_empty_graph(self):
        placement = Placement(task_cores={}, all_cores=SMALL_CORES)
        assert len(simulate(TaskGraph(), placement, CostModel(SMALL))) == 0


def solver_program(platform, cfg, n):
    """One paper solver step, scheduled and mapped as the pipeline does."""
    graph = step_graph(bruss2d(n), cfg)
    cost = CachedCostEvaluator(CostModel(platform))
    result = fixed_group_scheduler(cost, paper_group_count(cfg)).schedule(graph)
    return graph, place_result(result, platform.machine, consecutive())


# ----------------------------------------------------------------------
# the price memo
# ----------------------------------------------------------------------
class CountingModel:
    """A cost model that records every mapped evaluation reaching it."""

    def __init__(self, model):
        self.model = model
        self.calls = {"tcomp_mapped": 0, "tcomm_mapped": 0, "redistribution_time": 0}
        #: what each ``tcomm_mapped`` evaluation depended on
        self.requests = []

    def tcomp_mapped(self, task, cores):
        self.calls["tcomp_mapped"] += 1
        return self.model.tcomp_mapped(task, cores)

    def tcomm_mapped(self, task, cores, load=None, peer_groups=None, **kwargs):
        self.calls["tcomm_mapped"] += 1
        peers = list(dict.fromkeys(tuple(g) for g in peer_groups or ()))
        self.requests.append(
            (
                task.comm,
                task.sync_points,
                tuple(cores),
                None if load is None else tuple(
                    tuple((int(n), int(side[n])) for n in np.flatnonzero(side))
                    for side in load
                ),
                tuple(peers) if len(peers) > 1 else (),
            )
        )
        return self.model.tcomm_mapped(task, cores, load, peer_groups, **kwargs)

    def redistribution_time(self, flows, src_cores, dst_cores):
        self.calls["redistribution_time"] += 1
        return self.model.redistribution_time(flows, src_cores, dst_cores)

    def __getattr__(self, name):
        return getattr(self.model, name)


def strided_pair():
    """Two four-core groups, one core on every node each: their rings
    cross every NIC, so running side by side halves the bandwidth."""
    return LAYOUTS["strided"][0], LAYOUTS["strided"][1]


class TestPriceMemo:
    COMM = (CollectiveSpec("allgather", 1 << 20),)

    def test_equal_comm_and_cores_but_different_nic_load(self):
        """``a1`` and ``a2`` issue the same collectives on the same cores;
        ``b`` shares the NICs with ``a1`` only.  A memo key without the
        contention counts would hand ``a2`` the price of ``a1``."""
        g = TaskGraph()
        a1 = g.add_task(MTask("a1", work=1e6, comm=self.COMM))
        a2 = g.add_task(MTask("a2", work=1e6, comm=self.COMM))
        b = g.add_task(MTask("b", work=1e6, comm=self.COMM))
        g.add_dependency(a1, a2)
        ga, gb = strided_pair()
        pl = Placement(
            task_cores={a1: ga, a2: ga, b: gb},
            priority={a1: 0.0, b: 1.0, a2: 2.0},
            all_cores=SMALL_CORES,
        )
        model = CountingModel(CostModel(SMALL))
        tr = assert_matches_reference(g, pl, model)
        assert tr[a1].comm_time > tr[a2].comm_time
        assert tr[a1].comm_time == tr[b].comm_time

    def test_peer_lists_differing_by_repeats_share_a_price(self):
        """``x1`` runs beside two silent tasks of the other group, ``x2``
        beside one: their peer lists are [A, B, B] and [A, B], which the
        cost model reads alike, and the silent tasks add nothing to the
        NIC load -- one price per pass for both."""
        orth = (CollectiveSpec("allgather", 1 << 18, scope="orthogonal"),)
        g = TaskGraph()
        x1 = g.add_task(MTask("x1", work=4e8, comm=orth))
        x2 = g.add_task(MTask("x2", work=4e8, comm=orth))
        y = [g.add_task(MTask(f"y{i}", work=1e8)) for i in range(3)]
        g.add_dependency(x1, x2)
        g.add_dependency(y[0], y[1])
        g.add_dependency(x1, y[2])
        ga, gb = strided_pair()
        pl = Placement(
            task_cores={x1: ga, x2: ga, **{t: gb for t in y}},
            priority={t: float(i) for i, t in enumerate([x1, *y, x2])},
            all_cores=SMALL_CORES,
        )
        options = SimulationOptions(redistribution=False)
        model = CountingModel(CostModel(SMALL))
        tr = assert_matches_reference(g, pl, model, options)
        beside = {
            t: [o.name for o in g if tr[o].start < tr[t].finish and tr[t].start < tr[o].finish]
            for t in (x1, x2)
        }
        assert beside[x1] == ["x1", "y0", "y1"] and beside[x2] == ["x2", "y2"]
        assert tr[x1].comm_time == tr[x2].comm_time > 0
        # the reference (second half of the requests) priced x1 and x2
        # on both passes, the memo once per pass
        x_requests = [r for r in model.requests if r[0] == orth]
        assert len(x_requests) == 2 + 4 and len(set(x_requests)) == 2

    def test_a_task_of_no_duration_still_counts_its_own_ring(self):
        """``lone``'s only operation has no partner group, so it takes no
        time and overlaps nothing -- not even itself by the interval test;
        its context holds its own ring all the same."""
        orth = (CollectiveSpec("allgather", 1 << 18, scope="orthogonal"),)
        g = TaskGraph()
        lone = g.add_task(MTask("lone", comm=orth))
        pl = Placement(task_cores={lone: strided_pair()[0]}, all_cores=SMALL_CORES)
        new, old = CountingModel(CostModel(SMALL)), CountingModel(CostModel(SMALL))
        tr = simulate(g, pl, new)
        assert _rows(tr) == _rows(_reference_simulate(g, pl, old))
        assert tr[lone].duration == 0.0
        assert new.requests == old.requests
        assert new.requests[-1][3] == (((0, 1), (1, 1), (2, 1), (3, 1)),) * 2

    def test_sync_points_are_part_of_the_price(self):
        """The hybrid model charges a team barrier per ``sync_points``:
        equal collectives on equal cores, different prices."""
        platform = chic().with_cores(16)
        g = TaskGraph()
        quiet = g.add_task(MTask("quiet", work=1e6, comm=self.COMM))
        chatty = g.add_task(MTask("chatty", work=1e6, comm=self.COMM, sync_points=50))
        g.add_dependency(quiet, chatty)
        cores = platform.machine.cores()
        pl = Placement(task_cores={quiet: cores, chatty: cores}, all_cores=cores)
        tr = assert_matches_reference(g, pl, HybridCostModel(platform, threads_per_process=4))
        assert tr[chatty].comm_time > tr[quiet].comm_time

    def test_irk_prices_each_distinct_request_once(self):
        platform = chic().with_cores(256)
        graph, placement = solver_program(platform, MethodConfig("irk", K=4, m=7), n=100)
        new, old = CountingModel(CostModel(platform)), CountingModel(CostModel(platform))
        new_cost, old_cost = CachedCostEvaluator(new), CachedCostEvaluator(old)
        got = simulate(graph, placement, new_cost)
        want = _reference_simulate(graph, placement, old_cost)
        assert _rows(got) == _rows(want)
        # the reference prices every task on every pass ...
        assert old.calls["tcomm_mapped"] == len(graph) * 2
        # ... the memo every distinct request once
        assert new.calls["tcomm_mapped"] == len(set(old.requests)) < len(graph) * 2
        assert len(set(new.requests)) == len(new.requests)
        assert set(new.requests) == set(old.requests)
        # nothing else about the evaluator's work moved
        for name in ("tcomp_mapped", "redistribution_time"):
            assert new.calls[name] == old.calls[name]
        assert new_cost.stats == old_cost.stats

    def test_third_pass_reuses_the_second_pass_prices(self):
        platform = chic().with_cores(256)
        graph, placement = solver_program(platform, MethodConfig("irk", K=4, m=7), n=100)
        calls = {}
        for passes in (2, 3):
            model = CountingModel(CostModel(platform))
            tr = simulate(graph, placement, model, SimulationOptions(contention_passes=passes))
            calls[passes] = (model.calls["tcomm_mapped"], _rows(tr))
        # pass three sees the concurrent sets of pass two again
        assert calls[3][1] == calls[2][1]
        assert calls[3][0] == calls[2][0]


# ----------------------------------------------------------------------
# core occupancy
# ----------------------------------------------------------------------
class TestOccupancy:
    def test_booking_a_busy_core_raises(self):
        occupancy = _Occupancy(SMALL.machine)
        first, second = np.array([0, 1, 2]), np.array([2, 3])
        assert occupancy.earliest_start(first, 0.5) == 0.5
        assert occupancy.book(first, 0.5, 2.0) == 2.5
        assert occupancy.earliest_start(second, 1.0) == 2.5  # core 2 is busy
        with pytest.raises(ValueError, match="busy until 2.5"):
            occupancy.book(second, 1.0, 1.0)
        assert occupancy.book(second, 2.5, 1.0) == 3.5
        assert occupancy.free_from.tolist()[:5] == [2.5, 2.5, 3.5, 3.5, 0.0]

    def test_winning_backup_frees_the_primary_cores_early(self):
        """``late`` becomes ready after the race is decided and runs on
        the straggler's cores from the winner's finish on, not from the
        cancelled primary's."""
        g = TaskGraph()
        straggler = g.add_task(MTask("straggler", work=1e9))
        gate = g.add_task(MTask("gate", work=2e9))
        late = g.add_task(MTask("late", work=1e9))
        g.add_dependency(gate, late)
        groups = LAYOUTS["blocks"]
        pl = Placement(
            task_cores={straggler: groups[0], gate: groups[1], late: groups[0]},
            priority={straggler: 0.0, gate: 1.0, late: 2.0},
            all_cores=SMALL_CORES,
        )
        options = SimulationOptions(
            faults=FaultPlan(slowdowns={"straggler": 4.0}),
            speculation=SpeculationPolicy(factor=1.5),
        )
        tr = assert_matches_reference(g, pl, CostModel(SMALL), options)
        e = tr[straggler]
        assert e.speculation == "win" and e.finish < e.primary_finish
        assert e.backup_start < tr[gate].finish < e.finish  # ready after the race
        assert tr[late].start == e.finish
        assert set(e.backup_cores).isdisjoint(groups[0] + groups[1])

    def test_list_placement_equals_tuple_placement(self):
        platform = chic().with_cores(64)
        graph, placement = solver_program(platform, MethodConfig("pabm", K=8, m=2), n=60)
        as_lists = Placement(
            task_cores={t: list(c) for t, c in placement.task_cores.items()},
            priority=placement.priority,
            all_cores=placement.all_cores,
        )
        cost = CostModel(platform)
        assert _rows(simulate(graph, as_lists, cost)) == _rows(simulate(graph, placement, cost))
