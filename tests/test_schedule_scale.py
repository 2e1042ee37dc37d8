"""Tests of the decide/cost split and the scheduler's behaviour at scale.

Covers the vectorized cost core (``repro.core.costbatch``), the
index-level LPT / deque-based group adjustment, the O(V+E) graph passes
(bulk construction, chain contraction on long chains), the synthetic
generators and the end-to-end determinism of large schedules.  The
central contract is *bit-identity*: every refactored decision path must
reproduce the scalar reference exactly, not approximately.
"""

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import chic, generic_cluster
from repro.core import CachedCostEvaluator, CollectiveSpec, CostModel, MTask, TaskGraph
from repro.core.costbatch import symbolic_cost_pairs, symbolic_cost_table
from repro.graphs import FAMILIES, chain_graph, layered_graph, synthesize
from repro.obs import Instrumentation
from repro.ode import PAPER_CONFIGS, bruss2d, step_graph
from repro.runtime.backends.base import independent_batches
from repro.scheduling import LayerBasedScheduler, contract_chains, find_linear_chains
from repro.scheduling.allocation import (
    adjust_group_sizes,
    equal_partition,
    lpt_assign_indices,
)

from tests.test_graph_storage import to_networkx

# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
_OPS = ("allgather", "scatter", "gather", "alltoall", "bcast", "reduce",
        "allreduce", "ptp", "barrier")
_SCOPES = ("group", "global", "orthogonal")


@st.composite
def mtask(draw, index: int = 0):
    name = f"t{index}_{draw(st.integers(0, 10**6))}"
    work = draw(st.floats(0.0, 1e10, allow_nan=False, allow_infinity=False))
    min_procs = draw(st.integers(1, 16))
    max_procs = draw(st.one_of(st.none(), st.integers(min_procs, 64)))
    comm = tuple(
        CollectiveSpec(
            op=draw(st.sampled_from(_OPS)),
            total_elements=draw(st.floats(0.0, 1e7, allow_nan=False)),
            count=float(draw(st.integers(0, 5))),
            scope=draw(st.sampled_from(_SCOPES)),
            task_parallel_only=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return MTask(name=name, work=work, comm=comm,
                 min_procs=min_procs, max_procs=max_procs)


@st.composite
def tasks_widths_platform(draw):
    tasks = [draw(mtask(i)) for i in range(draw(st.integers(1, 8)))]
    platform = generic_cluster(
        nodes=draw(st.integers(1, 8)),
        procs_per_node=draw(st.integers(1, 4)),
        cores_per_proc=draw(st.integers(1, 4)),
    )
    widths = draw(
        st.lists(st.integers(1, 2 * platform.total_cores), min_size=1,
                 max_size=6, unique=True)
    )
    return tasks, sorted(widths), platform


class TestBatchedCostBitIdentity:
    """symbolic_cost_table == scalar tsymb, exactly (the core contract)."""

    @given(tasks_widths_platform())
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_scalar_exactly(self, twp):
        tasks, widths, platform = twp
        model = CostModel(platform)
        table = symbolic_cost_table(model, tasks, widths)
        assert table.shape == (len(tasks), len(widths))
        for i, t in enumerate(tasks):
            for j, w in enumerate(widths):
                scalar = model.tsymb(t, t.clamp_procs(max(w, t.min_procs)))
                batched = float(table[i, j])
                # exact equality: same IEEE-754 bits, not approx
                assert batched == scalar, (
                    f"{t.name} @ width {w}: batch {batched!r} != "
                    f"scalar {scalar!r}"
                )

    def test_paper_workload_columns(self):
        """Spot-check on a real paper platform with clamped tasks."""
        from repro.ode import MethodConfig, bruss2d, step_graph

        graph = step_graph(bruss2d(200), MethodConfig("irk", K=4, m=7))
        model = CostModel(chic().with_cores(256))
        tasks = list(graph)
        widths = [1, 3, 16, 64, 85, 256]
        table = model.tsymb_table(tasks, widths)
        for i, t in enumerate(tasks):
            for j, w in enumerate(widths):
                assert float(table[i, j]) == model.tsymb(
                    t, t.clamp_procs(max(w, t.min_procs))
                )

    def test_contracted_chain_slots_accumulate_in_spec_order(self):
        """A contracted chain is one task with hundreds of slots of mixed
        formula classes; the table prices each class in one array call
        and must still add every task's slots in spec order."""
        import random

        rng = random.Random(3)

        def slots(k):
            return tuple(
                CollectiveSpec(
                    op=rng.choice(_OPS),
                    total_elements=rng.uniform(0.0, 1e6),
                    count=float(rng.randint(0, 3)),
                    scope=rng.choice(_SCOPES),
                    task_parallel_only=rng.random() < 0.3,
                )
                for _ in range(k)
            )

        # equal slot counts (500, 500) share an accumulate run; 120, 3
        # and 0 end theirs earlier
        tasks = [
            MTask(f"c{i}", work=rng.uniform(0.0, 1e9), comm=slots(k),
                  min_procs=minp, max_procs=maxp)
            for i, (k, minp, maxp) in enumerate(
                [(3, 1, None), (500, 2, None), (0, 1, 8), (500, 1, 48), (120, 4, None)]
            )
        ]
        model = CostModel(chic().with_cores(64))
        widths = [1, 2, 7, 32, 64]
        table = symbolic_cost_table(model, tasks, widths)
        for i, t in enumerate(tasks):
            for j, w in enumerate(widths):
                assert float(table[i, j]) == model.tsymb(
                    t, t.clamp_procs(max(w, t.min_procs))
                ), (t.name, w)
        # the 1 x 1 table of a lone contracted chain
        assert float(symbolic_cost_table(model, tasks[1:2], [64])[0, 0]) == model.tsymb(
            tasks[1], 64
        )

    def test_cached_evaluator_counts_batched_cells(self):
        cost = CachedCostEvaluator(CostModel(chic().with_cores(64)))
        tasks = [MTask(f"b{i}", work=1e8) for i in range(5)]
        cost.tsymb_table(tasks, [1, 2, 4])
        assert cost.stats.batched == {"tsymb": 15}
        assert cost.stats.total_batched == 15
        # the batch path must not touch the scalar request counters
        assert cost.stats.requests == 0


@st.composite
def priced_schedule(draw):
    """What pricing a finished schedule asks for: tasks dealt to groups,
    group sizes from ``adjust_group_sizes`` (widths that are columns of
    no g-search table), some tasks contracted chains to be expanded."""
    tasks, _widths, platform = draw(tasks_widths_platform())
    cores = platform.total_cores
    tasks = [replace(t, min_procs=1, max_procs=draw(st.one_of(
        st.none(), st.integers(1, 2 * cores)))) for t in tasks]
    g = draw(st.integers(1, min(len(tasks), cores)))
    groups = [tasks[i::g] for i in range(g)]
    sizes = adjust_group_sizes(groups, lambda t: t.work + 1.0, cores)
    expansion = {}
    for i, t in enumerate(tasks):
        k = draw(st.integers(0, 3))
        if k >= 2:  # a contracted chain of k members, priced one by one
            expansion[t] = [draw(mtask(100 * i + j)) for j in range(k)]
            for m in expansion[t]:
                m.min_procs = 1
    return groups, sizes, expansion, platform


class TestPairsKernelBitIdentity:
    """The pairs kernel behind ``predicted_makespan`` / ``symbolic_timeline``
    prices ``(member, clamped width)`` exactly as scalar ``tsymb`` does."""

    @given(priced_schedule())
    @settings(max_examples=150, deadline=None)
    def test_pairs_equal_scalar_exactly(self, case):
        groups, sizes, expansion, platform = case
        model = CostModel(platform)
        members, widths = [], []
        for size, group in zip(sizes, groups):
            for t in group:
                for m in expansion.get(t, [t]):
                    members.append(m)
                    widths.append(m.clamp_procs(size))
        scalar = [model.tsymb(m, q) for m, q in zip(members, widths)]
        assert symbolic_cost_pairs(model, members, widths).tolist() == scalar
        # the memoizing evaluator: same values, and exactly the cache
        # entries and hit/miss counts of the scalar calls it replaces,
        # on a cold cache and on a warm one
        batch, loop = CachedCostEvaluator(model), CachedCostEvaluator(model)
        for _ in range(2):
            assert batch.tsymb_pairs(members, widths) == scalar
            assert [loop.tsymb(m, q) for m, q in zip(members, widths)] == scalar
            assert batch.stats == loop.stats
            assert batch._cache == loop._cache

    def test_no_pairs(self):
        model = CostModel(chic().with_cores(16))
        assert symbolic_cost_pairs(model, [], []).tolist() == []
        cost = CachedCostEvaluator(model)
        assert cost.tsymb_pairs([], []) == [] and cost.stats.requests == 0


# ----------------------------------------------------------------------
# allocation primitives vs the historical reference implementations
# ----------------------------------------------------------------------
def _lpt_reference(tasks, time_of, g):
    """The pre-refactor O(n*g) linear-scan LPT."""
    order = sorted(tasks, key=lambda t: (-time_of(t), t.name))
    groups = [[] for _ in range(g)]
    loads = [0.0] * g
    for t in order:
        l = min(range(g), key=lambda i: (loads[i], i))
        groups[l].append(t)
        loads[l] += time_of(t)
    return groups


def _adjust_reference(groups, seq_work, total_cores):
    """The pre-refactor multi-pass adjust_group_sizes repair loop."""
    g = len(groups)
    if g == 0:
        return []
    if g > total_cores:
        raise ValueError("too many groups")
    tseq = [sum(seq_work(t) for t in grp) for grp in groups]
    total_work = sum(tseq)
    floors = [max((max((t.min_procs for t in grp), default=1)), 1) for grp in groups]
    if sum(floors) > total_cores:
        raise ValueError("min_procs constraints exceed the available cores")
    if total_work <= 0:
        ideal = [total_cores / g] * g
    else:
        ideal = [total_cores * w / total_work for w in tseq]
    base = [int(x) for x in ideal]
    leftover = total_cores - sum(base)
    by_fraction = sorted(range(g), key=lambda i: (base[i] - ideal[i], i))
    for i in by_fraction[: max(0, leftover)]:
        base[i] += 1
    sizes = [max(f, b) for f, b in zip(floors, base)]
    diff = total_cores - sum(sizes)
    order_gain = sorted(range(g), key=lambda i: (sizes[i] - ideal[i], i))
    order_lose = sorted(range(g), key=lambda i: (ideal[i] - sizes[i], i))
    k = 0
    while diff > 0:
        sizes[order_gain[k % g]] += 1
        diff -= 1
        k += 1
    while diff < 0:
        shrunk = False
        for i in order_lose:
            if diff == 0:
                break
            if sizes[i] > floors[i]:
                sizes[i] -= 1
                diff += 1
                shrunk = True
        if diff < 0 and not shrunk:
            raise ValueError("cannot satisfy min_procs floors")
    return sizes


@st.composite
def lpt_case(draw):
    n = draw(st.integers(1, 24))
    tasks = [
        MTask(f"t{i}", work=draw(st.floats(0.0, 1e9, allow_nan=False)))
        for i in range(n)
    ]
    times = [draw(st.floats(0.0, 1e3, allow_nan=False)) for _ in range(n)]
    g = draw(st.integers(1, n))
    return tasks, dict(zip(tasks, times)), g


@st.composite
def adjust_case(draw):
    g = draw(st.integers(1, 8))
    groups = []
    for gi in range(g):
        size = draw(st.integers(1, 4))
        groups.append(
            [
                MTask(
                    f"g{gi}_{i}",
                    work=draw(st.floats(0.0, 1e9, allow_nan=False)),
                    min_procs=draw(st.integers(1, 4)),
                )
                for i in range(size)
            ]
        )
    total = draw(st.integers(sum(max(t.min_procs for t in grp) for grp in groups), 64))
    return groups, total


def lpt_assign(tasks, time_of, g):
    """LPT over task objects: tasks by decreasing ``time_of`` (ties by
    name) through :func:`lpt_assign_indices`."""
    tasks = list(tasks)
    times = [time_of(t) for t in tasks]
    order = sorted(range(len(tasks)), key=lambda i: (-times[i], tasks[i].name))
    return [[tasks[i] for i in grp] for grp in lpt_assign_indices(order, times, g)]


class TestAllocationEquivalence:
    @given(lpt_case())
    @settings(max_examples=300, deadline=None)
    def test_heap_lpt_matches_scan_reference(self, case):
        tasks, times, g = case
        time_of = times.__getitem__
        assert lpt_assign(tasks, time_of, g) == _lpt_reference(tasks, time_of, g)

    @given(lpt_case())
    @settings(max_examples=100, deadline=None)
    def test_index_lpt_matches_task_lpt(self, case):
        tasks, times, g = case
        tvals = [times[t] for t in tasks]
        order = sorted(range(len(tasks)), key=lambda i: (-tvals[i], tasks[i].name))
        idx_groups = lpt_assign_indices(order, tvals, g)
        task_groups = lpt_assign(tasks, times.__getitem__, g)
        assert [[tasks[i] for i in grp] for grp in idx_groups] == task_groups

    @given(adjust_case())
    @settings(max_examples=300, deadline=None)
    def test_deque_adjust_matches_multipass_reference(self, case):
        groups, total = case
        seq_work = lambda t: t.work / 1e9
        assert adjust_group_sizes(groups, seq_work, total) == _adjust_reference(
            groups, seq_work, total
        )

    @given(adjust_case())
    @settings(max_examples=100, deadline=None)
    def test_precomputed_tseq_changes_nothing(self, case):
        groups, total = case
        seq_work = lambda t: t.work / 1e9
        tseq = [sum(seq_work(t) for t in grp) for grp in groups]
        fail = lambda t: pytest.fail("seq_work must not be called with tseq")
        assert adjust_group_sizes(groups, fail, total, tseq=tseq) == adjust_group_sizes(
            groups, seq_work, total
        )

    def test_tseq_length_validated(self):
        groups = [[MTask("a", work=1.0)], [MTask("b", work=2.0)]]
        with pytest.raises(ValueError, match="tseq has 1 entries for 2 groups"):
            adjust_group_sizes(groups, lambda t: t.work, 8, tseq=[1.0])


# ----------------------------------------------------------------------
# graph passes at scale
# ----------------------------------------------------------------------
class TestGraphBulkConstruction:
    def test_deferred_validation_detects_cycles_at_exit(self):
        a, b, c = (MTask(x, work=1.0) for x in "abc")
        g = TaskGraph("cyclic")
        with pytest.raises(ValueError, match="cycle"):
            with g.deferred_validation():
                g.add_dependency(a, b)
                g.add_dependency(b, c)
                g.add_dependency(c, a)  # not caught here ...
                # ... but at block exit

    def test_incremental_cycle_check_still_immediate(self):
        a, b, c = (MTask(x, work=1.0) for x in "abc")
        g = TaskGraph("cyclic")
        g.add_dependency(a, b)
        g.add_dependency(b, c)
        with pytest.raises(ValueError, match="would create a cycle"):
            g.add_dependency(c, a)
        # the rejected edge left no partial state behind
        assert g.num_edges == 2
        g.validate()

    def test_add_edges_bulk_requires_known_tasks(self):
        a, b = MTask("a"), MTask("b")
        g = TaskGraph()
        g.add_task(a)
        with pytest.raises(ValueError, match="must be added tasks"):
            g.add_edges_bulk([(a, b, ())])

    def test_add_edges_bulk_matches_add_dependency(self):
        tasks = [MTask(f"n{i}", work=1.0) for i in range(50)]
        edges = [(tasks[i], tasks[j], ()) for i in range(50) for j in (i + 1, i + 7) if j < 50]
        g1, g2 = TaskGraph("bulk"), TaskGraph("loop")
        g1.add_tasks(tasks)
        g1.add_edges_bulk(edges)
        g2.add_tasks(tasks)
        for u, v, flows in edges:
            g2.add_dependency(u, v, flows)
        assert [t.name for t in g1.topological_order()] == [
            t.name for t in g2.topological_order()
        ]
        assert sorted((u.name, v.name) for u, v, _ in g1.edges()) == sorted(
            (u.name, v.name) for u, v, _ in g2.edges()
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_edges_follow_networkx_view_order(self, family):
        """``edges()`` walks the adjacency dicts directly; contraction,
        validation and the layered check depend on the view's order."""
        graph = synthesize(family, 400, seed=3)
        view = [(u, v, d["flows"]) for u, v, d in to_networkx(graph).edges(data=True)]
        mine = list(graph.edges())
        assert len(mine) == graph.num_edges == len(view)
        assert all(
            a[0] is b[0] and a[1] is b[1] and a[2] == b[2] for a, b in zip(mine, view)
        )

    def test_chain_contraction_linear_time_regression(self):
        """Satellite: a 10^4-node chain used to take quadratic time
        (per-edge full-graph DAG checks); it must now be near-instant."""
        graph = chain_graph(10_000, seed=5)
        t0 = time.perf_counter()
        chains = find_linear_chains(graph)
        contracted, expansion = contract_chains(graph)
        elapsed = time.perf_counter() - t0
        assert len(chains) == 1 and len(chains[0]) == 10_000
        assert len(contracted) == 1
        merged = next(iter(contracted))
        assert expansion[merged] == chains[0]
        # quadratic behaviour took minutes here; linear is well under 10 s
        assert elapsed < 10.0, f"contraction took {elapsed:.1f}s on a 10^4 chain"

    def test_independent_batches_uses_index_path(self):
        graph = synthesize("random", 300, seed=9)
        batches = independent_batches(graph)
        flat = [t for batch in batches for t in batch]
        assert flat == graph.topological_order()
        preds = graph.predecessor_index()
        for batch in batches:
            names = {t.name for t in batch}
            for t in batch:
                assert not any(p.name in names for p in preds[t])


# ----------------------------------------------------------------------
# synthetic generators
# ----------------------------------------------------------------------
class TestGenerators:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_deterministic_and_valid(self, family):
        g1 = synthesize(family, 500, seed=11)
        g2 = synthesize(family, 500, seed=11)
        assert [t.name for t in g1] == [t.name for t in g2]
        assert sorted((u.name, v.name) for u, v, _ in g1.edges()) == sorted(
            (u.name, v.name) for u, v, _ in g2.edges()
        )
        g1.validate()
        assert len(g1) >= 500

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_seed_changes_graph(self, family):
        g1 = synthesize(family, 300, seed=1)
        g2 = synthesize(family, 300, seed=2)
        w1 = [t.work for t in g1]
        w2 = [t.work for t in g2]
        assert w1 != w2

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            synthesize("mystery", 10)


# ----------------------------------------------------------------------
# references for the g-search: exhaustive scan, optimal assignment
# ----------------------------------------------------------------------
@st.composite
def layer_case(draw):
    """One layer for the g-search: 1-40 tasks of the ``mtask`` strategy
    with twins (equal cost columns, so equal-``Tact`` candidates and LPT
    ties) and zero-cost tasks (empty LPT groups), on 8, 64 or 256 cores."""
    P = draw(st.sampled_from((8, 64, 256)))
    n = draw(st.integers(1, 40))
    base = [draw(mtask(i)) for i in range(draw(st.integers(1, min(n, 10))))]
    zeros = draw(st.booleans())
    tasks = []
    for i in range(n):
        t = base[i] if i < len(base) else draw(st.sampled_from(base))
        if zeros and i >= len(base) and draw(st.integers(0, 4)) == 0:
            t = replace(t, work=0.0, comm=())
        tasks.append(replace(t, name=f"n{i:02d}", min_procs=min(t.min_procs, P)))
    assignment = draw(st.sampled_from(("lpt", "roundrobin")))
    return tasks, P, assignment, draw(st.booleans())


@st.composite
def small_layer_case(draw):
    P = draw(st.sampled_from((8, 16)))
    tasks = []
    for i in range(draw(st.integers(1, 7))):
        t = draw(mtask(i))
        tasks.append(replace(t, name=f"s{i}", min_procs=min(t.min_procs, 2)))
    return tasks, P


def _width_cost(cost, task, q):
    return cost.tsymb(task, task.clamp_procs(max(q, task.min_procs)))


def _exhaustive_layer(sched, tasks):
    """The exhaustive ascending probe loop ``schedule_layer`` replaced:
    one scalar-costed LPT (or round-robin) run per feasible ``g``."""
    cost, P = sched.cost, sched.nprocs
    best, candidates = None, 0
    for g in range(1, min(P, len(tasks)) + 1):  # <= WIDE_LAYER_LIMIT tasks
        if any(t.min_procs > P // g for t in tasks):
            continue
        candidates += 1
        if sched.assignment == "lpt":
            groups = _lpt_reference(tasks, lambda t: _width_cost(cost, t, P // g), g)
        else:
            groups = [tasks[gi::g] for gi in range(g)]
        groups = [grp for grp in groups if grp]
        sizes = equal_partition(P, len(groups))
        loads = [
            sum(_width_cost(cost, t, q) for t in grp) for q, grp in zip(sizes, groups)
        ]
        if best is None or max(loads) < best[0] - 1e-15:
            best = (max(loads), groups, sizes)
    tact, groups, sizes = best
    if sched.adjust and len(groups) > 1:
        sizes = adjust_group_sizes(groups, cost.sequential_time, P)
    return groups, sizes, tact, candidates


def _optimal_tact(cost, tasks, sizes):
    """Smallest ``Tact`` over *all* assignments of ``tasks`` to non-empty
    groups of the given sizes (depth-first, cut at the incumbent)."""
    times = [[_width_cost(cost, t, q) for q in sizes] for t in tasks]
    best = float("inf")

    # ``None`` marks a still-empty group (a zero-cost task fills it too)
    def place(i, loads, empty):
        nonlocal best
        if len(tasks) - i < empty:
            return
        if i == len(tasks):
            best = min(best, max(loads))
            return
        for k, load in enumerate(loads):
            new = (load or 0.0) + times[i][k]
            if new < best:
                place(i + 1, loads[:k] + (new,) + loads[k + 1:],
                      empty - (load is None))

    place(0, (None,) * len(sizes), len(sizes))
    return best


def _assert_makespan_matches_timeline(graph, platform):
    """``predicted_makespan`` is the timeline's makespan bit for bit and
    asks the cost evaluator for exactly the same values."""
    model = CostModel(platform)
    result = LayerBasedScheduler(model).schedule(graph)
    direct, via_timeline = CachedCostEvaluator(model), CachedCostEvaluator(model)
    makespan = result.predicted_makespan(direct)
    assert makespan.hex() == result.symbolic_timeline(via_timeline).makespan.hex()
    assert direct.stats == via_timeline.stats
    assert direct.stats.requests > 0
    return result


# ----------------------------------------------------------------------
# end-to-end determinism and contraction round-trip at scale
# ----------------------------------------------------------------------
#: (family, n) -> (tasks, edges, layers, g-search probes, probes the
#: ``Tact`` bound left to an LPT run, contracted chains, batch-priced
#: ``Tsymb`` cells, predicted makespan) of ``synthesize(family, n, seed=1)``
#: scheduled by the layer-based scheduler on 256 CHiC cores
SCALE_PINS = {
    ("chain", 1_000): (1000, 999, 1, 1, 1, 1, 1, "0x1.cb0f195388d2fp+0"),
    ("chain", 3_000): (3000, 2999, 1, 1, 1, 1, 1, "0x1.64d4bce0c0f7ep+2"),
    ("chain", 10_000): (10000, 9999, 1, 1, 1, 1, 1, "0x1.287558f0f1bffp+4"),
    ("forkjoin", 1_000): (1020, 1949, 61, 991, 146, 29, 31711, "0x1.41793cf2f901ap-3"),
    ("forkjoin", 3_000): (3026, 5784, 179, 2938, 446, 88, 94074, "0x1.cbd782f7dd402p-2"),
    ("forkjoin", 10_000): (10030, 19174, 591, 9736, 1491, 294, 311816,
                           "0x1.5743fab18d6d8p+0"),
    ("layered", 1_000): (1000, 6861, 16, 1000, 170, 0, 36920, "0x1.b81c1fa42c106p-5"),
    ("layered", 3_000): (3000, 21540, 47, 3000, 511, 0, 111000, "0x1.09e6c5b40aa87p-3"),
    ("layered", 10_000): (10000, 72706, 157, 10000, 1699, 0, 369808,
                          "0x1.b2424a01952dap-2"),
    ("random", 1_000): (1000, 1983, 33, 953, 171, 46, 32112, "0x1.c8073525fc9f1p-5"),
    ("random", 3_000): (3000, 5963, 63, 2441, 404, 121, 103246, "0x1.b25f95cc618cfp-4"),
    ("random", 10_000): (10000, 19902, 184, 8320, 1523, 421, 348576,
                         "0x1.8729b41d8d08bp-2"),
}


class TestScaleEndToEnd:
    def test_large_layered_schedule_is_deterministic(self):
        graph = layered_graph(5_000, seed=2)
        fingerprints = []
        for _ in range(2):
            sched = LayerBasedScheduler(CostModel(chic().with_cores(256)))
            res = sched.schedule(graph)
            mk = res.predicted_makespan(sched.cost)
            sizes = [list(l.group_sizes) for l in res.layered.layers]
            fingerprints.append((float(mk).hex(), sizes, res.stats["gsearch_probes"]))
        assert fingerprints[0] == fingerprints[1]

    def test_chain_contraction_roundtrip_makespan(self):
        """Contracted chains expand back to every original task, and the
        contracted schedule's makespan agrees with the uncontracted one
        (same width for every chain member => same total work)."""
        graph = chain_graph(2_000, seed=4)
        cost = CostModel(chic().with_cores(64))
        res_c = LayerBasedScheduler(cost).schedule(graph)
        assert res_c.stats["contracted_chains"] == 1
        scheduled = res_c.scheduled_tasks()
        assert len(scheduled) == len(graph)
        assert {t.name for t in scheduled} == {t.name for t in graph}
        mk_c = res_c.predicted_makespan(cost)
        res_u = LayerBasedScheduler(cost, contract=False).schedule(graph)
        mk_u = res_u.predicted_makespan(cost)
        assert mk_c == pytest.approx(mk_u, rel=1e-9)

    @given(layer_case())
    @settings(max_examples=150, deadline=None)
    def test_schedule_layer_matches_bruteforce_scalar_search(self, case):
        """The bound-ordered g-search decides exactly what the exhaustive
        ascending scan over every candidate decides."""
        tasks, P, assignment, adjust = case
        cost = CostModel(generic_cluster(nodes=P // 4, procs_per_node=2, cores_per_proc=2))
        sched = LayerBasedScheduler(cost, assignment=assignment, adjust=adjust)
        obs = Instrumentation()
        layer, tact = sched.schedule_layer(tasks, obs)
        groups, sizes, ref_tact, candidates = _exhaustive_layer(sched, tasks)
        assert tact == ref_tact
        assert [[t.name for t in grp] for grp in layer.groups] == [
            [t.name for t in grp] for grp in groups
        ]
        assert layer.group_sizes == sizes
        assert obs.counter("gsearch.probes") == candidates
        assert 0 <= obs.counter("gsearch.pruned") <= candidates - 1

    def test_bound_decides_most_probes_of_a_wide_layer(self):
        """The point of the bound: on a layer of comparable tasks only a
        few candidates near the best g still need an LPT run."""
        graph = layered_graph(2_000, seed=1)
        obs = Instrumentation()
        LayerBasedScheduler(CostModel(chic().with_cores(256))).schedule(graph, obs)
        assert obs.counter("gsearch.pruned") > obs.counter("gsearch.probes") // 2

    @pytest.mark.parametrize("family, n", sorted(SCALE_PINS))
    def test_decisions_pinned_at_scale(self, family, n):
        graph = synthesize(family, n, seed=1)
        cost = CachedCostEvaluator(CostModel(chic().with_cores(256)))
        obs = Instrumentation()
        result = LayerBasedScheduler(cost).schedule(graph, obs)
        probes = result.stats["gsearch_probes"]
        lpt_runs = probes - obs.counter("gsearch.pruned")
        assert (
            len(graph),
            graph.num_edges,
            result.stats["layers"],
            probes,
            lpt_runs,
            result.stats["contracted_chains"],
            cost.stats.total_batched,
            result.predicted_makespan(cost).hex(),
        ) == SCALE_PINS[family, n]
        if family == "layered":
            assert 2 * lpt_runs <= probes  # the Tact bound decides most probes

    @given(small_layer_case())
    @settings(max_examples=60, deadline=None)
    def test_chosen_tact_within_sahni_bound_of_optimum(self, case):
        """Oracle: on layers small enough to try every assignment, the
        chosen ``Tact`` is within LPT's 4/3 of the optimum of every ``g``
        that meets the bound's premise -- ``g`` identical groups
        (``g | P``), all of them used (positive estimates)."""
        tasks, P = case
        cost = CostModel(generic_cluster(nodes=P // 4, procs_per_node=2, cores_per_proc=2))
        _layer, tact = LayerBasedScheduler(cost, adjust=False).schedule_layer(tasks)
        for g in range(1, min(P, len(tasks)) + 1):
            if P % g or any(
                t.min_procs > P // g or _width_cost(cost, t, P // g) <= 0 for t in tasks
            ):
                continue
            optimum = _optimal_tact(cost, tasks, equal_partition(P, g))
            # 4e-15: the search keeps an incumbent within its 1e-15 tie margin
            assert tact <= 4.0 / 3.0 * optimum * (1 + 1e-12) + 4e-15, g

    def test_sahni_bound_needs_identical_nonempty_groups(self):
        """The two findings of the oracle recorded in EXPERIMENTS.md: off
        the premise above a latency-bound task (cost *growing* with its
        group's width) ends up 2x and 3x above the best assignment."""
        cost = CostModel(generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2))
        sched = LayerBasedScheduler(cost, adjust=False)
        latency = MTask("latency", comm=(CollectiveSpec("allgather", 0.0),))

        def ratio(tasks):
            _layer, tact = sched.schedule_layer(tasks)
            return tact / min(
                _optimal_tact(cost, tasks, equal_partition(8, g))
                for g in range(1, len(tasks) + 1)
            )

        # 8 = 3 + 3 + 2: LPT hands the longest task to group 0, a wide one
        small = [MTask(f"small{i}", work=1.0) for i in range(2)]
        assert ratio([latency, *small]) == pytest.approx(2.0, rel=1e-3)
        # zero-cost tasks leave a group empty; its cores widen the rest
        idle = [MTask(f"idle{i}") for i in range(2)]
        assert ratio([latency, *idle]) == pytest.approx(3.0)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_predicted_makespan_equals_timeline_on_families(self, family):
        _assert_makespan_matches_timeline(
            synthesize(family, 600, seed=5), chic().with_cores(256)
        )

    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    def test_predicted_makespan_equals_timeline_on_paper_solvers(self, solver):
        _assert_makespan_matches_timeline(
            step_graph(bruss2d(60), PAPER_CONFIGS[solver]), chic().with_cores(64)
        )

    def test_predicted_makespan_equals_timeline_on_adjusted_layer(self):
        """Unequal adjusted group sizes and ``max_procs`` clamps: every
        member is priced at its own clamped width."""
        graph = TaskGraph("one-layer")
        graph.add_tasks(
            MTask(f"w{i}", work=10.0 ** (6 + i % 4), max_procs=(None, 8, 3)[i % 3],
                  comm=(CollectiveSpec("allgather", 1000.0 * (i + 1)),))
            for i in range(11)
        )
        result = _assert_makespan_matches_timeline(graph, chic().with_cores(64))
        (layer,) = result.layered.layers
        assert layer.num_groups > 1 and len(set(layer.group_sizes)) > 1

    def test_scale_smoke_throughput(self):
        """A 20k-task layered DAG schedules end-to-end in bounded time."""
        graph = layered_graph(20_000, seed=1)
        sched = LayerBasedScheduler(CostModel(chic().with_cores(256)))
        t0 = time.perf_counter()
        res = sched.schedule(graph)
        elapsed = time.perf_counter() - t0
        assert res.stats["layers"] > 0
        assert elapsed < 120.0, f"20k-task schedule took {elapsed:.1f}s"
