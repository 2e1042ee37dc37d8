"""Tests of the decide/cost split and the scheduler's behaviour at scale.

Covers the vectorized cost core (``repro.core.costbatch``), the
index-level LPT / deque-based group adjustment, the O(V+E) graph passes
(bulk construction, chain contraction on long chains), the synthetic
generators and the end-to-end determinism of large schedules.  The
central contract is *bit-identity*: every refactored decision path must
reproduce the scalar reference exactly, not approximately.
"""

import hashlib
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import chic, generic_cluster
from repro.core import CachedCostEvaluator, CollectiveSpec, CostModel, MTask, TaskGraph
from repro.core.costbatch import (
    TaskTable,
    stacked_cost_tables,
    symbolic_cost_pairs,
    symbolic_cost_table,
)
from repro.graphs import FAMILIES, chain_graph, fit_to_cores, layered_graph, synthesize
from repro.obs import Instrumentation
from repro.ode import PAPER_CONFIGS, bruss2d, step_graph
from repro.runtime.backends.base import independent_batches
from repro.scheduling import (
    LayerBasedScheduler,
    build_layers,
    contract_chains,
    find_linear_chains,
)
from repro.scheduling import layered as layered_module
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
def mtask(draw, index: int = 0, long_comm: bool = False):
    """One task; with ``long_comm`` some carry 64-96 collectives, as a
    contracted chain does, so a kernel that sums a task's slots in any
    order but the sequential one (``reduce``/``reduceat`` sum pairwise
    past eight terms) gives other bits than the scalar loop."""
    name = f"t{index}_{draw(st.integers(0, 10**6))}"
    work = draw(st.floats(0.0, 1e10, allow_nan=False, allow_infinity=False))
    min_procs = draw(st.integers(1, 16))
    max_procs = draw(st.one_of(st.none(), st.integers(min_procs, 64)))
    slots = st.integers(0, 3)
    if long_comm:
        slots = st.one_of(slots, st.integers(64, 96))
    comm = tuple(
        CollectiveSpec(
            op=draw(st.sampled_from(_OPS)),
            total_elements=draw(st.floats(0.0, 1e7, allow_nan=False)),
            count=float(draw(st.integers(0, 5))),
            scope=draw(st.sampled_from(_SCOPES)),
            task_parallel_only=draw(st.booleans()),
        )
        for _ in range(draw(slots))
    )
    return MTask(name=name, work=work, comm=comm,
                 min_procs=min_procs, max_procs=max_procs)


@st.composite
def tasks_widths_platform(draw):
    tasks = [draw(mtask(i, long_comm=True)) for i in range(draw(st.integers(1, 8)))]
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

    @given(tasks_widths_platform(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_stacked_tables_equal_their_own_tables(self, twp, data):
        """Requests priced together (consecutive task lists, each with its
        own widths) get bitwise the tables they get priced alone."""
        tasks, widths, platform = twp
        model = CostModel(platform)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(tasks)), max_size=3)) | {len(tasks)})
        requests, lo = [], 0
        for hi in cuts:
            picked = data.draw(st.lists(st.sampled_from(widths), min_size=1, unique=True))
            requests.append((tasks[lo:hi], sorted(picked)))
            lo = hi
        stacked = stacked_cost_tables(model.tsymb_table, requests)
        alone = [model.tsymb_table(ts, ws) for ts, ws in requests]
        assert [t.tolist() for t in stacked] == [t.tolist() for t in alone]

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
    group sizes from :func:`adjust_groups` (widths that are columns of
    no g-search table), some tasks contracted chains to be expanded."""
    tasks, _widths, platform = draw(tasks_widths_platform())
    cores = platform.total_cores
    tasks = [replace(t, min_procs=1, max_procs=draw(st.one_of(
        st.none(), st.integers(1, 2 * cores)))) for t in tasks]
    g = draw(st.integers(1, min(len(tasks), cores)))
    groups = [tasks[i::g] for i in range(g)]
    sizes = adjust_groups(groups, lambda t: t.work + 1.0, cores)
    expansion = {}
    for i, t in enumerate(tasks):
        k = draw(st.integers(0, 3))
        if k >= 2:  # a contracted chain of k members, priced one by one
            expansion[t] = [draw(mtask(100 * i + j, long_comm=True)) for j in range(k)]
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


class TestTaskTable:
    """Row views of one table price exactly as the task lists they stand
    for, and contraction's derived rows as a table of the contracted
    tasks built from scratch."""

    @given(tasks_widths_platform(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_views_price_as_their_task_lists(self, twp, data):
        tasks, widths, platform = twp
        model = CostModel(platform)
        table = TaskTable.of(tasks)
        lo = data.draw(st.integers(0, len(tasks) - 1))
        hi = data.draw(st.integers(lo + 1, len(tasks)))
        rows = data.draw(st.lists(st.integers(0, len(tasks) - 1), min_size=1))
        for view, listed in (
            (table[lo:hi], tasks[lo:hi]),
            (table.take(rows), [tasks[i] for i in rows]),
        ):
            assert list(view) == listed
            assert (
                symbolic_cost_table(model, view, widths).tolist()
                == symbolic_cost_table(model, listed, widths).tolist()
            )
            q = [widths[i % len(widths)] for i in range(len(listed))]
            q = [t.clamp_procs(max(w, t.min_procs)) for t, w in zip(listed, q)]
            assert symbolic_cost_pairs(model, view, q).tolist() == [
                model.tsymb(t, w) for t, w in zip(listed, q)
            ]

    @pytest.mark.parametrize("family", ["chain", "forkjoin", "random"])
    def test_contracted_rows_equal_a_fresh_table(self, family):
        graph = synthesize(family, 400, seed=3)
        work_graph, expansion = contract_chains(graph)
        assert expansion
        tasks = [t for layer in build_layers(work_graph) for t in layer]
        table = TaskTable.of(m for t in tasks for m in expansion.get(t, (t,)))
        derived = table.chained(tasks, expansion)
        fresh = TaskTable.of(tasks)
        assert list(derived) == tasks
        for column in ("work", "min_procs", "max_procs", "nslots"):
            assert getattr(derived, column).tolist() == getattr(fresh, column).tolist()
        assert derived.cls is table.cls  # no entry copied
        model = CostModel(chic().with_cores(256))
        widths = [1, 3, 16, 85, 256]
        assert (
            symbolic_cost_table(model, derived, widths).tolist()
            == symbolic_cost_table(model, fresh, widths).tolist()
        )

    def test_consecutive_slices_concatenate_to_a_slice(self):
        table = TaskTable.of(MTask(f"t{i}", work=float(i)) for i in range(10))
        joined = TaskTable.concat([table[2:4], table[4:7], table[7:7], table[7:9]])
        assert joined._base is table and joined._start == 2
        assert [t.name for t in joined] == [f"t{i}" for i in range(2, 9)]
        gathered = TaskTable.concat([table[2:4], table.take([0, 1])])
        assert [t.name for t in gathered] == ["t2", "t3", "t0", "t1"]


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
    """Tasks with times that tie (drawn from a small pool) or are zero,
    dealt to up to ``n + 4`` groups, so the ``g``-th largest time is
    sometimes positive (the first ``g`` tasks are handed out directly),
    sometimes zero and sometimes missing (more groups than tasks)."""
    n = draw(st.integers(1, 24))
    tasks = [
        MTask(f"t{i}", work=draw(st.floats(0.0, 1e9, allow_nan=False)))
        for i in range(n)
    ]
    pool = draw(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=3))
    times = [
        draw(st.one_of(st.just(0.0), st.sampled_from(pool), st.floats(0.0, 1e3, allow_nan=False)))
        for _ in range(n)
    ]
    g = draw(st.integers(1, n + 4))
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
    return [[tasks[i] for i in grp] for grp in lpt_assign_indices(order, times, g)[0]]


def adjust_groups(groups, seq_work, total_cores):
    """:func:`adjust_group_sizes` over task groups: each group's
    ``seq_work`` summed in group order, and its largest ``min_procs``."""
    return adjust_group_sizes(
        [sum(seq_work(t) for t in grp) for grp in groups],
        [max((t.min_procs for t in grp), default=1) for grp in groups],
        total_cores,
    )


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
        idx_groups, loads = lpt_assign_indices(order, tvals, g)
        task_groups = lpt_assign(tasks, times.__getitem__, g)
        assert [[tasks[i] for i in grp] for grp in idx_groups] == task_groups
        # the loads LPT returns are the group sums the g-search would
        # otherwise take again, bit for bit
        assert [x.hex() for x in loads] == [
            float(sum(tvals[i] for i in grp)).hex() for grp in idx_groups
        ]

    @pytest.mark.parametrize(
        "times, g",
        [
            ([5.0, 3.0, 3.0, 1.0, 1.0], 3),  # g-th largest positive: direct
            ([5.0, 0.0, 0.0, 3.0], 3),  # g-th largest zero: heap from it
            ([0.0, 0.0, 0.0], 2),  # nothing positive: all through the heap
            ([2.0, 2.0], 5),  # more groups than tasks
            ([0.0, 1.0], 4),  # more groups than tasks, zero first
        ],
    )
    def test_direct_hand_out_matches_scan_reference(self, times, g):
        """Both sides of the direct hand-out of the first ``g`` tasks."""
        tasks = [MTask(f"t{i}") for i in range(len(times))]
        time_of = dict(zip(tasks, times)).__getitem__
        assert lpt_assign(tasks, time_of, g) == _lpt_reference(tasks, time_of, g)

    @given(adjust_case())
    @settings(max_examples=300, deadline=None)
    def test_deque_adjust_matches_multipass_reference(self, case):
        groups, total = case
        seq_work = lambda t: t.work / 1e9
        assert adjust_groups(groups, seq_work, total) == _adjust_reference(
            groups, seq_work, total
        )

    def test_floors_length_validated(self):
        with pytest.raises(ValueError, match="floors has 1 entries for 2 groups"):
            adjust_group_sizes([1.0, 2.0], [1], 8)


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

    def test_contraction_shares_flows_and_checks_names(self):
        """The contracted rows keep every crossing edge's own flow list
        (the same object, in the parent's edge order), and a chain node
        whose name a task already has is rejected."""
        graph = synthesize("forkjoin", 300, seed=1)
        contracted, expansion = contract_chains(graph)
        node_of = {m: node for node, members in expansion.items() for m in members}
        crossing = [
            (node_of.get(u, u), node_of.get(v, v), flows)
            for u, v, flows in graph.edges()
            if node_of.get(u, u) is not node_of.get(v, v)
        ]
        assert [(u, v) for u, v, _ in contracted.edges()] == [(u, v) for u, v, _ in crossing]
        assert all(f is g for (*_, f), (*_, g) in zip(contracted.edges(), crossing))
        a, b = MTask("a"), MTask("b")
        clash = TaskGraph("clash")
        clash.add_tasks([a, b, MTask("chain[a..b:2]")])
        clash.add_edges_bulk([(a, b, ())])
        with pytest.raises(ValueError, match=r"duplicate task name 'chain\[a..b:2\]'"):
            contract_chains(clash)

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
def _graph_digest(graph):
    """sha256 over everything a generator draws: task names, work (as
    ``float.hex``), bounds and collectives, every edge with its flows, and
    the topological order."""
    h = hashlib.sha256()
    for t in graph:
        comm = [(c.op, c.total_elements.hex(), c.itemsize, c.count.hex(), c.scope,
                 c.task_parallel_only) for c in t.comm]
        h.update(repr((t.name, t.work.hex(), t.min_procs, t.max_procs, comm)).encode())
    for u, v, flows in graph.edges():
        flows = [(f.var, f.elements, f.itemsize, f.src_dist, f.dst_dist) for f in flows]
        h.update(repr((u.name, v.name, flows)).encode())
    h.update(repr([t.name for t in graph.topological_order()]).encode())
    return h.hexdigest()


#: ``_graph_digest(synthesize(family, 300, seed=seed))``: a generator
#: rewritten for speed must keep its RNG stream, so these never move
GENERATOR_PINS = {
    ("chain", 0): "23dcd298a3b53c3081adeb4fcb47c920e56e148965d1f98bdddf20a81ef36d6e",
    ("chain", 1): "9a6bd81fbe04832f6fa14ea64f14df00d664b9767470c5231e1e9730cc35d4c4",
    ("chain", 2): "62b218a282fdfc8c5eca5e6eec1a9f12eaa2e55258889690f4878ec90ea4a6e9",
    ("forkjoin", 0): "cc330ab07b5602f3a165f6e12becc1189b8b879ff51d37895a2f775428746a95",
    ("forkjoin", 1): "bc67b33e5c13a029d4d56979b6c169dce74734ab597f331f7b22e4b298c1c7a1",
    ("forkjoin", 2): "b3de178bcaa943c98bed71245ad2d345d41e3cab0934a87abe3d065546200a30",
    ("layered", 0): "229cadf33e411ee6a410da94b7e9d27e4bf4bacaeaa862bc3772677bb293accf",
    ("layered", 1): "4233715e82e44f12c4b4bf2c358503e55c1b7a39ae77eebf6711100e752e33ef",
    ("layered", 2): "7358205198916b43b03f3fa62e4488a7a9eb5e0d44f0f6ba23148a14c333ab5b",
    ("random", 0): "1db2c87c8b1243966ad8cd0a8ef97558bcbc60d88659c18a563f38d697eef0b3",
    ("random", 1): "75951786b1837df08d26d2bae5ac5470ec3ae9d755bf54913923567286e11039",
    ("random", 2): "4f1842e23f33e89d59811bd29536b5167d1257bfe4dd3ab581e431b969ad3175",
}


class TestGenerators:
    @pytest.mark.parametrize("family, seed", sorted(GENERATOR_PINS))
    def test_output_pinned(self, family, seed):
        assert _graph_digest(synthesize(family, 300, seed=seed)) == GENERATOR_PINS[family, seed]

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
        sizes = adjust_groups(groups, cost.sequential_time, P)
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


class TestChunkedPricing:
    """``_plan`` prices consecutive layers in one table call; what it
    decides and counts is what ``schedule_layer`` decides and counts
    layer by layer -- whether every layer is priced alone (a one-cell
    budget), in chunks (the default) or all at once."""

    @pytest.mark.parametrize("budget", [1, layered_module.PRICE_CELLS, 10**9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_plan_matches_layer_by_layer(self, family, seed, budget, monkeypatch):
        monkeypatch.setattr(layered_module, "PRICE_CELLS", budget)
        graph = synthesize(family, 300, seed=seed)
        platform = chic().with_cores(256)
        plan_cost, plan_obs = CachedCostEvaluator(CostModel(platform)), Instrumentation()
        result = LayerBasedScheduler(plan_cost).schedule(graph, plan_obs)
        layer_cost, layer_obs = CachedCostEvaluator(CostModel(platform)), Instrumentation()
        sched = LayerBasedScheduler(layer_cost)
        ref = [
            sched.schedule_layer(tasks, layer_obs)
            for tasks in build_layers(contract_chains(graph)[0])
        ]

        def shape(layer):
            return [[t.name for t in grp] for grp in layer.groups], layer.group_sizes

        assert [shape(l) for l in result.layered.layers] == [shape(l) for l, _ in ref]
        assert [r["tact"].hex() for r in plan_obs.records_of("layer")] == [
            tact.hex() for _, tact in ref
        ]

        def gsearch(obs):
            return {k: v for k, v in obs.counters.items() if k.startswith("gsearch.")}

        assert gsearch(plan_obs) == gsearch(layer_obs)
        assert plan_cost.stats.total_batched == layer_cost.stats.total_batched
        assert plan_cost.stats == layer_cost.stats

    def test_infeasible_layer_raises_in_turn(self):
        """A layer no ``g`` fits ends the chunk before it; the search
        raises on it after deciding the layers before it."""
        a, b, c, d = (MTask(x, work=1e8) for x in "abcd")
        wide = MTask("wide", work=1e8, min_procs=64)
        graph = TaskGraph("infeasible")
        graph.add_tasks((a, b, c, d, wide))
        graph.add_edges_bulk([(a, c, ()), (b, c, ()), (c, wide, ()), (d, wide, ())])
        obs = Instrumentation()
        platform = generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)
        sched = LayerBasedScheduler(CostModel(platform))
        with pytest.raises(ValueError, match=r"no feasible group count for layer \[wide\] on 16"):
            sched.schedule(graph, obs)
        assert [r["tasks"] for r in obs.records_of("layer")] == [3, 1]


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

    def test_schedule_sees_bounds_fitted_in_place(self):
        """Nothing keeps a graph's cost columns across ``schedule()`` calls:
        after ``fit_to_cores`` rewrites the bounds in place, scheduling
        the graph again decides what scheduling a freshly fitted copy
        decides."""
        cost = CachedCostEvaluator(CostModel(chic().with_cores(64)))

        def fingerprint(graph):
            result = LayerBasedScheduler(cost).schedule(graph)
            return (
                [
                    ([[t.name for t in grp] for grp in layer.groups], layer.group_sizes)
                    for layer in result.layered.layers
                ],
                result.predicted_makespan(cost).hex(),
            )

        graph = synthesize("random", 300, seed=2)
        before = fingerprint(graph)
        fit_to_cores(graph, 2)
        after = fingerprint(graph)
        assert after != before  # the fit changed the decisions
        assert after == fingerprint(fit_to_cores(synthesize("random", 300, seed=2), 2))

    def test_scale_smoke_throughput(self):
        """A 20k-task layered DAG schedules end-to-end in bounded time."""
        graph = layered_graph(20_000, seed=1)
        sched = LayerBasedScheduler(CostModel(chic().with_cores(256)))
        t0 = time.perf_counter()
        res = sched.schedule(graph)
        elapsed = time.perf_counter() - t0
        assert res.stats["layers"] > 0
        assert elapsed < 120.0, f"20k-task schedule took {elapsed:.1f}s"
