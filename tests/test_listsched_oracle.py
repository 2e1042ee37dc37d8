"""The scheduler zoo's one dispatch loop against the loops it replaced.

``list_schedule`` keeps its ready set in a heap and takes its priority
as an argument, and AMTHA dispatches through it under a
communication-inclusive bottom level.  Two earlier loops are kept here
verbatim as oracles: the list scheduler that rescanned every pending
task on each dispatch (``_reference_list_schedule``, with the ``max``
form of the bottom levels) and AMTHA's own rank-and-heap loop
(``_reference_amtha``).  Every timeline must match theirs entry by entry
-- dispatch order, floats by ``.hex()``, the same cores -- and so must
the cost evaluator's counters.
"""

import heapq
import random
from dataclasses import replace as replace_entry
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import chic
from repro.core import CachedCostEvaluator, CostModel, DistributionSpec, TaskGraph
from repro.core.schedule import Schedule, ScheduledTask
from repro.graphs import synthesize
from repro.obs import Instrumentation
from repro.ode import PAPER_CONFIGS, bruss2d, step_graph
from repro.scheduling import (
    AMTHAScheduler,
    CPAScheduler,
    CPRScheduler,
    bottom_levels,
    cpa,
    cpr,
)


# ----------------------------------------------------------------------
# the oracles: the loops ``list_schedule`` replaced
# ----------------------------------------------------------------------
def _reference_bottom_levels(graph, times):
    bl = {}
    for t in reversed(graph.topological_order()):
        succ = graph.successors(t)
        bl[t] = times[t] + (max(bl[s] for s in succ) if succ else 0.0)
    return bl


def _reference_list_schedule(graph, alloc, cost, include_redistribution=True):
    """List scheduling that rescans every pending task per dispatch."""
    P = cost.platform.total_cores
    times = {t: cost.tsymb(t, alloc[t]) for t in graph}
    bl = _reference_bottom_levels(graph, times)

    avail = [0.0] * P  # per symbolic core: time it becomes free
    finish = {}
    cores_of = {}
    scheduled = set()
    schedule = Schedule(P)

    pending = set(graph)
    while pending:
        ready = [
            t for t in pending if all(p in scheduled for p in graph.predecessors(t))
        ]
        if not ready:
            raise AssertionError("dependency deadlock in list scheduling")
        # highest bottom level first; name breaks ties deterministically
        t = min(ready, key=lambda x: (-bl[x], x.name))
        q = alloc[t]
        if not 1 <= q <= P:
            raise ValueError(f"allocation of {t.name!r} is {q}, outside [1, {P}]")
        # the q cores that free up earliest
        order = sorted(range(P), key=lambda c: (avail[c], c))
        chosen = tuple(sorted(order[:q]))
        core_ready = max(avail[c] for c in chosen)
        data_ready = 0.0
        for p in graph.predecessors(t):
            arrival = finish[p]
            if include_redistribution and set(cores_of[p]) != set(chosen):
                flows = graph.flows(p, t)
                arrival += cost.redistribution_time_symbolic(flows, alloc[p], q)
            data_ready = max(data_ready, arrival)
        start = max(core_ready, data_ready)
        end = start + times[t]
        for c in chosen:
            avail[c] = end
        finish[t] = end
        cores_of[t] = chosen
        schedule.add(ScheduledTask(t, start, end, chosen))
        scheduled.add(t)
        pending.discard(t)
    return schedule


def _reference_amtha(graph, cost, obs):
    """AMTHA's own rank and dispatch loop, every task at ``min_procs``."""
    P = cost.platform.total_cores
    widths = {t: t.min_procs for t in graph}
    times = {t: cost.tsymb(t, widths[t]) for t in graph}
    rank = {}
    for t in reversed(graph.topological_order()):
        tail = 0.0
        for s in graph.successors(t):
            comm = cost.redistribution_time_symbolic(
                graph.flows(t, s), widths[t], widths[s]
            )
            tail = max(tail, comm + rank[s])
        rank[t] = times[t] + tail

    avail = [0.0] * P  # per symbolic core: time it becomes free
    finish = {}
    cores_of = {}
    schedule = Schedule(P)

    remaining = {t: len(graph.predecessors(t)) for t in graph}
    # max-heap on rank; the name tie-break keeps dispatch deterministic
    ready = [(-rank[t], t.name, t) for t, deg in remaining.items() if deg == 0]
    heapq.heapify(ready)
    while ready:
        _, _, t = heapq.heappop(ready)
        q = widths[t]
        order = sorted(range(P), key=lambda c: (avail[c], c))
        chosen = tuple(sorted(order[:q]))
        core_ready = max(avail[c] for c in chosen)
        data_ready = 0.0
        for p in graph.predecessors(t):
            arrival = finish[p]
            if set(cores_of[p]) != set(chosen):
                arrival += cost.redistribution_time_symbolic(
                    graph.flows(p, t), widths[p], q
                )
            data_ready = max(data_ready, arrival)
        start = max(core_ready, data_ready)
        end = start + times[t]
        for c in chosen:
            avail[c] = end
        finish[t] = end
        cores_of[t] = chosen
        schedule.add(ScheduledTask(t, start, end, chosen))
        obs.count("amtha.dispatched")
        for s in graph.successors(t):
            remaining[s] -= 1
            if remaining[s] == 0:
                heapq.heappush(ready, (-rank[s], s.name, s))
    return schedule


def _entries(schedule):
    """The timeline in dispatch order, floats by ``.hex()``."""
    return [
        (e.task.name, e.start.hex(), e.finish.hex(), e.cores)
        for e in schedule.entries
    ]


# ----------------------------------------------------------------------
# cases: synthetic families with re-distributed flows, and ties
# ----------------------------------------------------------------------
#: widths above ten make names sort differently from insertion order
FAMILY_KWARGS = {
    "chain": {},
    "forkjoin": {"width": 12},
    "layered": {"width": 12, "edge_density": 0.2},
    "random": {},
}
DISTS = (
    DistributionSpec("replic"),
    DistributionSpec("block"),
    DistributionSpec("cyclic"),
    DistributionSpec("blockcyclic", block_size=16),
)
CORES = (16, 64)


@st.composite
def cases(draw):
    """A synthetic graph and its CHiC partition.

    The generators' flows are replicated on both sides and cost nothing
    to re-distribute, so every flow gets a layout pair.  With ``ties``
    every task does the same work and no collective, so equal
    priorities are common and the name tie-break decides.
    """
    family = draw(st.sampled_from(sorted(FAMILY_KWARGS)))
    n = draw(st.integers(min_value=5, max_value=80))
    seed = draw(st.integers(0, 10**6))
    cores = draw(st.sampled_from(CORES))
    ties = draw(st.booleans())
    drawn = synthesize(family, n, seed=seed, cores=cores, **FAMILY_KWARGS[family])
    rng = random.Random(seed)
    twin = {t: replace_entry(t, work=1e9, comm=()) if ties else t for t in drawn}
    graph = TaskGraph(drawn.name)
    graph.add_tasks([twin[t] for t in drawn])
    graph.add_edges_bulk(
        (
            twin[u],
            twin[v],
            [
                replace_entry(f, src_dist=rng.choice(DISTS), dst_dist=rng.choice(DISTS))
                for f in flows
            ],
        )
        for u, v, flows in drawn.edges()
    )
    return graph, chic().with_cores(cores)


def _fresh(platform):
    return CachedCostEvaluator(CostModel(platform))


#: CPR re-runs the list schedule once per widening attempt; a bounded
#: budget keeps every case to a few dozen dispatch loops
CPR_INCREMENTS = 12

ZOO = {
    "cpa": (cpa, lambda cost: CPAScheduler(cost)),
    "cpr": (cpr, lambda cost: CPRScheduler(cost, max_increments=CPR_INCREMENTS)),
}


def assert_zoo_matches_scan(name, graph, platform):
    """``name`` scheduled through ``list_schedule`` and through the scan
    reference: equal timelines, allocations and cost counters."""
    module, make = ZOO[name]
    new_cost, old_cost = _fresh(platform), _fresh(platform)
    new = make(new_cost).schedule(graph)
    with mock.patch.object(module, "list_schedule", _reference_list_schedule):
        old = make(old_cost).schedule(graph)
    assert _entries(new.timeline) == _entries(old.timeline)
    assert new.allocation == old.allocation
    assert new_cost.stats == old_cost.stats


def assert_amtha_matches_reference(graph, platform):
    """AMTHA through ``list_schedule`` against its own loop: equal
    timelines, cost counters and ``amtha.dispatched``."""
    new_cost, old_cost = _fresh(platform), _fresh(platform)
    new_obs, old_obs = Instrumentation(), Instrumentation()
    new = AMTHAScheduler(new_cost).schedule(graph, new_obs)
    old = _reference_amtha(graph, old_cost, old_obs)
    assert _entries(new.timeline) == _entries(old)
    assert new_cost.stats == old_cost.stats
    assert new_obs.counter("amtha.dispatched") == old_obs.counter("amtha.dispatched")
    assert new_obs.counter("amtha.dispatched") == len(graph)


class TestAgainstReference:
    @given(case=cases(), name=st.sampled_from(sorted(ZOO)))
    @settings(max_examples=100, deadline=None)
    def test_cpa_family_matches_scan(self, case, name):
        graph, platform = case
        assert_zoo_matches_scan(name, graph, platform)

    @given(case=cases())
    @settings(max_examples=100, deadline=None)
    def test_amtha_matches_its_dispatch_loop(self, case):
        graph, platform = case
        assert_amtha_matches_reference(graph, platform)

    @given(case=cases(), scale=st.sampled_from([1.0, 1e-3, 0.0]))
    @settings(max_examples=100, deadline=None)
    def test_bottom_levels_match_max_form(self, case, scale):
        graph, platform = case
        cost = CostModel(platform)
        times = {t: scale * cost.tsymb(t, t.min_procs) for t in graph}
        new = bottom_levels(graph, times)
        old = _reference_bottom_levels(graph, times)
        assert list(new) == list(old)
        assert {t: v.hex() for t, v in new.items()} == {
            t: v.hex() for t, v in old.items()
        }


@pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
def test_paper_solvers_match_references(solver):
    """The five solver steps: symmetric stages, so ties abound."""
    graph = step_graph(bruss2d(60), PAPER_CONFIGS[solver])
    platform = chic().with_cores(64)
    assert_amtha_matches_reference(graph, platform)
    for name in sorted(ZOO):
        assert_zoo_matches_scan(name, graph, platform)
