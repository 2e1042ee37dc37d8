"""Mapped collective prices against the edge-list engine they replaced.

``repro.comm.collectives.collective_time`` prices every collective -- one
group or several concurrent groups, under a given NIC load or none -- as
rounds of rank arrays through ``edge_costs``.  Before it, a second engine
priced one group at a time from Python ``(CoreId, CoreId)`` edge lists,
a scalar ``edge_cost`` per edge and a dict-valued ``ContentionContext``.
That engine is kept here verbatim as the oracle.  Several concurrent
groups are referred to it as the slowest group under the context of the
rounds that load the NICs while all groups run (``shared_context``).
Every price must match it by ``.hex()``: the collectives alone and
``tcomm_mapped`` of the five paper solvers (pure MPI and, on DIIRK,
hybrid) on the requests a simulation makes.

The two engines chose different rounds to load the NICs when no load is
given (EXPERIMENTS.md, "Mapped collectives: which rounds load the
NICs"): one group priced alone loads them with every binomial round of
bcast / reduce and with the ring of allreduce; several groups at once
with the last binomial round and with nothing.  Both choices are kept.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import ceil, log2
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, chic
from repro.cluster.architecture import LEVEL_NETWORK, LEVEL_NODE, LEVEL_PROCESSOR, CoreId
from repro.cluster.network import HierarchicalNetwork
from repro.comm import collectives, orthogonal_sets
from repro.core import CachedCostEvaluator, CostModel
from repro.experiments.common import paper_group_count
from repro.hybrid import HybridCostModel
from repro.hybrid.model import process_leaders
from repro.mapping import consecutive, place_result
from repro.ode import PAPER_CONFIGS, bruss2d, step_graph
from repro.scheduling import fixed_group_scheduler
from repro.sim import simulate

Edge = Tuple[CoreId, CoreId]


# ----------------------------------------------------------------------
# the oracle: the edge-list engine, verbatim
# ----------------------------------------------------------------------
def comm_level(a: CoreId, b: CoreId) -> int:
    """Communication level between two cores (a self-message is level 0)."""
    if a.node != b.node:
        return LEVEL_NETWORK
    if a.proc != b.proc:
        return LEVEL_NODE
    return LEVEL_PROCESSOR


@dataclass(frozen=True)
class ContentionContext:
    """Concurrent inter-node message counts per node for one phase."""

    out_per_node: Dict[int, int] = field(default_factory=dict)
    in_per_node: Dict[int, int] = field(default_factory=dict)

    def out_count(self, node: int) -> int:
        """Concurrent outgoing transfers at ``node`` (at least 1)."""
        return max(1, self.out_per_node.get(node, 0))

    def in_count(self, node: int) -> int:
        """Concurrent incoming transfers at ``node`` (at least 1)."""
        return max(1, self.in_per_node.get(node, 0))

    @staticmethod
    def none() -> "ContentionContext":
        """Context with no contention (every count treated as one)."""
        return ContentionContext()

    @staticmethod
    def from_counts(out: np.ndarray, inc: np.ndarray) -> "ContentionContext":
        """Context from per-node count arrays (see :func:`node_counts`)."""
        return ContentionContext(
            out_per_node={int(n): int(out[n]) for n in np.flatnonzero(out)},
            in_per_node={int(n): int(inc[n]) for n in np.flatnonzero(inc)},
        )

    def counts(self, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(out_count, in_count)`` of nodes ``0..num_nodes-1`` as arrays,
        the form :func:`edge_costs` takes."""

        def dense(per_node: Dict[int, int]) -> np.ndarray:
            table = np.ones(num_nodes, dtype=np.intp)
            if per_node:
                table[list(per_node)] = np.maximum(list(per_node.values()), 1)
            return table

        return dense(self.out_per_node), dense(self.in_per_node)


def build_context(machine: Machine, edge_lists: Iterable[Sequence[Edge]]) -> ContentionContext:
    """Aggregate the inter-node edges of several concurrent rounds.

    ``edge_lists`` contains, for every collective running concurrently in
    the phase, the edges of one of its rounds.  Only inter-node edges
    contribute to contention.
    """
    out: Counter = Counter()
    inc: Counter = Counter()
    for edges in edge_lists:
        for u, v in edges:
            if comm_level(u, v) == LEVEL_NETWORK:
                out[u.node] += 1
                inc[v.node] += 1
    return ContentionContext(out_per_node=dict(out), in_per_node=dict(inc))


def edge_cost(
    machine: Machine,
    network: HierarchicalNetwork,
    u: CoreId,
    v: CoreId,
    nbytes: float,
    ctx: ContentionContext,
) -> float:
    """Cost of one ``nbytes`` message from core ``u`` to core ``v``.

    A self-message (``u == v``) is free: the data is already local.
    """
    if u == v:
        return 0.0
    lvl = comm_level(u, v)
    link = network.level(lvl)
    if lvl < LEVEL_NETWORK:
        return link.latency + nbytes * link.beta
    # inter-node: share the NIC among the phase's concurrent messages
    per_byte = max(
        link.beta,
        ctx.out_count(u.node) / network.nic_bandwidth,
        ctx.in_count(v.node) / network.nic_bandwidth,
    )
    return link.latency + nbytes * per_byte


def round_cost(
    machine: Machine,
    network: HierarchicalNetwork,
    edges: Sequence[Edge],
    nbytes: float,
    ctx: ContentionContext,
) -> float:
    """Duration of one communication round: all edges fire concurrently,
    the round ends when the slowest edge completes."""
    if not edges:
        return 0.0
    return max(edge_cost(machine, network, u, v, nbytes, ctx) for u, v in edges)


# ----------------------------------------------------------------------
# Round/edge construction
# ----------------------------------------------------------------------
def ring_edges(group: Sequence[CoreId]) -> List[Edge]:
    """Edges of one ring round: rank ``i`` sends to rank ``i + 1 mod q``."""
    q = len(group)
    if q < 2:
        return []
    return [(group[i], group[(i + 1) % q]) for i in range(q)]


def binomial_rounds(group: Sequence[CoreId]) -> List[List[Edge]]:
    """Rounds of a binomial broadcast tree rooted at rank 0."""
    q = len(group)
    rounds: List[List[Edge]] = []
    span = 1
    while span < q:
        edges = [
            (group[i], group[i + span]) for i in range(span) if i + span < q
        ]
        rounds.append(edges)
        span *= 2
    return rounds


def alltoall_rounds(group: Sequence[CoreId]) -> List[List[Edge]]:
    """Shifted pairwise exchange: round ``r`` sends rank ``i`` -> ``i+r``."""
    q = len(group)
    return [
        [(group[i], group[(i + r) % q]) for i in range(q)] for r in range(1, q)
    ]


def _default_ctx(machine: Machine, edges: Sequence[Edge], ctx: Optional[ContentionContext]) -> ContentionContext:
    return ctx if ctx is not None else build_context(machine, [edges])


# ----------------------------------------------------------------------
# Mapped collective costs
# ----------------------------------------------------------------------
def allgather_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Ring ``MPI_Allgather`` of a ``total_bytes`` result (each rank
    contributes ``total_bytes / q``)."""
    q = len(group)
    if q < 2:
        return 0.0
    chunk = total_bytes / q
    edges = ring_edges(group)
    ctx = _default_ctx(machine, edges, ctx)
    return (q - 1) * round_cost(machine, network, edges, chunk, ctx)


def bcast_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Binomial-tree ``MPI_Bcast`` of ``total_bytes`` from rank 0."""
    q = len(group)
    if q < 2:
        return 0.0
    rounds = binomial_rounds(group)
    if ctx is None:
        ctx = build_context(machine, rounds)
    return sum(round_cost(machine, network, e, total_bytes, ctx) for e in rounds)


def reduce_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Binomial-tree ``MPI_Reduce``; same communication shape as bcast."""
    return bcast_time(machine, network, group, total_bytes, ctx)


def allreduce_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Rabenseifner-style allreduce: reduce-scatter + allgather rings."""
    return 2.0 * allgather_time(machine, network, group, total_bytes, ctx)


def scatter_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Linear ``MPI_Scatter`` serialised at root (rank 0)."""
    q = len(group)
    if q < 2:
        return 0.0
    chunk = total_bytes / q
    root = group[0]
    ctx = ctx or ContentionContext.none()
    total = 0.0
    for dst in group[1:]:
        lvl = comm_level(root, dst)
        link = network.level(lvl)
        total += link.latency + chunk * link.beta
    return total


def gather_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Linear ``MPI_Gather``; mirror image of scatter."""
    return scatter_time(machine, network, group, total_bytes, ctx)


def alltoall_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Pairwise-exchange ``MPI_Alltoall``; each rank sends ``n/q`` to each
    other rank."""
    q = len(group)
    if q < 2:
        return 0.0
    chunk = total_bytes / q
    rounds = alltoall_rounds(group)
    if ctx is None:
        ctx = build_context(machine, rounds[:1])
    return sum(round_cost(machine, network, e, chunk, ctx) for e in rounds)


def ptp_time(
    machine: Machine,
    network: HierarchicalNetwork,
    src: CoreId,
    dst: CoreId,
    nbytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """A single point-to-point message."""
    return edge_cost(machine, network, src, dst, nbytes, ctx or ContentionContext.none())


def barrier_time(
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float = 0.0,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Dissemination barrier: ``ceil(log2 q)`` latency-bound rounds."""
    q = len(group)
    if q < 2:
        return 0.0
    worst = max(
        comm_level(group[0], c) for c in group[1:]
    )
    return ceil(log2(q)) * 2.0 * network.alpha(worst)


_MAPPED = {
    "allgather": allgather_time,
    "bcast": bcast_time,
    "reduce": reduce_time,
    "allreduce": allreduce_time,
    "scatter": scatter_time,
    "gather": gather_time,
    "alltoall": alltoall_time,
    "barrier": barrier_time,
}


def collective_time(
    op: str,
    machine: Machine,
    network: HierarchicalNetwork,
    group: Sequence[CoreId],
    total_bytes: float,
    ctx: Optional[ContentionContext] = None,
) -> float:
    """Dispatch a collective cost by operation name.

    ``ptp`` interprets the first two group members as source/destination.
    """
    if op == "ptp":
        if len(group) < 2:
            return 0.0
        return ptp_time(machine, network, group[0], group[1], total_bytes, ctx)
    try:
        fn = _MAPPED[op]
    except KeyError:
        raise ValueError(f"unknown collective op {op!r}") from None
    return fn(machine, network, group, total_bytes, ctx)


def shared_context(machine, op, groups):
    """The round of every group that loads the NICs while all of them run
    ``op`` at once (Fig. 14 right)."""
    if op == "allgather":
        edges = [ring_edges(g) for g in groups]
    elif op in ("bcast", "reduce"):
        edges = [binomial_rounds(g)[-1] if len(g) > 1 else [] for g in groups]
    elif op == "alltoall":
        edges = [alltoall_rounds(g)[0] if len(g) > 1 else [] for g in groups]
    else:
        edges = []
    return build_context(machine, edges)


def concurrent_time(op, machine, network, groups, total_bytes):
    """Several groups running ``op`` at once: the slowest group under the
    shared context."""
    ctx = shared_context(machine, op, groups)
    return max(collective_time(op, machine, network, g, total_bytes, ctx) for g in groups)


def reference_time(op, machine, network, groups, total_bytes, load=None):
    """``collectives.collective_time`` by the edge-list engine."""
    if load is None and len(groups) > 1:
        return concurrent_time(op, machine, network, groups, total_bytes)
    ctx = None if load is None else ContentionContext.from_counts(*load)
    return max(
        (collective_time(op, machine, network, g, total_bytes, ctx) for g in groups),
        default=0.0,
    )


def reference_tcomm_mapped(
    model, task, cores, ctx=None, peer_groups=None, all_cores=None, task_parallel_program=None
):
    """``CostModel.tcomm_mapped`` on the edge-list engine."""
    machine = model.platform.machine
    network = model.platform.network
    if all_cores is None:
        all_cores = machine.cores()
    total = 0.0
    for c in task.comm:
        if c.scope == "group":
            if len(cores) <= 1:
                continue
            t = collective_time(c.op, machine, network, cores, c.total_bytes, ctx)
        elif c.scope == "global":
            is_tp = (
                task_parallel_program
                if task_parallel_program is not None
                else set(cores) != set(all_cores)
            )
            if c.task_parallel_only and not is_tp:
                continue
            t = collective_time(
                c.op, machine, network, list(all_cores), c.total_bytes, ctx
            )
        else:  # orthogonal
            groups = model._orthogonal_groups(cores, peer_groups)
            if groups is None:
                continue
            per_set = c.total_bytes * len(groups) / max(1, len(cores))
            t = concurrent_time(c.op, machine, network, orthogonal_sets(groups), per_set)
        total += c.count * t
    return total


def reference_hybrid_tcomm_mapped(
    model, task, cores, ctx=None, peer_groups=None, all_cores=None, task_parallel_program=None
):
    """``HybridCostModel.tcomm_mapped`` on the edge-list engine."""
    h = model.threads_per_process
    if h == 1:
        return reference_tcomm_mapped(
            model, task, cores, ctx, peer_groups, all_cores, task_parallel_program
        )
    spans = model._check_team_placement(cores)
    machine = model.platform.machine
    if all_cores is None:
        all_cores = machine.cores()
    leaders = process_leaders(cores, h)
    leader_peers = (
        [process_leaders(g, h) for g in peer_groups] if peer_groups else None
    )
    all_leaders = process_leaders(list(all_cores), h)
    barrier = model.sync_cost(spans) + model.tau_mpi * log2(
        max(2.0, float(len(leaders)))
    )
    base = CostModel(model.platform, model.compute_efficiency)
    comm = reference_tcomm_mapped(
        base, task, leaders, ctx, leader_peers, all_leaders, task_parallel_program
    )
    occurrences = sum(c.count for c in task.comm) + task.sync_points
    return comm + occurrences * barrier


# ----------------------------------------------------------------------
# the collectives, drawn
# ----------------------------------------------------------------------
#: four nodes of unequal shape under CHiC's link parameters
HET = Machine("het", ((2, 2), (4,), (1, 3, 2), (2, 2)), 1e9)
HET_CORES = HET.cores()
NET = chic().network
GROUP = st.lists(st.sampled_from(HET_CORES), min_size=1, max_size=9)

loads = st.one_of(
    st.none(),
    st.tuples(
        *[st.lists(st.integers(0, 9), min_size=HET.num_nodes, max_size=HET.num_nodes)] * 2
    ).map(lambda pair: tuple(np.array(side, dtype=np.intp) for side in pair)),
)


class TestCollectiveTime:
    @given(
        op=st.sampled_from(sorted(_MAPPED) + ["ptp"]),
        # one group alone or several at once: unequal sizes, one-member
        # groups, a core in two groups or behind two ranks of one group
        groups=st.one_of(
            GROUP.map(lambda g: [g]), st.lists(GROUP, min_size=2, max_size=6)
        ),
        nbytes=st.sampled_from([0, 0.0, 8.0, 12345.0, 1e6 / 3, 3e7, 1 << 20]),
        load=loads,
    )
    @settings(max_examples=600, deadline=None)
    def test_equals_edge_list_engine(self, op, groups, nbytes, load):
        got = collectives.collective_time(op, HET, NET, groups, nbytes, load)
        want = reference_time(op, HET, NET, groups, nbytes, load)
        assert got.hex() == want.hex()

    def test_no_groups_and_unknown_op(self):
        assert collectives.collective_time("allgather", HET, NET, [], 1e6) == 0.0
        assert collectives.collective_time("bcast", HET, NET, [HET_CORES[:1]] * 3, 1e6) == 0.0
        with pytest.raises(ValueError, match="unknown collective"):
            collectives.collective_time("gossip", HET, NET, [HET_CORES[:2]], 1e6)


# ----------------------------------------------------------------------
# tcomm_mapped of the paper solvers, on the requests a simulation makes
# ----------------------------------------------------------------------
class RecordingModel:
    """A cost model that records every ``tcomm_mapped`` request."""

    def __init__(self, model):
        self.model = model
        self.requests = []

    def tcomm_mapped(self, task, cores, load=None, peer_groups=None, **kwargs):
        self.requests.append((task, cores, load, peer_groups, kwargs))
        return self.model.tcomm_mapped(task, cores, load, peer_groups, **kwargs)

    def __getattr__(self, name):
        return getattr(self.model, name)


def simulated_requests(platform, model, cfg, n):
    """Every ``tcomm_mapped`` request of one simulated solver step,
    scheduled and mapped as the pipeline does."""
    graph = step_graph(bruss2d(n), cfg)
    cost = CachedCostEvaluator(CostModel(platform))
    result = fixed_group_scheduler(cost, paper_group_count(cfg)).schedule(graph)
    recorder = RecordingModel(model)
    simulate(graph, place_result(result, platform.machine, consecutive()), recorder)
    assert any(load is not None for _, _, load, _, _ in recorder.requests)
    return recorder.requests


def assert_requests_match(model, reference, requests):
    rng = np.random.default_rng(7)
    nodes = model.platform.machine.num_nodes
    for task, cores, load, peers, kwargs in requests:
        random_load = tuple(rng.integers(0, 6, nodes) for _ in range(2))
        for drawn in (load, None, random_load):
            ctx = None if drawn is None else ContentionContext.from_counts(*drawn)
            got = model.tcomm_mapped(task, cores, drawn, peers, **kwargs)
            want = reference(model, task, cores, ctx, peers, **kwargs)
            assert got.hex() == want.hex(), (task.name, drawn)
        got = model.tcomm_mapped(task, cores)
        assert got.hex() == reference(model, task, cores).hex(), task.name


class TestTcommMapped:
    @pytest.mark.parametrize("cores", [256, 64])
    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    def test_paper_solvers_on_chic(self, solver, cores):
        platform = chic().with_cores(cores)
        model = CostModel(platform)
        requests = simulated_requests(platform, model, PAPER_CONFIGS[solver], n=100)
        assert_requests_match(model, reference_tcomm_mapped, requests)

    def test_hybrid_model_on_diirk(self):
        platform = chic().with_cores(64)
        model = HybridCostModel(platform, threads_per_process=4)
        requests = simulated_requests(platform, model, PAPER_CONFIGS["diirk"], n=60)
        assert any(task.sync_points for task, *_ in requests)
        assert_requests_match(model, reference_hybrid_tcomm_mapped, requests)
