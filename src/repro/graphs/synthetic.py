"""Seeded generators for the synthetic DAG families.

Every generator takes an integer ``seed`` and drives all randomness
through one ``random.Random(seed)`` instance, so a (family, size, seed)
triple always produces the same graph -- tasks, parameters, collectives
and edges alike.  A generator draws tasks and edges into two lists and
hands them to the graph in one ``add_tasks`` + ``add_edges_bulk`` call
(:func:`_assemble`), so construction is O(V + E) with a single closing
acyclicity check.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.graph import DataFlow, TaskGraph
from ..core.task import CollectiveSpec, MTask

__all__ = [
    "chain_graph",
    "fork_join_graph",
    "layered_graph",
    "random_dag",
    "synthesize",
    "fit_to_cores",
    "FAMILIES",
]

#: collective shapes a generated task draws from (op, scope, tpo); a
#: mix of the patterns the ODE workloads exhibit (Table 1)
_COMM_MENU = (
    ("allgather", "group", False),
    ("bcast", "global", True),
    ("allreduce", "group", False),
    ("ptp", "orthogonal", False),
)
#: the moldability bounds a generated task draws from
_MIN_PROCS = (1, 1, 1, 1, 2, 4)
_MAX_PROCS = (None, None, None, 256)


def _fit_bounds(
    name: str,
    min_procs: int,
    max_procs: Optional[int],
    cores: Optional[int],
    strict: bool = False,
) -> tuple:
    """Reconcile one task's moldability bounds with a target core count.

    Returns ``(min_procs, max_procs)`` such that ``min_procs <= cores``
    (when a core count is given) and ``min_procs <= max_procs``.  With
    ``strict=True`` an infeasible bound raises one :class:`ValueError`
    naming the task instead of clamping -- otherwise the clamp is
    deterministic: ``min_procs`` drops to the core count, and a
    ``max_procs`` below ``min_procs`` rises to it.
    """
    if cores is not None and cores < 1:
        raise ValueError("cores must be positive")
    if max_procs is not None and max_procs < min_procs:
        if strict:
            raise ValueError(
                f"task {name!r}: min_procs={min_procs} exceeds "
                f"max_procs={max_procs}"
            )
        max_procs = min_procs
    if cores is not None and min_procs > cores:
        if strict:
            raise ValueError(
                f"task {name!r}: min_procs={min_procs} exceeds the "
                f"{cores}-core target topology"
            )
        min_procs = cores
    return min_procs, max_procs


def fit_to_cores(graph: TaskGraph, cores: int, *, strict: bool = False) -> TaskGraph:
    """Clamp every task's moldability bounds to a ``cores``-core machine.

    Historically a generated task could declare ``min_procs`` larger
    than the scheduling platform and the violation only surfaced as an
    opaque failure deep inside ``schedule_layer``.  This pass reconciles
    the bounds up front: with ``strict=False`` (default) each offending
    task is clamped deterministically via the same rules the generators
    apply; with ``strict=True`` the first offender raises a
    :class:`ValueError` naming the task.  Tasks are updated *in place*
    (graph nodes are keyed by task identity) and the graph is returned
    for chaining.
    """
    for t in graph:
        t.min_procs, t.max_procs = _fit_bounds(
            t.name, t.min_procs, t.max_procs, cores, strict
        )
    return graph


def _task_maker(
    rng: random.Random, elements: int, cores: Optional[int] = None
) -> Callable[[str], MTask]:
    """``make(name)``: one synthetic task per call -- lognormal-ish work,
    occasional moldability bounds (clamped to ``cores`` when given), zero
    to two collective specs -- drawn from ``rng`` in a fixed order.

    The draws skip the argument handling of ``uniform`` / ``choice`` /
    ``randint`` and make the calls those make: ``uniform(a, b)`` is
    ``a + (b - a) * random()``, ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]`` and ``randint(a, b)`` is
    ``a + _randbelow(b - a + 1)`` as CPython's ``random`` implements them,
    so the stream is the same; ``tests/test_schedule_scale.py`` pins each
    family's output.  ``_randbelow(n)`` itself is written out as CPython
    3.11's ``_randbelow_with_getrandbits`` draws: ``getrandbits(k)`` with
    ``k = n.bit_length()`` until the value is below ``n``."""
    draw, bits = rng.random, rng.getrandbits
    n_min, k_min = len(_MIN_PROCS), len(_MIN_PROCS).bit_length()
    n_max, k_max = len(_MAX_PROCS), len(_MAX_PROCS).bit_length()
    n_menu, k_menu = len(_COMM_MENU), len(_COMM_MENU).bit_length()
    k_elements = elements.bit_length()

    def make(name: str) -> MTask:
        work = elements * (5.0 + 45.0 * draw())
        while (lo := bits(k_min)) >= n_min:
            pass
        while (hi := bits(k_max)) >= n_max:
            pass
        min_procs, max_procs = _fit_bounds(name, _MIN_PROCS[lo], _MAX_PROCS[hi], cores)
        comm = []
        while (ncomm := bits(2)) >= 3:  # randint(0, 2)
            pass
        for _ in range(ncomm):
            while (shape := bits(k_menu)) >= n_menu:
                pass
            op, scope, tpo = _COMM_MENU[shape]
            while (size := bits(k_elements)) >= elements:  # randint(1, elements)
                pass
            while (count := bits(3)) >= 4:  # randint(1, 4)
                pass
            comm.append(
                CollectiveSpec(
                    op=op,
                    total_elements=float(1 + size),
                    count=float(1 + count),
                    scope=scope,
                    task_parallel_only=tpo,
                )
            )
        return MTask(
            name=name,
            work=work,
            comm=tuple(comm),
            min_procs=min_procs,
            max_procs=max_procs,
        )

    return make


#: one generated edge: producer, consumer, its single flow
Edge = Tuple[MTask, MTask, Sequence[DataFlow]]


def _flow_maker(rng: random.Random, elements: int) -> Callable[[str], Tuple[DataFlow]]:
    """``flow(var)``: the flows of one generated edge -- a single flow of
    ``var`` whose size is drawn from ``rng``.  ``DataFlow`` is frozen and
    compared by value, so one maker shares one instance per
    ``(var, size)``.  The size is ``randint(1, elements)``, drawn as
    :func:`_task_maker` draws it."""
    bits, k = rng.getrandbits, elements.bit_length()
    shared: Dict[Tuple[str, int], Tuple[DataFlow]] = {}

    def flow(var: str) -> Tuple[DataFlow]:
        while (size := bits(k)) >= elements:
            pass
        key = (var, 1 + size)
        flows = shared.get(key)
        if flows is None:
            flows = shared[key] = (DataFlow(var=var, elements=key[1]),)
        return flows

    return flow


def _assemble(name: str, tasks: Sequence[MTask], edges: Sequence[Edge]) -> TaskGraph:
    """The graph of ``tasks`` (in order) and ``edges`` (in order; a pair
    drawn twice keeps both flows)."""
    g = TaskGraph(name)
    g.add_tasks(tasks)
    g.add_edges_bulk(edges)
    return g


def chain_graph(
    n: int, *, seed: int = 0, elements: int = 1024, cores: Optional[int] = None
) -> TaskGraph:
    """A single linear chain of ``n`` tasks (contraction stress case)."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    make, flow = _task_maker(rng, elements, cores), _flow_maker(rng, elements)
    tasks: List[MTask] = []
    edges: List[Edge] = []
    for i in range(n):
        t = make(f"c{i}")
        if tasks:
            edges.append((tasks[-1], t, flow("x")))
        tasks.append(t)
    return _assemble(f"synthetic/chain-{n}-s{seed}", tasks, edges)


def fork_join_graph(
    n: int,
    *,
    width: int = 32,
    seed: int = 0,
    elements: int = 1024,
    cores: Optional[int] = None,
) -> TaskGraph:
    """Repeated fork-join stages: fork -> ``width`` parallel tasks -> join.

    ``n`` is the approximate total task count; the generator emits
    ``ceil`` stages of ``width + 2`` tasks until it is reached.
    """
    if n <= 0 or width <= 0:
        raise ValueError("n and width must be positive")
    rng = random.Random(seed)
    make, flow = _task_maker(rng, elements, cores), _flow_maker(rng, elements)
    tasks: List[MTask] = []
    edges: List[Edge] = []
    stage = 0
    while len(tasks) < n:
        fork = make(f"fork{stage}")
        if tasks:  # behind the previous stage's join
            edges.append((tasks[-1], fork, flow("y")))
        tasks.append(fork)
        body = []
        for j in range(width):
            t = make(f"b{stage}_{j}")
            edges.append((fork, t, flow("x")))
            body.append(t)
        join = make(f"join{stage}")
        edges.extend((t, join, flow("x")) for t in body)
        tasks += body
        tasks.append(join)
        stage += 1
    return _assemble(f"synthetic/forkjoin-{n}-w{width}-s{seed}", tasks, edges)


def layered_graph(
    n: int,
    *,
    width: int = 64,
    edge_density: float = 0.1,
    seed: int = 0,
    elements: int = 1024,
    cores: Optional[int] = None,
) -> TaskGraph:
    """A wide layered DAG: ``ceil(n / width)`` layers of ``width`` tasks.

    Edges run only between consecutive layers; each task of a
    non-initial layer keeps at least one predecessor (connectivity), and
    further cross edges appear with probability ``edge_density``.  This
    is the scheduler's hot shape: wide independent layers driving the
    ``g``-search.
    """
    if n <= 0 or width <= 0:
        raise ValueError("n and width must be positive")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge_density must be within [0, 1]")
    rng = random.Random(seed)
    make, flow = _task_maker(rng, elements, cores), _flow_maker(rng, elements)
    draw, below = rng.random, rng._randbelow
    tasks: List[MTask] = []
    edges: List[Edge] = []
    prev_layer: List[MTask] = []
    li = 0
    while len(tasks) < n:
        cur = [make(f"l{li}_{j}") for j in range(min(width, n - len(tasks)))]
        tasks += cur
        if prev_layer:
            for t in cur:
                edges.append((prev_layer[below(len(prev_layer))], t, flow("x")))
                # one draw per candidate, a hit's flow size drawn before
                # the next candidate's draw: the stream of the plain loop
                edges += [(p, t, flow("x")) for p in prev_layer if draw() < edge_density]
        prev_layer = cur
        li += 1
    return _assemble(f"synthetic/layered-{n}-w{width}-s{seed}", tasks, edges)


def random_dag(
    n: int,
    *,
    max_preds: int = 3,
    seed: int = 0,
    elements: int = 1024,
    cores: Optional[int] = None,
) -> TaskGraph:
    """A random DAG over a fixed topological order.

    Task ``i`` draws up to ``max_preds`` predecessors uniformly from a
    recent window of earlier tasks, which keeps the depth/width mix
    irregular -- neither chain- nor layer-shaped.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    make, flow = _task_maker(rng, elements, cores), _flow_maker(rng, elements)
    tasks: List[MTask] = []
    edges: List[Edge] = []
    for i in range(n):
        t = make(f"r{i}")
        if tasks:
            window = tasks[-256:]
            k = rng.randint(1, max_preds)
            for p in rng.sample(window, min(k, len(window))):
                edges.append((p, t, flow("x")))
        tasks.append(t)
    return _assemble(f"synthetic/random-{n}-s{seed}", tasks, edges)


#: the benchmarkable families, keyed as the scale sweep names them
FAMILIES: Dict[str, Callable[..., TaskGraph]] = {
    "chain": chain_graph,
    "forkjoin": fork_join_graph,
    "layered": layered_graph,
    "random": random_dag,
}


def synthesize(family: str, n: int, *, seed: int = 0, **kwargs) -> TaskGraph:
    """Generate a graph of ``family`` with roughly ``n`` tasks."""
    try:
        fn = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known: {sorted(FAMILIES)}"
        ) from None
    return fn(n, seed=seed, **kwargs)
