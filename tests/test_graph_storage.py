"""``TaskGraph`` owns its adjacency; networkx is the independent oracle.

Every order the graph hands out is contract (schedules, fingerprints and
cache keys follow from it) and used to be whatever a
``networkx.DiGraph`` gave.  These tests build the same random DAG into a
``TaskGraph`` and into a plain ``DiGraph`` by the same sequence of
operations and require equal sequences everywhere, pin the one-pass
``prune_redundant_edges`` to the remove / ``has_path`` / re-add loop it
replaced (kept here as the reference), and check that a rejected cycle
leaves nothing behind on any of the three construction paths.
:func:`to_networkx` is the graph as the oracle's type.
"""

import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataFlow, MTask, TaskGraph
from repro.ode import PAPER_CONFIGS, bruss2d, step_graph
from repro.serve.api import compile_request, validate_request


def to_networkx(graph: TaskGraph) -> nx.DiGraph:
    """``graph`` as a new ``networkx.DiGraph``: tasks as nodes, every edge
    with its flow list as the ``flows`` attribute."""
    g = nx.DiGraph()
    g.add_nodes_from(graph)
    g.add_edges_from((u, v, {"flows": flows}) for u, v, flows in graph.edges())
    return g


def copy_graph(graph: TaskGraph) -> TaskGraph:
    """A graph on the same tasks from ``graph``'s snapshot, the one a
    failed transaction rolls back to."""
    out = TaskGraph(graph.name)
    out._succ, out._pred, out._by_name = graph._snapshot()
    return out


# ----------------------------------------------------------------------
# the same construction, twice
# ----------------------------------------------------------------------
@st.composite
def construction(draw):
    """A random acyclic construction script over ``n`` tasks.

    Steps are ``("task", i)``, ``("edge", i, j, flows)`` (per-edge
    ``add_dependency``; may name tasks not added yet), ``("bulk",
    [(i, j, flows), ...])`` and ``("deferred", [(i, j, flows), ...])``.
    Edges respect a hidden random rank, so every script is acyclic;
    pairs repeat, with and without payload.
    """
    n = draw(st.integers(1, 10))
    rank = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: rank[p[0]] < rank[p[1]]
    )
    flows = st.lists(st.integers(1, 9), max_size=2)
    edge = st.tuples(pair, flows).map(lambda e: (e[0][0], e[0][1], e[1]))
    edges = st.lists(edge, max_size=6)
    step = st.one_of(
        st.tuples(st.just("task"), st.integers(0, n - 1)),
        edge.map(lambda e: ("edge", *e)),
        st.tuples(st.just("bulk"), edges),
        st.tuples(st.just("deferred"), edges),
    )
    return n, draw(st.lists(step, max_size=12)) if n > 1 else [("task", 0)]


def _flows(elements):
    return [DataFlow(var=f"v{e}", elements=e) for e in elements]


def _oracle_edge(g: nx.DiGraph, u, v, flows) -> None:
    """What ``add_dependency`` means, spelled in networkx."""
    g.add_node(u)
    g.add_node(v)
    if g.has_edge(u, v):
        g.edges[u, v]["flows"] = g.edges[u, v]["flows"] + flows
    else:
        g.add_edge(u, v, flows=flows)


def build_both(n, steps):
    tasks = [MTask(f"t{i}", work=float(i + 1)) for i in range(n)]
    graph, oracle = TaskGraph("mine"), nx.DiGraph()
    for kind, *args in steps:
        if kind == "task":
            graph.add_task(tasks[args[0]])
            oracle.add_node(tasks[args[0]])
        elif kind == "edge":
            i, j, elements = args
            graph.add_dependency(tasks[i], tasks[j], _flows(elements))
            _oracle_edge(oracle, tasks[i], tasks[j], _flows(elements))
        else:
            batch = [(tasks[i], tasks[j], _flows(e)) for i, j, e in args[0]]
            for u, v, _ in batch:  # bulk endpoints must be known tasks
                graph.add_tasks((u, v))
            if kind == "bulk":
                graph.add_edges_bulk(batch)
            else:
                with graph.deferred_validation():
                    for u, v, flows in batch:
                        graph.add_dependency(u, v, flows)
            for u, v, flows in batch:
                _oracle_edge(oracle, u, v, flows)
    return graph, oracle


def assert_same_orders(graph: TaskGraph, oracle: nx.DiGraph) -> None:
    assert list(graph) == list(oracle.nodes)
    assert len(graph) == oracle.number_of_nodes()
    assert graph.num_edges == oracle.number_of_edges()
    assert list(graph.edges()) == [
        (u, v, d["flows"]) for u, v, d in oracle.edges(data=True)
    ]
    for t in graph:
        assert list(graph.predecessors(t)) == list(oracle.predecessors(t))
        assert list(graph.successors(t)) == list(oracle.successors(t))
        assert list(graph.predecessor_index()[t]) == list(oracle.pred[t])
        assert list(graph.successor_index()[t]) == list(oracle.succ[t])
        assert graph.descendants(t) == nx.descendants(oracle, t)
    assert list(graph.sinks()) == [t for t in oracle if oracle.out_degree(t) == 0]
    assert graph.topological_order() == list(nx.topological_sort(oracle))


class TestOrderEquivalence:
    @given(construction())
    @settings(max_examples=300, deadline=None)
    def test_every_sequence_matches_networkx(self, script):
        graph, oracle = build_both(*script)
        assert_same_orders(graph, oracle)
        graph.validate()
        for a in graph:
            for b in graph:
                linked = a is b or nx.has_path(oracle, a, b) or nx.has_path(oracle, b, a)
                apart = a is not b and b not in graph.descendants(a) and a not in graph.descendants(b)
                assert apart == (not linked)

    @given(construction())
    @settings(max_examples=100, deadline=None)
    def test_to_networkx_round_trips(self, script):
        graph, oracle = build_both(*script)
        copy = to_networkx(graph)
        assert list(copy.nodes) == list(oracle.nodes)
        assert list(copy.edges(data=True)) == list(oracle.edges(data=True))
        # a copy: changing it does not reach the graph
        copy.add_node(MTask("extra"))
        assert len(graph) == oracle.number_of_nodes()
        back = TaskGraph("back")
        back.add_tasks(oracle.nodes)
        back.add_edges_bulk((u, v, d["flows"]) for u, v, d in copy.edges(data=True))
        assert list(back.edges()) == list(graph.edges())
        assert back.topological_order() == graph.topological_order()

    @given(construction())
    @settings(max_examples=100, deadline=None)
    def test_copy_keeps_every_order_and_is_independent(self, script):
        graph, oracle = build_both(*script)
        twin = copy_graph(graph)
        assert_same_orders(twin, oracle)
        twin.add_dependency(MTask("extra"), MTask("more"), _flows([3]))
        for u, v, _ in list(graph.edges())[:1]:
            twin.add_dependency(u, v, _flows([4]))  # merges in the twin only
        assert_same_orders(graph, oracle)

    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    def test_paper_step_graphs(self, solver):
        graph = step_graph(bruss2d(24), PAPER_CONFIGS[solver])
        oracle = nx.DiGraph()
        oracle.add_nodes_from(graph)
        for t in graph:  # rebuild both adjacency orders, not just one
            for s in graph.successors(t):
                oracle.add_edge(t, s)
        assert graph.topological_order() == list(nx.topological_sort(oracle))


# ----------------------------------------------------------------------
# pruning: one reachability pass == the loop it replaced
# ----------------------------------------------------------------------
def prune_reference(g: nx.DiGraph) -> None:
    """``spec/build._prune_redundant_edges`` as it was on networkx: take
    each payload-free edge out, put it back unless another path remains."""
    for u, v in list(g.edges()):
        if g.edges[u, v]["flows"]:
            continue
        g.remove_edge(u, v)
        if not nx.has_path(g, u, v):
            g.add_edge(u, v, flows=[])


class TestPrune:
    @given(construction())
    @settings(max_examples=300, deadline=None)
    def test_leaves_the_reference_edge_sequence(self, script):
        graph, oracle = build_both(*script)
        graph.prune_redundant_edges()
        prune_reference(oracle)
        assert_same_orders(graph, oracle)
        graph.validate()

    def test_kept_ordering_edge_moves_behind_payload_edges(self):
        a, b, c, d = (MTask(x) for x in "abcd")
        graph = TaskGraph()
        graph.add_dependency(a, b)                 # bare, stays: moves last
        graph.add_dependency(a, c, _flows([1]))
        graph.add_dependency(a, d)                 # bare, implied by a -> c -> d
        graph.add_dependency(c, d, _flows([2]))
        graph.add_dependency(b, d, _flows([3]))
        graph.prune_redundant_edges()
        assert graph.successors(a) == (c, b)
        assert graph.predecessors(d) == (c, b)
        assert graph.topological_order() == [a, c, b, d]

    def test_payload_edges_are_never_dropped(self):
        a, b, c = (MTask(x) for x in "abc")
        graph = TaskGraph()
        graph.add_dependency(a, b, _flows([1]))
        graph.add_dependency(b, c, _flows([1]))
        graph.add_dependency(a, c, _flows([1]))  # implied, but carries data
        graph.prune_redundant_edges()
        assert graph.num_edges == 3


# ----------------------------------------------------------------------
# a rejected cycle leaves nothing behind
# ----------------------------------------------------------------------
def _state(graph: TaskGraph):
    return (
        list(graph),
        [(u, v, list(flows)) for u, v, flows in graph.edges()],
        {t: graph.predecessors(t) for t in graph},
        graph.topological_order(),
    )


class TestCycleRejection:
    def setup_method(self):
        self.a, self.b, self.c, self.d = (MTask(x) for x in "abcd")
        self.graph = TaskGraph("g")
        self.graph.add_dependency(self.a, self.b, _flows([1]))
        self.graph.add_dependency(self.b, self.c)
        self.before = _state(self.graph)

    def _assert_untouched(self):
        assert _state(self.graph) == self.before
        self.graph.validate()
        assert "d" not in {t.name for t in self.graph}
        # and the graph still works
        self.graph.add_dependency(self.c, self.d)
        assert self.graph.topological_order() == [self.a, self.b, self.c, self.d]

    def test_add_dependency(self):
        with pytest.raises(ValueError, match="would create a cycle"):
            self.graph.add_dependency(self.c, self.a)
        with pytest.raises(ValueError, match="self-dependency"):
            self.graph.add_dependency(self.d, self.d)
        self._assert_untouched()

    def test_add_edges_bulk(self):
        self.graph.add_task(self.d)
        self.before = _state(self.graph)
        with pytest.raises(ValueError, match="cycle"):
            self.graph.add_edges_bulk([
                (self.a, self.b, _flows([7])),   # merged into a known pair ...
                (self.c, self.d, ()),            # ... a new pair ...
                (self.d, self.a, ()),            # ... and the one closing the cycle
            ])
        assert _state(self.graph) == self.before
        with pytest.raises(ValueError, match="must be added tasks"):
            self.graph.add_edges_bulk([(self.c, self.d, ()), (self.a, MTask("z"), ())])
        assert _state(self.graph) == self.before
        self.graph.validate()

    def test_deferred_validation_exit(self):
        with pytest.raises(ValueError, match="cycle"):
            with self.graph.deferred_validation():
                self.graph.add_dependency(self.a, self.b, _flows([7]))
                self.graph.add_dependency(self.c, self.d)
                self.graph.add_dependency(self.d, self.a)
        self._assert_untouched()

    def test_deferred_block_that_raises(self):
        with pytest.raises(RuntimeError):
            with self.graph.deferred_validation():
                self.graph.add_dependency(self.c, self.d)
                raise RuntimeError("caller changed its mind")
        self._assert_untouched()
        # per-edge checks are back on after the block
        with pytest.raises(ValueError, match="would create a cycle"):
            self.graph.add_dependency(self.d, self.a)


# ----------------------------------------------------------------------
# what crosses the process boundary
# ----------------------------------------------------------------------
class TestPickle:
    #: pickled size of the compiled IRK graph below when ``TaskGraph``
    #: still wrapped a ``networkx.DiGraph``
    NETWORKX_BYTES = 19652

    def test_compiled_program_graph_round_trips(self):
        request = validate_request(
            "schedule", {"workload": {"solver": "irk", "n": 120}, "topology": {"cores": 64}}
        )
        graph = compile_request(request).graph
        blob = pickle.dumps(graph)
        assert len(blob) <= self.NETWORKX_BYTES
        back = pickle.loads(blob)

        def names(g):
            return (
                [t.name for t in g],
                [(u.name, v.name, flows) for u, v, flows in g.edges()],
                {t.name: [p.name for p in g.predecessors(t)] for t in g},
                [t.name for t in g.topological_order()],
            )

        assert names(back) == names(graph)
        back.validate()
        back.add_dependency(back.sinks()[0], MTask("after"))
        assert len(back) == len(graph) + 1
