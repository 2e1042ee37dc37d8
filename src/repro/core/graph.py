"""The M-task graph: a DAG of tasks with input-output relations.

Nodes are :class:`~repro.core.task.MTask` activations; a directed edge
``(M1, M2)`` states that ``M1`` produces data required by ``M2``
(Section 2.1).  Edges carry the data flows (variable name, size,
source/target distribution specs) so the re-distribution volume between
any two scheduled tasks can be computed.

The class wraps a :class:`networkx.DiGraph` and adds the domain
invariants: acyclicity, unique task names, and well-formed data flows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .task import AccessMode, DistributionSpec, MTask, Parameter

__all__ = ["DataFlow", "TaskGraph"]


@dataclass(frozen=True)
class DataFlow:
    """One variable flowing along an edge of the M-task graph."""

    var: str
    elements: int
    itemsize: int = 8
    src_dist: DistributionSpec = DistributionSpec()
    dst_dist: DistributionSpec = DistributionSpec()

    @property
    def nbytes(self) -> int:
        return self.elements * self.itemsize


class TaskGraph:
    """Directed acyclic graph of M-task activations."""

    def __init__(self, name: str = "mtask-graph") -> None:
        self.name = name
        self._g: nx.DiGraph = nx.DiGraph()
        self._by_name: Dict[str, MTask] = {}
        self._defer_validation = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, task: MTask) -> MTask:
        """Add a task node (idempotent; duplicate names are errors)."""
        if task in self._g:
            return task
        if task.name in self._by_name:
            raise ValueError(f"duplicate task name {task.name!r} in graph {self.name!r}")
        self._g.add_node(task)
        self._by_name[task.name] = task
        return task

    def add_tasks(self, tasks: Iterable[MTask]) -> None:
        """Add several task nodes."""
        for t in tasks:
            self.add_task(t)

    def add_dependency(
        self,
        producer: MTask,
        consumer: MTask,
        flows: Sequence[DataFlow] = (),
    ) -> None:
        """Add an input-output relation with explicit data flows."""
        if producer is consumer:
            raise ValueError(f"self-dependency on task {producer.name!r}")
        self.add_task(producer)
        self.add_task(consumer)
        if self._g.has_edge(producer, consumer):
            existing: List[DataFlow] = self._g.edges[producer, consumer]["flows"]
            existing.extend(flows)
        else:
            # the new edge closes a cycle iff the graph already has a
            # path consumer ->..-> producer; a targeted reverse
            # reachability check early-exits far before the full-graph
            # DAG test the class used to run per edge
            if not self._defer_validation and self._has_path(consumer, producer):
                raise ValueError(
                    f"edge {producer.name!r} -> {consumer.name!r} would create a cycle"
                )
            self._g.add_edge(producer, consumer, flows=list(flows))

    def _has_path(self, src: MTask, dst: MTask) -> bool:
        """Whether a directed path ``src ->..-> dst`` exists (iterative DFS)."""
        if src is dst:
            return True
        succ = self._g.succ
        seen = {src}
        stack = [src]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt is dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def add_edges_bulk(
        self, edges: Iterable[Tuple[MTask, MTask, Sequence[DataFlow]]]
    ) -> None:
        """Add many dependency edges with one structural check at the end.

        The fast path for whole-graph rewrites (chain contraction) whose
        output edges are distinct by construction: it writes straight
        into the adjacency structure and validates once, instead of
        paying :meth:`add_dependency`'s per-edge node/duplicate/cycle
        machinery.  Callers must guarantee (a) both endpoints were added
        via :meth:`add_task` and (b) no ``(producer, consumer)`` pair
        repeats -- duplicates would overwrite instead of merging flows.
        Acyclicity is still enforced: the closing check raises and no
        partial state survives the caller's exception.
        """
        g = self._g
        succ, pred = g._succ, g._pred
        for producer, consumer, flows in edges:
            if producer is consumer:
                raise ValueError(f"self-dependency on task {producer.name!r}")
            if producer not in succ or consumer not in succ:
                raise ValueError("add_edges_bulk endpoints must be added tasks")
            data = {"flows": list(flows)}
            succ[producer][consumer] = data
            pred[consumer][producer] = data
        nx._clear_cache(g)
        if not self._defer_validation:
            self.validate()

    @contextmanager
    def deferred_validation(self) -> Iterator["TaskGraph"]:
        """Skip per-edge cycle checks inside the block; one
        :meth:`validate` call on exit covers the whole batch.

        Bulk construction (the synthetic generators, chain contraction)
        adds ``E`` edges known-good by construction; per-edge checks make
        that quadratic.  Inside this context :meth:`add_dependency` is
        O(1) amortised, and the single closing validation is O(V + E).
        Nesting is allowed -- only the outermost block validates.
        """
        if self._defer_validation:
            yield self
            return
        self._defer_validation = True
        try:
            yield self
        finally:
            self._defer_validation = False
        self.validate()

    def connect(self, producer: MTask, consumer: MTask) -> List[DataFlow]:
        """Connect two tasks by matching output/input parameter names.

        Every output (or inout) parameter of ``producer`` whose name
        matches an input (or inout) parameter of ``consumer`` becomes a
        data flow.  Returns the flows created; raises if none match.
        """
        flows: List[DataFlow] = []
        consumer_inputs = {p.name: p for p in consumer.inputs}
        for out in producer.outputs:
            inp = consumer_inputs.get(out.name)
            if inp is None:
                continue
            if out.elements != inp.elements:
                raise ValueError(
                    f"size mismatch for variable {out.name!r}: "
                    f"{producer.name} produces {out.elements}, "
                    f"{consumer.name} expects {inp.elements}"
                )
            flows.append(
                DataFlow(
                    var=out.name,
                    elements=out.elements,
                    itemsize=out.itemsize,
                    src_dist=out.dist,
                    dst_dist=inp.dist,
                )
            )
        if not flows:
            raise ValueError(
                f"no matching parameters between {producer.name!r} and {consumer.name!r}"
            )
        self.add_dependency(producer, consumer, flows)
        return flows

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._g.number_of_nodes()

    def __iter__(self) -> Iterator[MTask]:
        return iter(self._g.nodes)

    def __contains__(self, task: MTask) -> bool:
        return task in self._g

    @property
    def tasks(self) -> Tuple[MTask, ...]:
        return tuple(self._g.nodes)

    @property
    def num_edges(self) -> int:
        return self._g.number_of_edges()

    def task(self, name: str) -> MTask:
        """Look up a task by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no task named {name!r} in graph {self.name!r}") from None

    def edges(self) -> Iterator[Tuple[MTask, MTask, List[DataFlow]]]:
        """Iterate over ``(producer, consumer, flows)`` edges, in the
        order of networkx's edge view (producers in insertion order,
        each with its consumers in insertion order)."""
        for u, nbrs in self._g._succ.items():
            for v, data in nbrs.items():
                yield u, v, data["flows"]

    def flows(self, producer: MTask, consumer: MTask) -> List[DataFlow]:
        """Return the data flows on the edge producer -> consumer."""
        if not self._g.has_edge(producer, consumer):
            raise KeyError(
                f"no edge {producer.name!r} -> {consumer.name!r} in graph {self.name!r}"
            )
        return list(self._g.edges[producer, consumer]["flows"])

    def predecessors(self, task: MTask) -> Tuple[MTask, ...]:
        """Direct predecessors of ``task``."""
        return tuple(self._g.predecessors(task))

    def successors(self, task: MTask) -> Tuple[MTask, ...]:
        """Direct successors of ``task``."""
        return tuple(self._g.successors(task))

    def predecessor_index(self) -> Dict[MTask, List[MTask]]:
        """Predecessor adjacency of every task as one dict.

        One O(V + E) pass; whole-graph passes (layering, chain finding,
        batch splitting) index into this instead of building a fresh
        tuple per :meth:`predecessors` call.
        """
        return {t: list(ps) for t, ps in self._g.pred.items()}

    def successor_index(self) -> Dict[MTask, List[MTask]]:
        """Successor adjacency of every task as one dict (O(V + E))."""
        return {t: list(ss) for t, ss in self._g.succ.items()}

    def sources(self) -> Tuple[MTask, ...]:
        """Tasks with no predecessors."""
        return tuple(t for t in self._g.nodes if self._g.in_degree(t) == 0)

    def sinks(self) -> Tuple[MTask, ...]:
        """Tasks with no successors."""
        return tuple(t for t in self._g.nodes if self._g.out_degree(t) == 0)

    def topological_order(self) -> List[MTask]:
        """Tasks in a topological order."""
        return list(nx.topological_sort(self._g))

    def ancestors(self, task: MTask) -> Set[MTask]:
        """All transitive predecessors of ``task``."""
        return set(nx.ancestors(self._g, task))

    def descendants(self, task: MTask) -> Set[MTask]:
        """All transitive successors of ``task``."""
        return set(nx.descendants(self._g, task))

    def independent(self, a: MTask, b: MTask) -> bool:
        """Whether no path connects ``a`` and ``b`` (Section 2.1)."""
        if a is b:
            return False
        return b not in nx.descendants(self._g, a) and a not in nx.descendants(self._g, b)

    def critical_path_length(self, time: Dict[MTask, float]) -> float:
        """Length of the critical path under per-task execution times."""
        longest: Dict[MTask, float] = {}
        for t in self.topological_order():
            best = 0.0
            for p in self._g.predecessors(t):
                best = max(best, longest[p])
            longest[t] = best + time[t]
        return max(longest.values(), default=0.0)

    def critical_path(self, time: Dict[MTask, float]) -> List[MTask]:
        """Tasks of (one) critical path, in execution order."""
        longest: Dict[MTask, float] = {}
        pred: Dict[MTask, Optional[MTask]] = {}
        for t in self.topological_order():
            best, arg = 0.0, None
            for p in self._g.predecessors(t):
                if longest[p] > best:
                    best, arg = longest[p], p
            longest[t] = best + time[t]
            pred[t] = arg
        if not longest:
            return []
        end = max(longest, key=lambda t: longest[t])
        path = [end]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path

    def total_work(self) -> float:
        """Sum of the sequential work of all tasks (flop)."""
        return sum(t.work for t in self._g.nodes)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """Shallow-copy the graph (tasks are shared, structure is not)."""
        out = TaskGraph(name or self.name)
        out._g = self._g.copy()
        out._by_name = dict(self._by_name)
        return out

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying :class:`networkx.DiGraph`."""
        return self._g.copy()

    def validate(self) -> None:
        """Check the structural invariants; raises ``ValueError`` on
        violation.  Cheap enough to call after hand-construction."""
        if not nx.is_directed_acyclic_graph(self._g):
            raise ValueError(f"graph {self.name!r} contains a cycle")
        for u, v, flows in self.edges():
            for f in flows:
                if f.elements < 0 or f.itemsize <= 0:
                    raise ValueError(
                        f"invalid flow {f.var!r} on edge {u.name} -> {v.name}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph({self.name!r}, tasks={len(self)}, edges={self.num_edges})"
        )
