"""The M-task graph: a DAG of tasks with input-output relations.

Nodes are :class:`~repro.core.task.MTask` activations; a directed edge
``(M1, M2)`` states that ``M1`` produces data required by ``M2``
(Section 2.1).  Edges carry the data flows (variable name, size,
source/target distribution specs) so the re-distribution volume between
any two scheduled tasks can be computed.

:class:`TaskGraph` owns its adjacency: one insertion-ordered map from
every task to its successors and one to its predecessors, each edge's
flow list being the same object on both sides.  On top of them it keeps
the domain invariants -- acyclicity, unique task names, well-formed data
flows.  Every pass of the scheduler walks these two maps; nothing in
the package imports networkx (the tests check the orders below against
it).

**Order contract.**  Schedules, fingerprints and cache keys depend on
the order the graph hands things out, so all of it is fixed:

* tasks iterate in the order they were added;
* :meth:`TaskGraph.successors` / :meth:`TaskGraph.predecessors` list an
  edge at the position it was first added (adding the same pair again
  merges the flows and moves nothing);
* :meth:`TaskGraph.edges` walks producers in task order, each with its
  consumers in successor order;
* :meth:`TaskGraph.topological_order` is the first-in-first-out Kahn
  order: the sources in task order, then every task at the moment its
  last predecessor was emitted, successors visited in successor order
  (the flattened generation order ``networkx.topological_sort`` gives);
* :meth:`TaskGraph.prune_redundant_edges` moves every payload-free edge
  it keeps behind the payload edges of both endpoints.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .task import AccessMode, DistributionSpec, MTask, Parameter

__all__ = ["DataFlow", "TaskGraph"]

#: one side of the adjacency: task -> {neighbour: flows of the edge}
Adjacency = Dict[MTask, Dict[MTask, List["DataFlow"]]]


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
        self._succ: Adjacency = {}
        self._pred: Adjacency = {}
        self._by_name: Dict[str, MTask] = {}
        #: topological order of the current structure; every structural
        #: change drops it, so a validated graph is never sorted twice
        self._topo: Optional[List[MTask]] = None
        self._deferred = False  #: inside a :meth:`deferred_validation` block

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_task(self, task: MTask) -> MTask:
        """Add a task node (idempotent; duplicate names are errors)."""
        if task in self._succ:
            return task
        if task.name in self._by_name:
            raise ValueError(f"duplicate task name {task.name!r} in graph {self.name!r}")
        self._succ[task] = {}
        self._pred[task] = {}
        self._by_name[task.name] = task
        self._topo = None
        return task

    @classmethod
    def assembled(
        cls,
        name: str,
        succ: Adjacency,
        pred: Adjacency,
        order: Optional[List[MTask]] = None,
    ) -> "TaskGraph":
        """A graph over prepared adjacency maps, taken as they are: no
        copies.  With their topological ``order`` nothing is checked --
        the fill step of a compiled program template
        (:mod:`repro.spec.build`) hands in fresh tasks and flow lists in
        the rows and order of a graph that was checked when the template
        was compiled.  Without it the task names must be unique and one
        Kahn pass finds the order or the cycle (chain contraction's
        assembled graph)."""
        graph = cls(name)
        graph._succ, graph._pred, graph._topo = succ, pred, order
        graph._by_name = by_name = {t.name: t for t in succ}
        if order is None:
            if len(by_name) < len(succ):
                dup = next(t.name for t in succ if by_name[t.name] is not t)
                raise ValueError(f"duplicate task name {dup!r} in graph {name!r}")
            graph._order()
        return graph

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
        # outside a deferred block: a new edge closes a cycle iff the
        # graph already has a path consumer ->..-> producer
        if (
            not self._deferred
            and consumer not in self._succ[producer]
            and producer in self.descendants(consumer)
        ):
            raise ValueError(
                f"edge {producer.name!r} -> {consumer.name!r} would create a cycle"
            )
        self._store(((producer, consumer, flows),))

    def add_edges_bulk(
        self, edges: Iterable[Tuple[MTask, MTask, Sequence[DataFlow]]]
    ) -> None:
        """Add many dependency edges with one structural check at the end.

        The construction primitive of the generators and of chain
        contraction: both endpoints of every edge must have been added
        (:meth:`add_tasks`), a repeated ``(producer, consumer)`` pair
        merges its flows as :meth:`add_dependency` does, and one closing
        :meth:`validate` covers the batch.  If an edge is malformed or
        the batch closes a cycle the call raises and adds nothing.
        """
        with self.deferred_validation():
            self._store(edges)

    def _store(self, edges: Iterable[Tuple[MTask, MTask, Sequence[DataFlow]]]) -> None:
        """Write edges into both adjacency maps.  A new pair is appended
        to its two rows; a known pair keeps its place and gets a new,
        longer flow list (stored lists are never changed in place, which
        is what lets copies and snapshots share them)."""
        succ, pred = self._succ, self._pred
        for producer, consumer, flows in edges:
            if producer is consumer:
                raise ValueError(f"self-dependency on task {producer.name!r}")
            try:
                nbrs, back = succ[producer], pred[consumer]
            except KeyError:
                raise ValueError("add_edges_bulk endpoints must be added tasks") from None
            known = nbrs.get(consumer)
            nbrs[consumer] = back[producer] = (
                list(flows) if known is None else known + list(flows)
            )
        self._topo = None

    def _snapshot(self):
        """What a failed transaction puts back: copies of the adjacency
        rows and the name table (O(V + E)) -- or, for a graph without
        edges yet (a generator's or a contraction's fresh graph), only its
        task list, one list copy instead of two dicts per task."""
        if not any(self._succ.values()):
            return list(self._succ)
        return (
            {t: dict(row) for t, row in self._succ.items()},
            {t: dict(row) for t, row in self._pred.items()},
            dict(self._by_name),
        )

    @contextmanager
    def deferred_validation(self) -> Iterator["TaskGraph"]:
        """Skip per-edge cycle checks inside the block; one
        :meth:`validate` call on exit covers the whole batch.

        Inside this context :meth:`add_dependency` is O(1) amortised;
        entering and leaving the outermost block are O(V + E) each (a
        snapshot, the closing validation).  The block is a transaction:
        if it raises, or the closing validation finds a cycle, the graph
        is put back to the snapshot before the exception propagates.
        Nesting is allowed -- only the outermost block validates.
        """
        if self._deferred:
            yield self
            return
        saved = self._snapshot()
        self._deferred = True
        try:
            yield self
            self.validate()
        except BaseException:
            if isinstance(saved, list):  # these tasks and no edges
                self._succ = {t: {} for t in saved}
                self._pred = {t: {} for t in saved}
                self._by_name = {t.name: t for t in saved}
            else:
                self._succ, self._pred, self._by_name = saved
            self._topo = None
            raise
        finally:
            self._deferred = False

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
        return len(self._succ)

    def __iter__(self) -> Iterator[MTask]:
        return iter(self._succ)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def edges(self) -> Iterator[Tuple[MTask, MTask, List[DataFlow]]]:
        """Iterate over ``(producer, consumer, flows)`` edges: producers
        in task order, each with its consumers in successor order."""
        for u, nbrs in self._succ.items():
            for v, flows in nbrs.items():
                yield u, v, flows

    def flows(self, producer: MTask, consumer: MTask) -> List[DataFlow]:
        """Return the data flows on the edge producer -> consumer."""
        try:
            return list(self._succ[producer][consumer])
        except KeyError:
            raise KeyError(
                f"no edge {producer.name!r} -> {consumer.name!r} in graph {self.name!r}"
            ) from None

    def predecessors(self, task: MTask) -> Tuple[MTask, ...]:
        """Direct predecessors of ``task``."""
        return tuple(self._pred[task])

    def successors(self, task: MTask) -> Tuple[MTask, ...]:
        """Direct successors of ``task``."""
        return tuple(self._succ[task])

    def predecessor_index(self) -> Mapping[MTask, Mapping[MTask, List[DataFlow]]]:
        """The stored predecessor adjacency, read-only: every task maps
        to its predecessors (in order) and the flows of that edge.
        Whole-graph passes index into this instead of building a tuple
        per :meth:`predecessors` call."""
        return MappingProxyType(self._pred)

    def successor_index(self) -> Mapping[MTask, Mapping[MTask, List[DataFlow]]]:
        """The stored successor adjacency, read-only."""
        return MappingProxyType(self._succ)

    def sinks(self) -> Tuple[MTask, ...]:
        """Tasks with no successors."""
        return tuple(t for t, ss in self._succ.items() if not ss)

    def _order(self) -> List[MTask]:
        """The cached topological order (one Kahn pass after a structural
        change); raises ``ValueError`` on a cycle."""
        order = self._topo
        if order is None:
            succ = self._succ
            waiting = {t: len(ps) for t, ps in self._pred.items()}
            order = [t for t, n in waiting.items() if not n]
            for t in order:  # grows while it is walked: a FIFO queue
                for s in succ[t]:
                    waiting[s] = n = waiting[s] - 1
                    if not n:
                        order.append(s)
            if len(order) != len(succ):
                raise ValueError(f"graph {self.name!r} contains a cycle")
            self._topo = order
        return order

    def topological_order(self) -> List[MTask]:
        """Tasks in topological order (see the module's order contract)."""
        return list(self._order())

    @staticmethod
    def _reachable(adjacency: Adjacency, task: MTask) -> Set[MTask]:
        seen: Set[MTask] = set()
        stack = [task]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def descendants(self, task: MTask) -> Set[MTask]:
        """All transitive successors of ``task``."""
        return self._reachable(self._succ, task)

    def critical_path_length(self, time: Dict[MTask, float]) -> float:
        """Length of the critical path under per-task execution times."""
        longest: Dict[MTask, float] = {}
        for t in self._order():
            best = 0.0
            for p in self._pred[t]:
                best = max(best, longest[p])
            longest[t] = best + time[t]
        return max(longest.values(), default=0.0)

    def critical_path(self, time: Dict[MTask, float]) -> List[MTask]:
        """Tasks of (one) critical path, in execution order."""
        longest: Dict[MTask, float] = {}
        pred: Dict[MTask, Optional[MTask]] = {}
        for t in self._order():
            best, arg = 0.0, None
            for p in self._pred[t]:
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
        return sum(t.work for t in self._succ)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def prune_redundant_edges(self) -> None:
        """Drop every payload-free edge another path implies.

        Edges carrying data flows are never removed, so the result does
        not depend on the order edges are looked at: a payload-free edge
        ``u -> v`` goes iff some other successor of ``u`` reaches ``v``.
        One reverse-topological pass collects, as bit sets over the
        topological positions, what each task reaches through its
        successors.  A payload-free edge that stays is taken out and put
        back, i.e. it moves behind the payload edges of ``u`` and ``v``.
        """
        succ, pred = self._succ, self._pred
        bare = [(u, v) for u, v, flows in self.edges() if not flows]
        if not bare:
            return
        order = self._order()
        bit = {t: 1 << i for i, t in enumerate(order)}
        reach: Dict[MTask, int] = {}
        beyond: Dict[MTask, int] = {}  # reached in two or more steps
        for t in reversed(order):
            far = near = 0
            for s in succ[t]:
                far |= reach[s]
                near |= bit[s]
            beyond[t], reach[t] = far, far | near
        for u, v in bare:
            flows = succ[u].pop(v)
            del pred[v][u]
            if not beyond[u] & bit[v]:
                succ[u][v] = pred[v][u] = flows
        self._topo = None

    def validate(self) -> None:
        """Check the structural invariants; raises ``ValueError`` on
        violation.  Cheap enough to call after hand-construction."""
        self._order()
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
