"""Build hierarchical M-task graphs from specification programs.

The builder implements what the CM-task compiler's front end does for the
paper's example (Figs. 3 and 4), in two steps.

**Compile** (:func:`compile_source`, once per program) unrolls the
program into a size-free :class:`ProgramTemplate`:

* ``const`` declarations are evaluated into an environment,
* ``for``/``parfor`` loops with compile-time bounds are fully unrolled,
* ``while`` loops become a single *composed* node of the upper-level
  graph whose body is the lower-level graph of one loop iteration (the
  hierarchical scheduling approach of Section 2.2.3),
* data dependencies (input-output relations) are derived from the access
  modes of the task interfaces: a reader depends on the last writer of
  each variable instance, a writer additionally orders behind the
  previous writer (a WAW edge without payload).  The paper's M-task
  graphs carry no WAR edges -- anti-dependences are resolved by the
  replicated data model -- so a reader followed by a writer stays
  unordered (Fig. 4),
* each produced graph receives unique structural ``start``/``stop``
  nodes, as the compiler inserts automatically, and is transitively
  reduced.

A template holds every activation (name, basic task, bound environment,
parameter instances with access mode and distribution), the edge list
with the variables each edge carries, the topological order and the
nested loop-body templates -- everything but the element counts and
the costs, which depend on the problem size.

**Instantiate** (:meth:`ProgramTemplate.instantiate`, once per problem)
fills a template: element counts from the ``sizes`` mapping, work,
collectives, synchronisation points and bodies from a :class:`TaskCost`
registry.  The spec language deliberately says nothing about execution
times, so work/comm formulas (e.g. the ``T(step, ...)`` function of
Section 3.1) are supplied by the caller per basic task name.  It creates
fresh tasks, flows and adjacency rows in template order; nothing is
wired, pruned or sorted again.

:class:`GraphBuilder` runs both steps.  Templates are memoised per
process by source text, ``cmmain`` name and the *names* of the sizes
(:data:`TEMPLATES` of them), so every problem size of one program shares
one compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.graph import DataFlow, TaskGraph
from ..core.task import (
    AccessMode,
    CollectiveSpec,
    DistributionSpec,
    MTask,
    Parameter,
)
from .ast_nodes import (
    Arg,
    Call,
    Compare,
    ForLoop,
    Name,
    Par,
    Program,
    Seq,
    Stmt,
    WhileLoop,
    eval_expr,
)
from .parser import parse

__all__ = [
    "TaskCost",
    "BuildResult",
    "GraphBuilder",
    "ProgramTemplate",
    "TEMPLATES",
    "MAX_UNROLLED",
    "build_program",
    "compile_source",
]

_MODE = {"in": AccessMode.IN, "out": AccessMode.OUT, "inout": AccessMode.INOUT}
_BASE_SIZES = {"scalar": 1, "int": 1}
_REPLIC = DistributionSpec()

#: distinct (source, cmmain, size names) whose template is kept per process
TEMPLATES = 32

#: ceiling on the variable instances a program declares and on the
#: tasks it unrolls into, each counted with its parameters (a loop body's
#: start and stop nodes take every instance): a larger ``for`` or
#: ``vector[K]`` fails to compile (``ValueError``) before it allocates
MAX_UNROLLED = 4096


@dataclass(frozen=True)
class TaskCost:
    """Cost annotation of one basic task.

    ``work(env, sizes)`` returns the sequential flop count,
    ``comm(env, sizes)`` the internal collectives; ``env`` binds constants
    and the surrounding loop variables of the activation.
    """

    work: Callable[[Mapping[str, int], Mapping[str, int]], float] = lambda env, sizes: 0.0
    comm: Callable[
        [Mapping[str, int], Mapping[str, int]], Tuple[CollectiveSpec, ...]
    ] = lambda env, sizes: ()
    sync_points: float = 0
    func: Optional[Callable] = None


_NO_COST = TaskCost()


@dataclass
class BuildResult:
    """Hierarchical graph: the upper level plus one body graph per
    composed (while) node."""

    graph: TaskGraph
    bodies: Dict[MTask, TaskGraph] = field(default_factory=dict)
    consts: Dict[str, int] = field(default_factory=dict)

    def body_of(self, node: MTask) -> TaskGraph:
        """Return the expanded body graph of a composed node."""
        try:
            return self.bodies[node]
        except KeyError:
            raise KeyError(f"{node.name!r} is not a composed node") from None

    def composed_nodes(self) -> List[MTask]:
        """All nodes of the graph that carry an expanded body."""
        return [t for t in self.graph if t in self.bodies]


# ----------------------------------------------------------------------
# the size-free template
# ----------------------------------------------------------------------
#: a parameter without its element count: instance, access mode,
#: distribution and the base type that sizes the instance
_Param = Tuple[str, AccessMode, DistributionSpec, str]
#: a data flow without its element count: instance, source and target
#: distribution, base type
_Flow = Tuple[str, DistributionSpec, DistributionSpec, str]


class _Node(NamedTuple):
    """One task of a graph template: a structural ``start``/``stop``
    node, an activation of ``basic`` under ``env``, or a ``while`` node
    with its loop ``body``.  ``params`` index :attr:`ProgramTemplate.params`."""

    name: str
    params: Tuple[int, ...]
    basic: Optional[str] = None
    env: Mapping[str, int] = MappingProxyType({})
    body: Optional["GraphTemplate"] = None
    cond: Optional[Compare] = None


class GraphTemplate(NamedTuple):
    """One level of a compiled program, with every position an index
    into :attr:`nodes`: ``succ[i]`` / ``pred[i]`` list node ``i``'s
    neighbours in row order, each with the index of its edge in
    :attr:`flows`; :attr:`order` is the topological order.  An edge's
    flows index :attr:`ProgramTemplate.flows`."""

    name: str
    nodes: Tuple[_Node, ...]
    flows: Tuple[Tuple[int, ...], ...]
    succ: Tuple[Tuple[Tuple[int, int], ...], ...]
    pred: Tuple[Tuple[Tuple[int, int], ...], ...]
    order: Tuple[int, ...]

    def fill(
        self,
        params: Sequence[Parameter],
        flows: Sequence[DataFlow],
        sizes: Mapping[str, int],
        costs: Mapping[str, TaskCost],
        bodies: Dict[MTask, TaskGraph],
    ) -> TaskGraph:
        """A fresh graph of this level over the program's filled
        parameters and flows; loop bodies go into ``bodies``."""
        tasks: List[MTask] = []
        for node in self.nodes:
            own = tuple(map(params.__getitem__, node.params))
            if node.body is not None:
                nested: Dict[MTask, TaskGraph] = {}
                body = node.body.fill(params, flows, sizes, costs, nested)
                task = MTask(
                    node.name,
                    work=body.total_work(),
                    params=own,
                    meta={"kind": "while", "cond": node.cond},
                )
                bodies[task] = body
                bodies.update(nested)
            elif node.basic is None:
                task = MTask(node.name, work=0.0, params=own, meta={"structural": True})
            else:
                cost = costs.get(node.basic, _NO_COST)
                env = dict(node.env)
                task = MTask(
                    node.name,
                    work=float(cost.work(env, sizes)),
                    comm=tuple(cost.comm(env, sizes)),
                    params=own,
                    sync_points=cost.sync_points,
                    func=cost.func,
                    meta={"basic": node.basic, "env": dict(env)},
                )
            tasks.append(task)
        # one new list per edge, shared by its two rows
        carried = [list(map(flows.__getitem__, edge)) for edge in self.flows]
        return TaskGraph.assembled(
            self.name,
            {t: {tasks[j]: carried[e] for j, e in row} for t, row in zip(tasks, self.succ)},
            {t: {tasks[i]: carried[e] for i, e in row} for t, row in zip(tasks, self.pred)},
            [tasks[i] for i in self.order],
        )


class ProgramTemplate(NamedTuple):
    """A compiled ``cmmain``: its graph template, the constants, the
    declared basic tasks and the distinct parameters and data flows its
    levels index."""

    graph: GraphTemplate
    consts: Mapping[str, int]
    tasks: Tuple[str, ...]
    params: Tuple[_Param, ...]
    flows: Tuple[_Flow, ...]

    def instantiate(
        self, sizes: Mapping[str, int], costs: Mapping[str, TaskCost]
    ) -> BuildResult:
        """Fill the template for one problem.  ``sizes`` holds an element
        count for every base type name the template was compiled for."""
        params = [
            Parameter(inst, mode, sizes[base], dist=dist)
            for inst, mode, dist, base in self.params
        ]
        flows = [
            DataFlow(var, sizes[base], src_dist=src, dst_dist=dst)
            for var, src, dst, base in self.flows
        ]
        bodies: Dict[MTask, TaskGraph] = {}
        graph = self.graph.fill(params, flows, sizes, costs, bodies)
        return BuildResult(graph, bodies, dict(self.consts))


# ----------------------------------------------------------------------
# compile: unrolling with def/use tracking
# ----------------------------------------------------------------------
class _VarInfo:
    __slots__ = ("base", "count")

    def __init__(self, base: str, count: Optional[int]) -> None:
        self.base = base  #: base type (scalar/int/vector/...)
        self.count = count  #: None for plain vars, array length otherwise

    def instances(self, name: str) -> List[str]:
        """Instance names a symbolic variable expands to."""
        if self.count is None:
            return [name]
        return [f"{name}[{i}]" for i in range(1, self.count + 1)]


class _Compiler:
    """Compiles one ``cmmain`` of a program for a set of base type names."""

    def __init__(self, program: Program, size_names: FrozenSet[str]) -> None:
        self.program = program
        self.env: Dict[str, int] = {}
        for c in program.consts:
            self.env[c.name] = eval_expr(c.value, self.env)
        # resolve type declarations
        self.types: Dict[str, _VarInfo] = {base: _VarInfo(base, None) for base in size_names}
        for td in program.types:
            if td.base not in self.types:
                raise ValueError(f"type {td.name!r} uses unknown base {td.base!r}")
            count = eval_expr(td.count, self.env) if td.count is not None else None
            self.types[td.name] = _VarInfo(self.types[td.base].base, count)
        self.bases: Dict[str, str] = {}  #: base type of every variable instance
        #: the distinct parameters and flows, each with its index
        self.params: Dict[_Param, int] = {}
        self.flows: Dict[_Flow, int] = {}
        self._counter = 0
        #: tasks unrolled so far, each with its parameters
        self.unrolled = 0

    def _fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}#{self._counter}"

    def param(self, inst: str, mode: AccessMode, dist: DistributionSpec) -> int:
        """Index of a parameter in the program's table."""
        return self.params.setdefault((inst, mode, dist, self.bases[inst]), len(self.params))

    def flow(self, inst: str, src: DistributionSpec, dst: DistributionSpec) -> int:
        """Index of a data flow in the program's table."""
        return self.flows.setdefault((inst, src, dst, self.bases[inst]), len(self.flows))

    def _var_info(self, type_name: str) -> _VarInfo:
        try:
            return self.types[type_name]
        except KeyError:
            raise ValueError(f"unknown type {type_name!r}") from None

    def compile(self, main_name: Optional[str]) -> ProgramTemplate:
        """Unroll the program's cmmain into its template."""
        main = self.program.main(main_name)
        # variable table: cmmain parameters + local declarations
        variables: Dict[str, _VarInfo] = {}
        for p in main.params:
            variables[p.name] = self._var_info(p.type_name)
        for vd in main.variables:
            info = self._var_info(vd.type_name)
            for name in vd.names:
                if name in variables:
                    raise ValueError(f"variable {name!r} declared twice")
                variables[name] = info
        # a negative array length declares no instance (and offsets none)
        declared = sum(1 if v.count is None else max(v.count, 0) for v in variables.values())
        if declared > MAX_UNROLLED:
            raise ValueError(f"program declares more than {MAX_UNROLLED} variable instances")
        for name, info in variables.items():
            for inst in info.instances(name):
                self.bases[inst] = info.base
        graph = self.level(main.name, [main.body], variables, dict(self.env))
        return ProgramTemplate(
            graph,
            MappingProxyType(dict(self.env)),
            tuple(t.name for t in self.program.tasks),
            tuple(self.params),
            tuple(self.flows),
        )

    def level(
        self,
        name: str,
        stmts: Sequence[Stmt],
        variables: Dict[str, _VarInfo],
        env: Dict[str, int],
    ) -> GraphTemplate:
        """Compile one graph level, framed by its start and stop nodes."""
        state = _Level(self, name, variables)
        for s in stmts:
            state.emit(s, env)
        return state.template()


class _Level:
    """Def/use state of one graph level while it is compiled.

    Its :class:`TaskGraph` holds one name-only task per template node;
    an edge carries the indices of its flows in the program's table."""

    def __init__(
        self, compiler: _Compiler, name: str, variables: Dict[str, _VarInfo]
    ) -> None:
        self.c = compiler
        self.graph = TaskGraph(name)
        self.nodes: Dict[MTask, _Node] = {}
        self.variables = variables
        self.instances = [
            inst for name, info in variables.items() for inst in info.instances(name)
        ]
        self.start = self.add(
            compiler._fresh("start"),
            [(inst, AccessMode.OUT, _REPLIC) for inst in self.instances],
        )
        self.writers: Dict[str, Tuple[MTask, DistributionSpec]] = {
            inst: (self.start, _REPLIC) for inst in self.instances
        }

    def add(
        self,
        name: str,
        params: Sequence[Tuple[str, AccessMode, DistributionSpec]],
        **kind,
    ) -> MTask:
        """Add a node to the level; returns its graph task."""
        self.c.unrolled += 1 + len(params)
        if self.c.unrolled > MAX_UNROLLED:
            raise ValueError(f"program unrolls into more than {MAX_UNROLLED} tasks and parameters")
        task = self.graph.add_task(MTask(name))
        self.nodes[task] = _Node(name, tuple(self.c.param(*p) for p in params), **kind)
        return task

    def template(self) -> GraphTemplate:
        """Close the level with its stop node and return its graph as
        index rows, in task and row order."""
        graph = self.graph
        stop = self.add(
            self.c._fresh("stop"),
            [(inst, AccessMode.IN, _REPLIC) for inst in self.instances],
        )
        # every sink precedes the unique stop node
        for t in graph.sinks():
            if t is not stop:
                graph.add_dependency(t, stop, [])
        # the compiler-produced graphs of the paper (Fig. 4) are
        # transitively reduced: a replicated live-in variable read by
        # every micro-step yields an edge only to the *first* step of
        # each chain.  Edges carrying data flows are never removed,
        # because their re-distribution would be lost.
        graph.prune_redundant_edges()
        tasks = list(graph)
        at = {t: i for i, t in enumerate(tasks)}
        flows: List[Tuple[int, ...]] = []
        edge: Dict[Tuple[MTask, MTask], int] = {}
        succ = []
        for t, row in graph.successor_index().items():
            out = []
            for s, carried in row.items():
                edge[t, s] = len(flows)
                out.append((at[s], len(flows)))
                flows.append(tuple(carried))
            succ.append(tuple(out))
        pred = tuple(
            tuple((at[p], edge[p, t]) for p in graph.predecessor_index()[t])
            for t in tasks
        )
        return GraphTemplate(
            graph.name,
            tuple(self.nodes[t] for t in tasks),
            tuple(flows),
            tuple(succ),
            pred,
            tuple(at[t] for t in graph.topological_order()),
        )

    # -- statement dispatch ------------------------------------------------
    def emit(self, stmt: Stmt, env: Dict[str, int]) -> None:
        """Emit graph nodes for one statement."""
        if isinstance(stmt, Call):
            self.emit_call(stmt, env)
        elif isinstance(stmt, (Seq, Par)):
            for s in stmt.body:
                self.emit(s, env)
        elif isinstance(stmt, ForLoop):
            lo = eval_expr(stmt.lo, env)
            hi = eval_expr(stmt.hi, env)
            for i in range(lo, hi + 1):
                inner = dict(env)
                inner[stmt.var] = i
                for s in stmt.body:
                    self.emit(s, inner)
        elif isinstance(stmt, WhileLoop):
            self.emit_while(stmt, env)
        else:  # pragma: no cover - parser only produces the above
            raise TypeError(f"unknown statement {stmt!r}")

    # -- task activations ----------------------------------------------------
    def _resolve_arg(self, arg: Arg, env: Dict[str, int]) -> Tuple[List[str], Optional[int]]:
        """Instances an argument touches; loop-variable args yield none."""
        if arg.name in self.variables:
            info = self.variables[arg.name]
            if arg.index is not None:
                if info.count is None:
                    raise ValueError(f"variable {arg.name!r} is not an array")
                idx = eval_expr(arg.index, env)
                if not 1 <= idx <= info.count:
                    raise ValueError(
                        f"index {idx} out of bounds for {arg.name!r}[1..{info.count}]"
                    )
                return [f"{arg.name}[{idx}]"], None
            return info.instances(arg.name), None
        # compile-time value (loop variable or constant)
        if arg.index is not None:
            raise ValueError(f"cannot index non-variable {arg.name!r}")
        return [], eval_expr(Name(arg.name), env)

    def emit_call(self, call: Call, env: Dict[str, int]) -> None:
        """Emit the node of one task activation."""
        decl = self.c.program.task(call.task)
        if len(call.args) != len(decl.params):
            raise ValueError(
                f"task {call.task!r} takes {len(decl.params)} arguments, "
                f"got {len(call.args)}"
            )
        arg_env = dict(env)
        params = []
        for arg, pdecl in zip(call.args, decl.params):
            instances, value = self._resolve_arg(arg, env)
            if value is not None:
                arg_env[pdecl.name] = value
                continue
            mode, dist = _MODE[pdecl.mode], DistributionSpec(pdecl.dist)
            params.extend((inst, mode, dist) for inst in instances)

        rendered = ",".join(_render_arg(a, env) for a in call.args)
        task = self.add(
            self.c._fresh(f"{call.task}({rendered})"),
            params,
            basic=call.task,
            env=MappingProxyType(arg_env),
        )
        self._wire(task, params)

    def _wire(
        self, task: MTask, params: Sequence[Tuple[str, AccessMode, DistributionSpec]]
    ) -> None:
        """Edges from the last writer of every instance ``task`` reads,
        then WAW edges from the last writer of every instance it writes."""
        for inst, mode, dist in params:
            if not mode.reads:
                continue
            writer, wdist = self.writers[inst]
            if writer is task:
                continue
            flows = [] if writer is self.start else [self.c.flow(inst, wdist, dist)]
            self.graph.add_dependency(writer, task, flows)
        for inst, mode, dist in params:
            if not mode.writes:
                continue
            writer, _ = self.writers[inst]
            if writer is not task:
                # WAW ordering edge
                self.graph.add_dependency(writer, task, [])
            self.writers[inst] = (task, dist)

    # -- while loops → composed nodes -----------------------------------------
    def emit_while(self, loop: WhileLoop, env: Dict[str, int]) -> None:
        """Emit a composed node wrapping a while-loop body."""
        body = self.c.level(self.c._fresh("while-body"), list(loop.body), self.variables, env)
        # variables touched by the body determine the composed node's params
        table = list(self.c.params)
        read_insts: Dict[str, DistributionSpec] = {}
        written_insts: Dict[str, DistributionSpec] = {}
        for node in body.nodes:
            if node.basic is None and node.body is None:
                continue  # structural
            for inst, mode, dist, _ in map(table.__getitem__, node.params):
                if mode.reads and inst not in written_insts:
                    read_insts.setdefault(inst, dist)
                if mode.writes:
                    written_insts[inst] = dist
        params = []
        for inst, dist in sorted(read_insts.items()):
            mode = AccessMode.INOUT if inst in written_insts else AccessMode.IN
            params.append((inst, mode, dist))
        for inst, dist in sorted(written_insts.items()):
            if inst not in read_insts:
                params.append((inst, AccessMode.OUT, dist))
        self._wire(self.add(self.c._fresh("while"), params, body=body, cond=loop.cond), params)


def _render_arg(arg: Arg, env: Dict[str, int]) -> str:
    if arg.index is None:
        if arg.name in env:
            return str(env[arg.name])
        return arg.name
    return f"{arg.name}[{eval_expr(arg.index, env)}]"


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
@lru_cache(maxsize=TEMPLATES)
def compile_source(
    source: str, main: Optional[str], size_names: FrozenSet[str]
) -> ProgramTemplate:
    """The template of ``source``'s cmmain ``main`` (the only one when
    ``None``) for sizes with these names, compiled once per process.
    Raises :class:`~repro.spec.lexer.LexError` /
    :class:`~repro.spec.parser.ParseError` if the source does not parse,
    ``ValueError`` / ``KeyError`` if it does not build."""
    return _Compiler(parse(source), size_names).compile(main)


class GraphBuilder:
    """Compiles one ``cmmain`` (memoised) and builds it for given sizes.

    ``sizes`` maps base type names to element counts (``scalar`` and
    ``int`` default to one element); :meth:`build` fills the template
    with a cost registry.
    """

    def __init__(
        self, source: str, sizes: Mapping[str, int], main: Optional[str] = None
    ) -> None:
        self.sizes: Dict[str, int] = dict(_BASE_SIZES)
        self.sizes.update(sizes)
        self.template = compile_source(source, main, frozenset(self.sizes))

    def build(self, costs: Optional[Mapping[str, TaskCost]] = None) -> BuildResult:
        """The hierarchical task graph for these sizes and costs."""
        return self.template.instantiate(self.sizes, costs or {})


def build_program(
    source: str,
    sizes: Mapping[str, int],
    costs: Optional[Mapping[str, TaskCost]] = None,
    main: Optional[str] = None,
) -> BuildResult:
    """Compile and build a specification program in one step."""
    return GraphBuilder(source, sizes, main).build(costs)
