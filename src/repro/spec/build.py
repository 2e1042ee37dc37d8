"""Build hierarchical M-task graphs from specification ASTs.

The builder implements what the CM-task compiler's front end does for the
paper's example (Figs. 3 and 4):

* ``const`` declarations are evaluated into an environment,
* ``for``/``parfor`` loops with compile-time bounds are fully unrolled,
* ``while`` loops become a single *composed* node of the upper-level
  graph whose ``meta["body"]`` holds the lower-level graph of one loop
  iteration (the hierarchical scheduling approach of Section 2.2.3),
* data dependencies (input-output relations) are derived from the access
  modes of the task interfaces: a reader depends on the last writer of
  each variable instance, a writer additionally orders behind the
  previous writer (a WAW edge without payload).  The paper's M-task
  graphs carry no WAR edges -- anti-dependences are resolved by the
  replicated data model -- so a reader followed by a writer stays
  unordered (Fig. 4),
* each produced graph receives unique structural ``start``/``stop``
  nodes, as the compiler inserts automatically.

Costs are attached through a :class:`TaskCost` registry: the spec
language deliberately says nothing about execution times, so work/comm
formulas (e.g. the ``T(step, ...)`` function of Section 3.1) are supplied
by the caller per basic task name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
    ForLoop,
    Name,
    Par,
    ParamDecl,
    Program,
    Seq,
    Stmt,
    WhileLoop,
    eval_expr,
)

__all__ = ["TaskCost", "BuildResult", "GraphBuilder", "build_program"]

_MODE = {"in": AccessMode.IN, "out": AccessMode.OUT, "inout": AccessMode.INOUT}
_BASE_SIZES = {"scalar": 1, "int": 1}


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


class GraphBuilder:
    """Builds the hierarchical M-task graph of one ``cmmain``."""

    def __init__(
        self,
        program: Program,
        sizes: Mapping[str, int],
        costs: Optional[Mapping[str, TaskCost]] = None,
    ) -> None:
        self.program = program
        self.costs = dict(costs or {})
        self.env: Dict[str, int] = {}
        for c in program.consts:
            self.env[c.name] = eval_expr(c.value, self.env)
        self.sizes: Dict[str, int] = dict(_BASE_SIZES)
        self.sizes.update(sizes)
        # resolve type declarations
        self.types: Dict[str, _VarInfo] = {}
        for base, n in self.sizes.items():
            self.types[base] = _VarInfo(base, None)
        for td in program.types:
            if td.base not in self.types:
                raise ValueError(f"type {td.name!r} uses unknown base {td.base!r}")
            count = eval_expr(td.count, self.env) if td.count is not None else None
            self.types[td.name] = _VarInfo(self.types[td.base].base, count)
        self._counter = 0

    # ------------------------------------------------------------------
    def base_elements(self, base: str) -> int:
        """Element count of a base type name."""
        try:
            return self.sizes[base]
        except KeyError:
            raise ValueError(
                f"no element count known for base type {base!r}; "
                f"pass it in the sizes mapping"
            ) from None

    def _fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}#{self._counter}"

    def build(self, main_name: Optional[str] = None) -> BuildResult:
        """Expand the program's cmmain into a hierarchical task graph."""
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
        result = BuildResult(TaskGraph(main.name), consts=dict(self.env))
        self._build_graph(result.graph, [main.body], variables, dict(self.env), result)
        return result

    def _var_info(self, type_name: str) -> _VarInfo:
        try:
            return self.types[type_name]
        except KeyError:
            raise ValueError(f"unknown type {type_name!r}") from None

    # ------------------------------------------------------------------
    # graph construction with def/use tracking
    # ------------------------------------------------------------------
    def _build_graph(
        self,
        graph: TaskGraph,
        stmts: Sequence[Stmt],
        variables: Dict[str, _VarInfo],
        env: Dict[str, int],
        result: BuildResult,
    ) -> None:
        all_instances = [
            inst for name, info in variables.items() for inst in info.instances(name)
        ]
        inst_elems = {
            inst: self.base_elements(info.base)
            for name, info in variables.items()
            for inst in info.instances(name)
        }
        start = MTask(
            self._fresh("start"),
            work=0.0,
            params=tuple(
                Parameter(inst, AccessMode.OUT, inst_elems[inst]) for inst in all_instances
            ),
            meta={"structural": True},
        )
        graph.add_task(start)
        writers: Dict[str, Tuple[MTask, DistributionSpec]] = {
            inst: (start, DistributionSpec()) for inst in all_instances
        }

        state = _BuildState(self, graph, variables, writers, inst_elems, result)
        for s in stmts:
            state.emit(s, env)

        stop = MTask(
            self._fresh("stop"),
            work=0.0,
            params=tuple(
                Parameter(inst, AccessMode.IN, inst_elems[inst]) for inst in all_instances
            ),
            meta={"structural": True},
        )
        graph.add_task(stop)
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
        graph.validate()


class _BuildState:
    """Mutable def/use state threaded through statement emission."""

    def __init__(
        self,
        builder: GraphBuilder,
        graph: TaskGraph,
        variables: Dict[str, _VarInfo],
        writers: Dict[str, Tuple[MTask, DistributionSpec]],
        inst_elems: Dict[str, int],
        result: BuildResult,
    ) -> None:
        self.b = builder
        self.graph = graph
        self.variables = variables
        self.writers = writers
        self.inst_elems = inst_elems
        self.result = result

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
        """Emit the M-task for one task activation."""
        decl = self.b.program.task(call.task)
        if len(call.args) != len(decl.params):
            raise ValueError(
                f"task {call.task!r} takes {len(decl.params)} arguments, "
                f"got {len(call.args)}"
            )
        cost = self.b.costs.get(call.task, TaskCost())
        arg_env = dict(env)
        reads: List[Tuple[str, ParamDecl]] = []
        writes: List[Tuple[str, ParamDecl]] = []
        params: List[Parameter] = []
        for arg, pdecl in zip(call.args, decl.params):
            instances, value = self._resolve_arg(arg, env)
            if value is not None:
                arg_env[pdecl.name] = value
                continue
            for inst in instances:
                elems = self.inst_elems[inst]
                params.append(
                    Parameter(
                        inst,
                        _MODE[pdecl.mode],
                        elems,
                        dist=DistributionSpec(pdecl.dist),
                    )
                )
                if _MODE[pdecl.mode].reads:
                    reads.append((inst, pdecl))
                if _MODE[pdecl.mode].writes:
                    writes.append((inst, pdecl))

        rendered = ",".join(_render_arg(a, env) for a in call.args)
        task = MTask(
            self.b._fresh(f"{call.task}({rendered})"),
            work=float(cost.work(arg_env, self.b.sizes)),
            comm=tuple(cost.comm(arg_env, self.b.sizes)),
            params=tuple(params),
            sync_points=cost.sync_points,
            func=cost.func,
            meta={"basic": call.task, "env": dict(arg_env)},
        )
        self.graph.add_task(task)
        self._wire(task, reads, writes)

    def _wire(
        self,
        task: MTask,
        reads: Sequence[Tuple[str, ParamDecl]],
        writes: Sequence[Tuple[str, ParamDecl]],
    ) -> None:
        for inst, pdecl in reads:
            writer, wdist = self.writers[inst]
            if writer is task:
                continue
            structural = bool(writer.meta.get("structural"))
            flow = DataFlow(
                inst,
                self.inst_elems[inst],
                src_dist=wdist,
                dst_dist=DistributionSpec(pdecl.dist),
            )
            self.graph.add_dependency(writer, task, [] if structural else [flow])
        for inst, pdecl in writes:
            writer, _ = self.writers[inst]
            if writer is not task:
                # WAW ordering edge
                self.graph.add_dependency(writer, task, [])
            self.writers[inst] = (task, DistributionSpec(pdecl.dist))

    # -- while loops → composed nodes -----------------------------------------
    def emit_while(self, loop: WhileLoop, env: Dict[str, int]) -> None:
        """Emit a composed node wrapping a while-loop body."""
        body_graph = TaskGraph(self.b._fresh("while-body"))
        body_result = BuildResult(body_graph)
        self.b._build_graph(body_graph, list(loop.body), self.variables, env, body_result)
        # variables touched by the body determine the composed node's params
        read_insts: Dict[str, DistributionSpec] = {}
        written_insts: Dict[str, DistributionSpec] = {}
        for t in body_graph:
            if t.meta.get("structural"):
                continue
            for p in t.params:
                if p.mode.reads and p.name not in written_insts:
                    read_insts.setdefault(p.name, p.dist)
                if p.mode.writes:
                    written_insts[p.name] = p.dist
        params: List[Parameter] = []
        for inst, dist in sorted(read_insts.items()):
            mode = AccessMode.INOUT if inst in written_insts else AccessMode.IN
            params.append(Parameter(inst, mode, self.inst_elems[inst], dist=dist))
        for inst, dist in sorted(written_insts.items()):
            if inst not in read_insts:
                params.append(
                    Parameter(inst, AccessMode.OUT, self.inst_elems[inst], dist=dist)
                )
        node = MTask(
            self.b._fresh("while"),
            work=body_graph.total_work(),
            params=tuple(params),
            meta={"kind": "while", "cond": loop.cond},
        )
        self.graph.add_task(node)
        self.result.bodies[node] = body_graph
        self.result.bodies.update(body_result.bodies)
        reads = [(p.name, ParamDecl(p.name, "", "in", p.dist.kind)) for p in params if p.mode.reads]
        writes = [(p.name, ParamDecl(p.name, "", "out", p.dist.kind)) for p in params if p.mode.writes]
        self._wire(node, reads, writes)


def _render_arg(arg: Arg, env: Dict[str, int]) -> str:
    if arg.index is None:
        if arg.name in env:
            return str(env[arg.name])
        return arg.name
    return f"{arg.name}[{eval_expr(arg.index, env)}]"


def build_program(
    source: str,
    sizes: Mapping[str, int],
    costs: Optional[Mapping[str, TaskCost]] = None,
    main: Optional[str] = None,
) -> BuildResult:
    """Parse and build a specification program in one step."""
    from .parser import parse

    return GraphBuilder(parse(source), sizes, costs).build(main)
