"""A compiled program template, filled per problem, builds exactly the
graph a template-free unroll builds.

``reference_build`` below builds without a template: it parses,
unrolls, wires def/use edges, prunes and validates on every call.
Every instance the template path hands out must equal it in names,
topological order, both adjacency row orders, flows, the bit patterns
of every cost and the program digest, and no two instances may share a
task, a flow list or a mutable ``meta``."""

from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.graph import DataFlow, TaskGraph
from repro.core.task import AccessMode, DistributionSpec, MTask, Parameter
from repro.graphs.synthetic import fit_to_cores
from repro.obs.registry import program_digest
from repro.ode import ODE_METHODS, PAPER_CONFIGS, bruss2d
from repro.ode import programs as ode_programs
from repro.serve import api
from repro.spec import BuildResult, TaskCost, build_program, parse
from repro.spec.ast_nodes import (
    Arg,
    Call,
    ForLoop,
    Name,
    Par,
    ParamDecl,
    Program,
    Seq,
    WhileLoop,
    eval_expr,
)

_MODE = {"in": AccessMode.IN, "out": AccessMode.OUT, "inout": AccessMode.INOUT}


# ----------------------------------------------------------------------
# the template-free reference
# ----------------------------------------------------------------------
class _Var:
    def __init__(self, base: str, count: Optional[int]) -> None:
        self.base, self.count = base, count

    def instances(self, name: str) -> List[str]:
        if self.count is None:
            return [name]
        return [f"{name}[{i}]" for i in range(1, self.count + 1)]


def _render(arg: Arg, env: Dict[str, int]) -> str:
    if arg.index is None:
        return str(env[arg.name]) if arg.name in env else arg.name
    return f"{arg.name}[{eval_expr(arg.index, env)}]"


class _Reference:
    """Unroll, wire, prune and validate one cmmain for one problem."""

    def __init__(self, program: Program, sizes, costs) -> None:
        self.program, self.costs = program, dict(costs or {})
        self.env: Dict[str, int] = {}
        for c in program.consts:
            self.env[c.name] = eval_expr(c.value, self.env)
        self.sizes = {"scalar": 1, "int": 1, **sizes}
        self.types = {base: _Var(base, None) for base in self.sizes}
        for td in program.types:
            count = eval_expr(td.count, self.env) if td.count is not None else None
            self.types[td.name] = _Var(self.types[td.base].base, count)
        self.counter = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}#{self.counter}"

    def build(self, main_name=None) -> BuildResult:
        main = self.program.main(main_name)
        variables = {p.name: self.types[p.type_name] for p in main.params}
        for vd in main.variables:
            for name in vd.names:
                variables[name] = self.types[vd.type_name]
        result = BuildResult(TaskGraph(main.name), consts=dict(self.env))
        self.graph(result.graph, [main.body], variables, dict(self.env), result)
        return result

    def graph(self, graph, stmts, variables, env, result) -> None:
        self.variables = variables
        insts = [i for name, info in variables.items() for i in info.instances(name)]
        self.elems = {
            i: self.sizes[info.base]
            for name, info in variables.items()
            for i in info.instances(name)
        }
        start = MTask(
            self.fresh("start"),
            work=0.0,
            params=tuple(Parameter(i, AccessMode.OUT, self.elems[i]) for i in insts),
            meta={"structural": True},
        )
        graph.add_task(start)
        writers = {i: (start, DistributionSpec()) for i in insts}
        for s in stmts:
            self.emit(graph, writers, s, env, result)
        stop = MTask(
            self.fresh("stop"),
            work=0.0,
            params=tuple(Parameter(i, AccessMode.IN, self.elems[i]) for i in insts),
            meta={"structural": True},
        )
        graph.add_task(stop)
        for t in graph.sinks():
            if t is not stop:
                graph.add_dependency(t, stop, [])
        graph.prune_redundant_edges()
        graph.validate()

    def emit(self, graph, writers, stmt, env, result) -> None:
        if isinstance(stmt, Call):
            self.call(graph, writers, stmt, env)
        elif isinstance(stmt, (Seq, Par)):
            for s in stmt.body:
                self.emit(graph, writers, s, env, result)
        elif isinstance(stmt, ForLoop):
            for i in range(eval_expr(stmt.lo, env), eval_expr(stmt.hi, env) + 1):
                for s in stmt.body:
                    self.emit(graph, writers, s, {**env, stmt.var: i}, result)
        else:
            assert isinstance(stmt, WhileLoop)
            self.loop(graph, writers, stmt, env, result)

    def call(self, graph, writers, call: Call, env) -> None:
        decl = self.program.task(call.task)
        cost = self.costs.get(call.task, TaskCost())
        arg_env = dict(env)
        reads, writes, params = [], [], []
        for arg, pdecl in zip(call.args, decl.params):
            if arg.name not in self.variables:
                arg_env[pdecl.name] = eval_expr(Name(arg.name), env)
                continue
            info = self.variables[arg.name]
            insts = (
                [f"{arg.name}[{eval_expr(arg.index, env)}]"]
                if arg.index is not None
                else info.instances(arg.name)
            )
            for inst in insts:
                mode = _MODE[pdecl.mode]
                params.append(
                    Parameter(inst, mode, self.elems[inst], dist=DistributionSpec(pdecl.dist))
                )
                if mode.reads:
                    reads.append((inst, pdecl))
                if mode.writes:
                    writes.append((inst, pdecl))
        rendered = ",".join(_render(a, env) for a in call.args)
        task = MTask(
            self.fresh(f"{call.task}({rendered})"),
            work=float(cost.work(arg_env, self.sizes)),
            comm=tuple(cost.comm(arg_env, self.sizes)),
            params=tuple(params),
            sync_points=cost.sync_points,
            func=cost.func,
            meta={"basic": call.task, "env": dict(arg_env)},
        )
        graph.add_task(task)
        self.wire(graph, writers, task, reads, writes)

    def wire(self, graph, writers, task, reads, writes) -> None:
        for inst, pdecl in reads:
            writer, wdist = writers[inst]
            if writer is task:
                continue
            flow = DataFlow(
                inst, self.elems[inst], src_dist=wdist, dst_dist=DistributionSpec(pdecl.dist)
            )
            graph.add_dependency(
                writer, task, [] if writer.meta.get("structural") else [flow]
            )
        for inst, pdecl in writes:
            writer, _ = writers[inst]
            if writer is not task:
                graph.add_dependency(writer, task, [])
            writers[inst] = (task, DistributionSpec(pdecl.dist))

    def loop(self, graph, writers, loop: WhileLoop, env, result) -> None:
        body = TaskGraph(self.fresh("while-body"))
        body_result = BuildResult(body)
        outer = self.variables, self.elems
        self.graph(body, list(loop.body), self.variables, env, body_result)
        self.variables, self.elems = outer
        read, written = {}, {}
        for t in body:
            if t.meta.get("structural"):
                continue
            for p in t.params:
                if p.mode.reads and p.name not in written:
                    read.setdefault(p.name, p.dist)
                if p.mode.writes:
                    written[p.name] = p.dist
        params = [
            Parameter(
                i,
                AccessMode.INOUT if i in written else AccessMode.IN,
                self.elems[i],
                dist=d,
            )
            for i, d in sorted(read.items())
        ] + [
            Parameter(i, AccessMode.OUT, self.elems[i], dist=d)
            for i, d in sorted(written.items())
            if i not in read
        ]
        node = MTask(
            self.fresh("while"),
            work=body.total_work(),
            params=tuple(params),
            meta={"kind": "while", "cond": loop.cond},
        )
        graph.add_task(node)
        result.bodies[node] = body
        result.bodies.update(body_result.bodies)
        self.wire(
            graph,
            writers,
            node,
            [(p.name, ParamDecl(p.name, "", "in", p.dist.kind)) for p in params if p.mode.reads],
            [(p.name, ParamDecl(p.name, "", "out", p.dist.kind)) for p in params if p.mode.writes],
        )


def reference_build(source: str, sizes, costs=None, main=None) -> BuildResult:
    return _Reference(parse(source), sizes, costs).build(main)


# ----------------------------------------------------------------------
# equality, field by field
# ----------------------------------------------------------------------
def _hex(x) -> str:
    return float(x).hex()


def _flows(flows: Sequence[DataFlow]) -> List[Tuple]:
    return [(f.var, f.elements, f.itemsize, f.src_dist, f.dst_dist) for f in flows]


def _task(t: MTask) -> Tuple:
    return (
        t.name,
        _hex(t.work),
        [
            (c.op, _hex(c.total_elements), c.itemsize, _hex(c.count), c.scope,
             c.task_parallel_only)
            for c in t.comm
        ],
        _hex(t.sync_points),
        t.params,
        t.min_procs,
        t.max_procs,
        # a functional body is a fresh closure per cost registry
        getattr(t.func, "__code__", None),
        t.meta,
    )


def _shape(graph: TaskGraph) -> Dict:
    succ, pred = graph.successor_index(), graph.predecessor_index()
    return {
        "name": graph.name,
        "tasks": [_task(t) for t in graph],
        "order": [t.name for t in graph.topological_order()],
        "succ": [[(s.name, _flows(f)) for s, f in succ[t].items()] for t in graph],
        "pred": [[(p.name, _flows(f)) for p, f in pred[t].items()] for t in graph],
        "digest": program_digest(graph),
    }


def assert_same_build(got: BuildResult, want: BuildResult) -> None:
    assert _shape(got.graph) == _shape(want.graph)
    assert [t.name for t in got.bodies] == [t.name for t in want.bodies]
    for (node, body), (ref_node, ref_body) in zip(got.bodies.items(), want.bodies.items()):
        assert _task(node) == _task(ref_node)
        assert _shape(body) == _shape(ref_body)
    assert got.consts == want.consts
    # every flow list is one object on both sides of its edge
    for graph in (got.graph, *got.bodies.values()):
        pred = graph.predecessor_index()
        for u, v, flows in graph.edges():
            assert pred[v][u] is flows


def _graphs(result: BuildResult) -> List[TaskGraph]:
    return [result.graph, *result.bodies.values()]


def assert_disjoint(a: BuildResult, b: BuildResult) -> None:
    """No task, flow list or mutable ``meta`` object is shared."""

    def objects(result):
        out = set()
        for graph in _graphs(result):
            for t in graph:
                out |= {id(t), id(t.meta)}
                if "env" in t.meta:
                    out.add(id(t.meta["env"]))
            out |= {id(flows) for _, _, flows in graph.edges()}
        return out

    assert not objects(a) & objects(b)


# ----------------------------------------------------------------------
# the five paper solvers, both variants
# ----------------------------------------------------------------------
SIZES = (3, 8, 40)  #: BRUSS2D grids (n = 2 * grid**2)


@pytest.mark.parametrize("functional", [False, True], ids=["cost", "functional"])
@pytest.mark.parametrize("method", ODE_METHODS)
def test_solver_instances_equal_the_reference(method, functional):
    cfg = PAPER_CONFIGS[method]
    for grid in SIZES:
        problem = bruss2d(grid)
        got = ode_programs.build_ode_program(problem, cfg, functional)
        source, costs = ode_programs._source_and_costs(problem, cfg, functional)
        want = reference_build(source, {"vector": problem.n}, costs)
        assert_same_build(got, want)


@pytest.mark.parametrize("functional", [False, True], ids=["cost", "functional"])
def test_instances_share_no_task_and_no_mutable_meta(functional):
    cfg = PAPER_CONFIGS["irk"]
    first = ode_programs.build_ode_program(bruss2d(8), cfg, functional)
    want = _shape(ode_programs.step_graph(bruss2d(8), cfg, functional))
    # mutate everything a caller may touch on one instance
    for graph in _graphs(first):
        for t in graph:
            t.min_procs = 64
            t.meta.setdefault("env", {})["l"] = -1
        fit_to_cores(graph, 16)
        assert {t.min_procs for t in graph} == {16}
        for _, _, flows in graph.edges():
            flows.append(DataFlow("extra", 1))
    second = ode_programs.build_ode_program(bruss2d(8), cfg, functional)
    assert_disjoint(first, second)
    assert _shape(second.body_of(second.composed_nodes()[0])) == want
    assert all(t.min_procs == 1 for g in _graphs(second) for t in g)


# ----------------------------------------------------------------------
# a served DSL program, sent twice
# ----------------------------------------------------------------------
LOOPED = """
const R = 3;
type Rvectors = vector[R];
task init(t : scalar : out : replic, x : vector : out : block);
task step(j : int : in : replic, i : int : in : replic, t : scalar : in : replic,
          x : vector : in : block, v : vector : inout : cyclic);
task combine(t : scalar : inout : replic, V : Rvectors : in : block,
             x : vector : inout : replic, w : grid : inout : block);
cmmain LOOP(x : vector : inout : replic, w : grid : inout : block) {
  var t : scalar;
  var V : Rvectors;
  var i, j : int;
  seq {
    init(t, x);
    while (t < 10) {
      seq {
        parfor (i = 1 : R) { for (j = 1 : i) { step(j, i, t, x, V[i]); } }
        combine(t, V, x, w);
      }
    }
  }
}
"""


def _served(work, sizes):
    request = api.validate_request(
        "schedule",
        {
            "program": {"dsl": LOOPED, "sizes": sizes, "work": work},
            "topology": {"platform": "chic", "cores": 16},
        },
    )
    return api.compile_request(request)


def test_served_dsl_instances_equal_the_reference():
    sent = [
        ({"*": 2.0e5}, {"vector": 64, "grid": 9}),
        ({"*": 1.0, "step": 3.5e6, "combine": 0.25}, {"vector": 1000, "grid": 7}),
    ]
    units = [_served(work, sizes) for work, sizes in sent]
    for (work, sizes), unit in zip(sent, units):
        costs = {
            name: TaskCost(work=lambda env, sz, _w=float(work.get(name, work["*"])): _w)
            for name in ("init", "step", "combine")
        }
        want = reference_build(LOOPED, sizes, costs)
        body = want.body_of(want.composed_nodes()[0])
        assert _shape(unit.graph) == _shape(body)
        assert unit.program_digest == program_digest(body)
    first, second = (unit.graph for unit in units)
    assert not {id(t) for t in first} & {id(t) for t in second}
    assert not {id(t.meta) for t in first} & {id(t.meta) for t in second}


def test_templates_are_compiled_once_per_source_and_size_names():
    from repro.spec import build as spec_build

    spec_build.compile_source.cache_clear()
    sizes = [{"vector": 4, "grid": 2}, {"vector": 9, "grid": 5}]
    results = [build_program(LOOPED, s) for s in sizes]
    info = spec_build.compile_source.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for s, result in zip(sizes, results):
        assert_same_build(result, reference_build(LOOPED, s))


#: ``both`` reads ``y`` (from ``b``) before ``x`` (from the earlier ``a``),
#: and ``a``'s WAW edge to ``rw`` survives the prune, so it moves behind
#: ``a``'s payload edge: neither row is in task order
ROWS = """
task a(x : vector : out : replic, w : vector : out : replic);
task rw(w : vector : out : replic);
task b(y : vector : out : block);
task both(y : vector : in : cyclic, x : vector : in : replic, z : vector : out : replic);
cmmain ORDER(z : vector : out : replic) {
  var x, w, y : vector;
  seq { a(x, w); rw(w); b(y); both(y, x, z); }
}
"""


def test_rows_keep_their_wiring_order_not_the_task_order():
    got = build_program(ROWS, {"vector": 5})
    assert_same_build(got, reference_build(ROWS, {"vector": 5}))
    by_name = {t.name.split("(")[0]: t for t in got.graph}
    pred, succ = got.graph.predecessor_index(), got.graph.successor_index()
    assert [p.name.split("(")[0] for p in pred[by_name["both"]]] == ["b", "a"]
    assert [s.name.split("(")[0] for s in succ[by_name["a"]]] == ["both", "rw"]
