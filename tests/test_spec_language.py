"""Tests for the specification-language front end (lexer, parser, builder)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CollectiveSpec
from repro.spec import (
    GraphBuilder,
    LexError,
    ParseError,
    TaskCost,
    build_program,
    parse,
    tokenize,
)
from repro.spec.ast_nodes import (
    Call,
    Compare,
    ForLoop,
    Num,
    Seq,
    WhileLoop,
    eval_expr,
    Name,
    BinOp,
)

EPOL_SPEC = """
const R = 4;
const Tend = 10;
type Rvectors = vector[R];

task init_step(t : scalar : out : replic, h : scalar : out : replic);
task step(j : int : in : replic, i : int : in : replic,
          t : scalar : in : replic, h : scalar : in : replic,
          eta_k : vector : in : replic, v : vector : inout : replic);
task combine(t : scalar : inout : replic, h : scalar : inout : replic,
             V : Rvectors : in : replic, eta_k : vector : inout : replic);

cmmain EPOL(eta_k : vector : inout : replic) {
  var t, h : scalar;
  var V : Rvectors;
  var i, j : int;
  seq {
    init_step(t, h);
    while (t < Tend) {
      seq {
        parfor (i = 1 : R) {
          for (j = 1 : i) { step(j, i, t, h, eta_k, V[i]); }
        }
        combine(t, h, V, eta_k);
      }
    }
  }
}
"""


class TestLexer:
    def test_tokens(self):
        toks = tokenize("const R = 4;")
        kinds = [t.kind for t in toks]
        assert kinds == ["keyword", "ident", "symbol", "int", "symbol", "eof"]

    def test_comments_skipped(self):
        toks = tokenize("// line\nconst /* block\nmore */ R = 1;")
        assert toks[0].text == "const"

    def test_line_numbers(self):
        toks = tokenize("a\nb")
        assert toks[0].line == 1 and toks[1].line == 2

    def test_two_char_symbols(self):
        toks = tokenize("a <= b == c")
        assert [t.text for t in toks[:5]] == ["a", "<=", "b", "==", "c"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_unexpected_char(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestParser:
    def test_full_program(self):
        prog = parse(EPOL_SPEC)
        assert len(prog.consts) == 2
        assert len(prog.tasks) == 3
        assert prog.main().name == "EPOL"
        assert prog.task("step").params[5].mode == "inout"

    def test_main_body_structure(self):
        main = parse(EPOL_SPEC).main()
        assert isinstance(main.body, Seq)
        init, loop = main.body.body
        assert isinstance(init, Call)
        assert isinstance(loop, WhileLoop)
        assert isinstance(loop.cond, Compare)

    def test_loop_bounds_are_expressions(self):
        main = parse(EPOL_SPEC).main()
        loop = main.body.body[1]
        inner = loop.body[0].body[0]
        assert isinstance(inner, ForLoop)
        assert inner.parallel
        nested = inner.body[0]
        assert isinstance(nested, ForLoop)
        assert not nested.parallel
        assert nested.hi == Name("i")

    def test_expressions(self):
        env = {"R": 4, "K": 2}
        assert eval_expr(parse("const X = R * 2 + K;").consts[0].value, env) == 10
        assert eval_expr(parse("const X = (R - K) / 2;").consts[0].value, env) == 1
        assert eval_expr(parse("const X = -3;").consts[0].value, {}) == -3

    def test_division_by_zero(self):
        with pytest.raises(ValueError):
            eval_expr(BinOp("/", Num(4), Num(0)), {})

    def test_undefined_name(self):
        with pytest.raises(ValueError):
            eval_expr(Name("nope"), {})

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse("const R 4;")
        with pytest.raises(ParseError):
            parse("task f(x : vector : sideways : replic);")
        with pytest.raises(ParseError):
            parse("task f(x : vector : in : diagonal);")
        with pytest.raises(ParseError):
            parse("cmmain M() { seq { f(x) } }")  # missing semicolon
        with pytest.raises(ParseError):
            parse("wibble x;")

    def test_missing_main(self):
        prog = parse("const R = 1;")
        with pytest.raises(ValueError):
            prog.main()
        with pytest.raises(KeyError):
            prog.task("nope")


def _const_value(src):
    return parse(f"const X = {src};").consts[0].value


def _print_expr(expr, parent_prec=0):
    """Source text of ``expr`` with the fewest parentheses the grammar's
    precedence and left associativity allow: the property oracle."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    prec = 2 if expr.op in "*/" else 1
    # a right operand of equal precedence keeps its parentheses
    text = f"{_print_expr(expr.left, prec)} {expr.op} {_print_expr(expr.right, prec + 1)}"
    return f"({text})" if prec < parent_prec else text


class TestExpressionPrecedence:
    def test_expression_precedence_preserved(self):
        a, b, c = Name("a"), Name("b"), Name("c")
        assert _const_value("(a + b) * c") == BinOp("*", BinOp("+", a, b), c)
        assert _const_value("a + b * c") == BinOp("+", a, BinOp("*", b, c))

    def test_left_associative_subtraction(self):
        a, b, c = Name("a"), Name("b"), Name("c")
        assert _const_value("a - b - c") == BinOp("-", BinOp("-", a, b), c)
        assert _const_value("a - (b - c)") == BinOp("-", a, BinOp("-", b, c))

    @given(
        st.recursive(
            st.one_of(
                st.integers(0, 99).map(Num),
                st.sampled_from(["a", "b", "R"]).map(Name),
            ),
            lambda children: st.builds(
                BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_expression_round_trip_property(self, expr):
        assert _const_value(_print_expr(expr)) == expr


class TestBuilder:
    def build(self, costs=None, **kw):
        return build_program(EPOL_SPEC, sizes={"vector": 100}, costs=costs, **kw)

    def test_upper_graph_shape(self):
        res = self.build()
        names = [t.name.split("#")[0] for t in res.graph.topological_order()]
        assert names == ["start", "init_step(t,h)", "while", "stop"]

    def test_body_matches_fig4(self):
        res = self.build()
        body = res.body_of(res.composed_nodes()[0])
        steps = [t for t in body if t.name.startswith("step")]
        assert len(steps) == 1 + 2 + 3 + 4  # R(R+1)/2 micro-steps
        combine = next(t for t in body if t.name.startswith("combine"))
        # combine depends on the last micro step of every approximation
        pred_names = {p.name.split("#")[0] for p in body.predecessors(combine)}
        assert pred_names == {
            "step(1,1,t,h,eta_k,V[1])",
            "step(2,2,t,h,eta_k,V[2])",
            "step(3,3,t,h,eta_k,V[3])",
            "step(4,4,t,h,eta_k,V[4])",
        }

    def test_micro_step_chains(self):
        from repro.scheduling import find_linear_chains

        res = self.build()
        body = res.body_of(res.composed_nodes()[0])
        chains = find_linear_chains(body)
        step_chains = [c for c in chains if c[0].name.startswith("step")]
        assert sorted(len(c) for c in step_chains) == [2, 3, 4]

    def test_costs_applied(self):
        costs = {
            "step": TaskCost(
                work=lambda env, sz: 100.0 * env["i"],
                comm=lambda env, sz: (CollectiveSpec("allgather", sz["vector"]),),
            )
        }
        res = self.build(costs=costs)
        body = res.body_of(res.composed_nodes()[0])
        s41 = next(t for t in body if t.name == "step(1,4,t,h,eta_k,V[4])#11")
        assert s41.work == pytest.approx(400.0)
        assert s41.comm[0].op == "allgather"

    def test_env_recorded(self):
        res = self.build()
        body = res.body_of(res.composed_nodes()[0])
        s = next(t for t in body if t.name.startswith("step(2,3"))
        assert s.meta["env"]["i"] == 3 and s.meta["env"]["j"] == 2

    def test_anti_deps_flag(self):
        """A reader followed by a writer of the same variable stays
        unordered: the builder adds no WAR edges (Fig. 4)."""
        spec = """
        task reader(x : vector : in : replic);
        task writer(x : vector : out : replic);
        cmmain M(x : vector : inout : replic) {
          seq { reader(x); writer(x); }
        }
        """
        g = build_program(spec, sizes={"vector": 10}).graph
        r = next(t for t in g if t.name.startswith("reader"))
        w = next(t for t in g if t.name.startswith("writer"))
        assert w not in g.descendants(r)

    def test_while_node_params_cover_live_vars(self):
        res = self.build()
        node = res.composed_nodes()[0]
        names = {p.name for p in node.params}
        assert "eta_k" in names and "t" in names

    def test_consts_exported(self):
        res = self.build()
        assert res.consts["R"] == 4
        assert res.consts["Tend"] == 10

    def test_errors(self):
        with pytest.raises(ValueError):
            build_program("cmmain M(x : blob : in : replic) { seq { } }", sizes={})
        bad_arity = EPOL_SPEC.replace("combine(t, h, V, eta_k);", "combine(t, h, V);")
        with pytest.raises(ValueError):
            build_program(bad_arity, sizes={"vector": 10})
        bad_index = EPOL_SPEC.replace("V[i]", "V[9]")
        with pytest.raises(ValueError):
            build_program(bad_index, sizes={"vector": 10})
        with pytest.raises(ValueError):
            build_program(EPOL_SPEC.replace("V[i]", "t[i]"), sizes={"vector": 10})
