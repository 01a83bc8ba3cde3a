from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from cassure import ParseError, parse_model, parse_properties
from cassure.model import Binary, ConstantDecl, Lit, Name, Unary
from cassure.parsing import (
    MAX_EXPR_DEPTH, render_expr, render_model, render_property,
)


def test_case_study_parses_clean(model_ast):
    assert len(model_ast.modules) == 2
    assert [m.name for m in model_ast.modules] == ["AIR_Navigator",
                                                   "AIR_SafetyWrapper"]
    assert len(model_ast.rewards) == 4
    assert len(model_ast.constants) == 9
    assert len(model_ast.formulas) == 2


def test_model_round_trip(model_ast):
    rendered = render_model(model_ast)
    again = parse_model(rendered)
    assert again == model_ast
    # and the round trip is a fixpoint on text
    assert render_model(again) == rendered
    # an undefined constant has no value
    undefined = replace(model_ast, constants=model_ast.constants
                        + (ConstantDecl("N", "int", None),))
    assert "\nconst int N;\n" in render_model(undefined)
    assert parse_model(render_model(undefined)) == undefined


SMALL_P = """\
dtmc
const double p = 0.00001;
module m
  x : [0..1] init 0;
  [] x=0 -> p : (x'=1) + 1-p : (x'=0);
  [] x=1 -> (x'=x);
endmodule
rewards "r"
  x=0 : 2.5E+3;
endrewards
"""


def test_model_round_trip_keeps_exponent_literals():
    ast = parse_model(SMALL_P)
    rendered = render_model(ast)
    assert "1e-05" in rendered and "2500.0" in rendered
    assert parse_model(rendered) == ast
    assert ast.constants[0].value == Lit(0.00001)


@given(st.text(alphabet='ab"\\:{} '))
@example('a"b')
@example("a\\b")
@example('\\"')
def test_names_with_quotes_and_backslashes_round_trip(name):
    ast = parse_model(SMALL_P)
    ast = replace(ast, rewards=(replace(ast.rewards[0], name=name),))
    assert parse_model(render_model(ast)) == ast
    prop = replace(parse_properties('R{"r"}=? [ F x=1 ]')[0], name=name, reward=name)
    again = parse_properties(render_property(prop))[0]
    assert (again.name, again.reward) == (name, name)


@pytest.mark.parametrize("text, value", [
    ("1e-05", 1e-05), ("2.5E+3", 2500.0), ("1e16", 1e16), (".5e-1", 0.05),
])
def test_exponent_literals(text, value):
    prop = parse_properties(f"P>=0.00001 [ F x>{text} ]")[0]
    assert prop.bound == 1e-05 and prop.path.target.right == Lit(value)
    assert parse_properties(render_property(prop))[0] == prop


@pytest.mark.parametrize("text, column", [
    ("P=? [ F x > 1e999 ]", 13),
    ("P>=1e400 [ F x > 1 ]", 4),
])
def test_literal_beyond_float_range_rejected(text, column):
    with pytest.raises(ParseError, match="out of range") as exc:
        parse_properties(text, file="p.props")
    assert str(exc.value.diagnostics[0].span) == f"p.props:1:{column}"


def test_seventeen_properties(props):
    assert len(props) == 17
    assert props[0].name == "P_succ"
    assert props[0].kind == "P_query"
    assert props[5].name == "P_timeBound"
    assert props[5].path.kind == "F<="
    assert props[5].path.bound == 5
    assert props[3].path.kind == "U"
    reward_props = [p for p in props if p.kind == "R_query"]
    assert {p.reward for p in reward_props} == {"moves", "dose", "time_in_cm",
                                                "time_stopped"}


def test_property_round_trip(props):
    for p in props:
        again = parse_properties(render_property(p))[0]
        assert again.kind == p.kind
        assert again.path == p.path
        assert again.bound == p.bound
        assert again.bound_op == p.bound_op
        assert again.reward == p.reward


def test_source_text_matches_tokens(props):
    by_name = {p.name: p for p in props}
    assert by_name["P_succ"].source_text == "P =? [ F loc = 4 ]"
    assert by_name["P_fullSpeed"].source_text == \
        "P >= 1 [ G ( sw = 0 -> vel = 2 ) ]"


def test_unnamed_properties_get_synthetic_names():
    props = parse_properties("P=? [F x=1]\nP=? [G x<2]")
    assert [p.name for p in props] == ["prop1", "prop2"]


def test_duplicate_property_name_rejected():
    with pytest.raises(ParseError):
        parse_properties('"a": P=? [F x=1]\n"a": P=? [F x=2]')


def test_bound_outside_unit_interval_rejected():
    with pytest.raises(ParseError, match="outside"):
        parse_properties("P>=2 [F x=1]")


def test_next_operator_unsupported():
    with pytest.raises(ParseError, match="unsupported"):
        parse_properties("P=? [X x=1]")


@pytest.mark.parametrize("snippet", ["mdp", "ctmc", "label \"x\" = y=1;"])
def test_unsupported_model_constructs(snippet):
    with pytest.raises(ParseError, match="unsupported"):
        parse_model(snippet + "\n")


def test_parse_error_carries_span():
    bad = "dtmc\nmodule m\n  x : [0..#] init 0;\nendmodule\n"
    with pytest.raises(ParseError) as exc:
        parse_model(bad, file="bad.prism")
    d = exc.value.diagnostics[0]
    assert d.span.file == "bad.prism"
    assert d.span.line == 3


# Expressions with exactly `depth` levels, in tree height or in nesting.
DEEP = {
    "parentheses": lambda depth: "(" * depth + "a" + ")" * depth,
    "sum": lambda depth: " + ".join(["a"] * depth),
    "negation": lambda depth: "!" * (depth - 2) + "a = 1",
    "implication": lambda depth: " -> ".join(["a = 1"] * (depth - 1)),
}


@pytest.mark.parametrize("shape", DEEP)
def test_expression_depth_limit(shape):
    # Deeper expressions would exhaust the stack in the recursive passes
    # over them; the parser rejects them with a located error.
    fine = DEEP[shape](MAX_EXPR_DEPTH)
    parse_properties(f"P=? [ F {fine} ]")
    with pytest.raises(ParseError, match=f"deeper than {MAX_EXPR_DEPTH} levels") as exc:
        parse_properties(f"P=? [ F {DEEP[shape](MAX_EXPR_DEPTH + 1)} ]", file="deep.props")
    assert str(exc.value).startswith("deep.props:1:")


def test_deep_expression_in_a_model_rejected():
    sum_ = " + ".join(["1"] * (MAX_EXPR_DEPTH + 1))
    with pytest.raises(ParseError, match="deeper than") as exc:
        parse_model(f"dtmc\nconst int k = {sum_};\n", file="deep.prism")
    assert str(exc.value).startswith("deep.prism:2:15:")


def test_render_visits_each_node_once(monkeypatch):
    # A right-nested chain of '->' once rendered each operand twice, which
    # doubled the cost with every level.
    import cassure.parsing as parsing
    calls = []
    render = parsing.render_expr
    monkeypatch.setattr(parsing, "render_expr",
                        lambda e, prec=0: calls.append(e) or render(e, prec))
    text = DEEP["implication"](20)  # 18 "->" over 19 comparisons a = 1
    e = parse_properties(f"P=? [ F {text} ]")[0].path.target
    assert parsing.render_expr(e) == text
    assert len(calls) == 18 + 19 * 3


# ---- hypothesis: render/parse is the identity on expression trees ----

names = st.sampled_from(["a", "b", "c"])
exprs = st.recursive(
    st.one_of(st.integers(0, 99).map(Lit),
              st.booleans().map(Lit),
              names.map(Name)),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "&", "|", "=", "!=",
                                   "<", "<=", ">", ">=", "->"]),
                  kids, kids).map(lambda t: Binary(*t)),
        kids.map(lambda e: Unary("!", e)),
        kids.map(lambda e: Unary("-", e)),
    ),
    max_leaves=12,
)


@given(exprs)
# chained comparisons: the parser's comparisons are non-associative
@example(Binary("=", Binary("=", Lit(0), Lit(0)), Lit(0)))
@example(Unary("-", Binary("=", Binary("=", Lit(0), Lit(0)), Lit(0))))
# exponent literals, as repr writes them
@example(Lit(1e-05))
@example(Binary("*", Lit(1e+16), Unary("-", Lit(1e-05))))
def test_expression_render_parse_round_trip(e):
    text = f"dtmc\nformula f = {render_expr(e)};\nmodule m\n" \
           f"  a : [0..1] init 0;\n  [] a=0 -> (a'=a);\nendmodule\n"
    ast = parse_model(text)
    parsed = ast.formulas[0].expr
    assert render_expr(parsed) == render_expr(e)
