from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cassure import BindError, EvalError, bind_constants, parse_model, type_check
from cassure.model import Binary, FormulaDecl, Lit, Name, Unary, Update, compile_expr
from reference_builder import evaluate


MINI = """\
dtmc
const double p = 0.25;
const double q = 1 - p;
const int n = 3;
module m
  x : [0..3] init 0;
  [] x < n -> p : (x'=x+1) + q : (x'=x);
  [] x = n -> (x'=n);
endmodule
"""


def test_type_check_clean_on_case_study(model_ast):
    assert type_check(model_ast) == []


def test_constant_binding_defaults(bound):
    c = bound.constants
    assert c["p_rad_crit"] == 0.02
    assert c["p_rad_safe"] == pytest.approx(0.90)
    assert c["batt_dec"] == 20
    assert isinstance(c["batt_dec"], int)


def test_override_flows_into_derived_constants():
    ast = parse_model(MINI)
    b = bind_constants(ast, {"p": 0.5})
    assert b.constants["p"] == 0.5
    assert b.constants["q"] == 0.5


def test_int_override_rejects_fraction():
    ast = parse_model(MINI)
    with pytest.raises(BindError, match="int"):
        bind_constants(ast, {"n": 2.5})


def test_unknown_override_rejected():
    ast = parse_model(MINI)
    with pytest.raises(BindError, match="unknown"):
        bind_constants(ast, {"nope": 1})


def test_probabilities_must_sum_to_one():
    bad = MINI.replace("const double q = 1 - p;", "const double q = 0.5;")
    with pytest.raises(BindError, match="sum"):
        bind_constants(parse_model(bad))


def test_negative_probability_rejected():
    with pytest.raises(BindError):
        bind_constants(parse_model(MINI), {"p": 1.5})


def test_duplicate_variable_flagged():
    text = """\
dtmc
module a
  x : [0..1] init 0;
  [] x=0 -> (x'=1);
endmodule
module b
  x : [0..1] init 0;
  [] x=0 -> (x'=1);
endmodule
"""
    diags = type_check(parse_model(text))
    assert any("x" in d.message and d.severity == "error" for d in diags)


def _with_formulas(formulas, guard):
    return ("dtmc\n" + "".join(f"formula {f};\n" for f in formulas)
            + f"module m\n  x : [0..1] init 0;\n  [] {guard} -> (x'=1);\nendmodule\n")


def _errors(text):
    return [str(d) for d in type_check(parse_model(text, file="m.prism"))]


ONES = " + ".join(["1"] * 40)
CHAIN = [f"f1 = 1 + {ONES}"] + [f"f{i} = f{i - 1} + {ONES}" for i in range(2, 40)]


@pytest.mark.parametrize("order", [1, -1])
def test_formula_chain_deeper_than_the_limit_is_located(order):
    # Each formula is 41 levels deep, but inlining f2 puts f1 under 41
    # levels of its own: the first one over the limit is reported, once,
    # in either declaration order.  The guard naming f39 adds nothing.
    formulas = CHAIN[::order]
    line = formulas.index(CHAIN[1]) + 2
    assert _errors(_with_formulas(formulas, "f39 > 0")) == [
        f"m.prism:{line}:1: error: formula 'f2' is deeper than 50 levels "
        "with formulas expanded"]
    assert _errors(_with_formulas(CHAIN[:1], "f1 > 0")) == []


def test_expression_deeper_than_the_limit_with_formulas_expanded():
    a = " + ".join(["1"] * 30)
    assert _errors(_with_formulas([f"a = {a}"], "a" + " + 1" * 18 + " > 0")) == []
    assert _errors(_with_formulas([f"a = {a}"], "a" + " + 1" * 19 + " > 0")) == [
        "m.prism:5:3: error: expression deeper than 50 levels with formulas expanded"]


def test_long_formula_chains_and_cycles_are_checked_without_recursion():
    # A 3,000-formula chain of plain references and a 2,000-formula cycle:
    # each reference counts one level, so both stop at the limit.
    chain = ["f0 = 1"] + [f"f{i} = f{i - 1}" for i in range(1, 3000)]
    assert _errors(_with_formulas(chain, "f2999 > 0")) == [
        "m.prism:52:1: error: formula 'f50' is deeper than 50 levels with "
        "formulas expanded"]
    cycle = [f"f{i} = f{(i + 1) % 2000} + 1" for i in range(2000)]
    assert len(_errors(_with_formulas(cycle, "f0 > 0"))) == 1
    assert _errors(_with_formulas(["a = b + 1", "b = a"], "a > 0")) == [
        "m.prism:3:13: error: recursive formula 'a'"]


def test_assignment_to_foreign_variable_flagged():
    text = """\
dtmc
module a
  x : [0..1] init 0;
  [] x=0 -> (y'=1);
endmodule
module b
  y : [0..1] init 0;
  [] y=0 -> (y'=1);
endmodule
"""
    from cassure import ParseError
    with pytest.raises(ParseError):
        parse_model(text)


def test_cyclic_constants_rejected():
    text = "dtmc\nconst double a = b;\nconst double b = a;\n" \
           "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
    with pytest.raises(BindError, match="cycl"):
        bind_constants(parse_model(text))


def test_formula_cycle_is_a_bind_error():
    # Without type_check first, this was once a RecursionError.
    text = "dtmc\nformula f = g;\nformula g = f;\nconst int c = f;\n" \
           "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
    with pytest.raises(BindError, match="recursive formula 'f'"):
        bind_constants(parse_model(text))


def test_long_formula_chain_binds_without_type_check():
    # type_check rejects the chain as too deep; bind_constants alone once
    # expanded it by recursion.
    chain = ["f0 = 1"] + [f"f{i} = f{i - 1}" for i in range(1, 1500)]
    text = _with_formulas(chain, "x=0").replace(
        "module m", "const int c = f1499 + 0;\nmodule m")
    assert bind_constants(parse_model(text)).constants == {"c": 1}


@pytest.mark.parametrize("text", [
    "dtmc\nformula x = x + 1;\n"
    "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n",
    "dtmc\nconst int x = 1;\nformula x = x + 1;\n"
    "module m\n  y : [0..1] init 0;\n  [] y=0 -> (y'=1);\nendmodule\n",
], ids=["variable", "constant"])
def test_formula_named_like_a_variable_or_constant_is_only_a_duplicate(text):
    # `x` in the body means the variable (or constant), as everywhere else,
    # so the formula does not refer to itself.
    assert [d.message for d in type_check(parse_model(text))] == [
        "duplicate identifier 'x'"]


@st.composite
def definition_graphs(draw):
    """Model text with constants and formulas d0..dn-1, each defined in
    terms of earlier ones and declared in shuffled order; one definition
    may also name itself or a later one, which closes a cycle."""
    n = draw(st.integers(1, 8))
    bodies = []
    for i in range(n):
        names = [f"d{j}" for j in range(i)]
        terms = draw(st.lists(st.sampled_from(names), max_size=3)) if names else []
        terms.append(draw(st.sampled_from(["0", "1", "2", "0.5"])))
        ops = draw(st.lists(st.sampled_from("+-*"), min_size=len(terms) - 1,
                            max_size=len(terms) - 1))
        bodies.append(" ".join(t + " " + op for t, op in zip(terms, ops)) + " " + terms[-1])
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        bodies[i] += f" + d{draw(st.integers(i, n - 1))}"
    lines = []
    for i in draw(st.permutations(range(n))):
        kind = draw(st.sampled_from(["const int", "const double", "formula"]))
        lines.append(f"{kind} d{i} = {bodies[i]};")
    return "dtmc\n" + "\n".join(lines) + \
        "\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"


def bind_by_sweeps(ast):
    """The constants of `ast` found by sweeps: each evaluates every
    definition whose names all have values.  None when a sweep makes no
    progress (a cycle) or an int constant takes a fractional value."""
    def names(e):
        if isinstance(e, Name):
            return {e.ident}
        if isinstance(e, Binary):
            return names(e.left) | names(e.right)
        return set()

    kinds = {c.name: c.kind for c in ast.constants}
    defs = {f.name: f.expr for f in ast.formulas}
    defs.update((c.name, c.value) for c in ast.constants)
    values = {}
    while len(values) < len(defs):
        ready = [d for d in defs if d not in values and names(defs[d]) <= set(values)]
        if not ready:
            return None
        for d in ready:
            v = evaluate(defs[d], {}, values, {})
            kind = kinds.get(d)  # None for a formula
            if kind == "int" and v != int(v):
                return None
            values[d] = int(v) if kind == "int" else float(v) if kind else v
    return {name: values[name] for name in kinds}


@settings(max_examples=200, deadline=None)
@given(definition_graphs())
def test_binding_equals_a_reference_by_sweeps(text):
    ast = parse_model(text)
    expected = bind_by_sweeps(ast)
    if expected is None:
        with pytest.raises(BindError):
            bind_constants(ast)
        return
    got = bind_constants(ast).constants
    assert {k: (type(v), v) for k, v in got.items()} == \
        {k: (type(v), v) for k, v in expected.items()}


def test_unknown_name_in_constant_is_an_eval_error():
    # Without type_check first, this was once a bare KeyError.
    text = "dtmc\nconst int a = zz;\n" \
           "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n"
    with pytest.raises(EvalError, match="unbound identifier 'zz'"):
        bind_constants(parse_model(text))


def test_compiled_formulas_equal_the_reference(space):
    # Every state of the case study; each formula is true on some, false on others.
    for name in ("is_warning", "is_critical"):
        expected = [evaluate(Name(name), space.valuation(i), space.bound.constants,
                             space.bound.formulas) for i in range(space.n_states)]
        assert True in expected and False in expected
        got = compile_expr(Name(name), space.bound)(space.columns, space.n_states)
        assert got.tolist() == expected


# ---- hypothesis: compiled evaluation equals the reference interpreter ----

TYPED = parse_model("""\
dtmc
const int K = 3;
const double H = 0.5;
formula f = a - b;
formula g = c | a > K;
module m
  a : [-3..5] init 0;
  b : [-3..5] init 0;
  c : bool init false;
  [] true -> (a'=a);
endmodule
""")
TYPED_BOUND = bind_constants(TYPED)


def numeric(depth):
    leaf = st.one_of(st.integers(0, 9).map(Lit), st.sampled_from([Lit(0.5), Lit(0.0)]),
                     st.sampled_from(["a", "b", "K", "H", "f"]).map(Name))
    if depth == 0:
        return leaf
    sub = numeric(depth - 1)
    return st.one_of(leaf, st.builds(Binary, st.sampled_from("+-*/"), sub, sub),
                     sub.map(lambda e: Unary("-", e)))


def boolean(depth):
    leaf = st.one_of(st.booleans().map(Lit), st.sampled_from(["c", "g"]).map(Name))
    if depth == 0:
        return leaf
    sub, num = boolean(depth - 1), numeric(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Binary, st.sampled_from(["&", "|", "->", "=", "!="]), sub, sub),
        st.builds(Binary, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), num, num),
        sub.map(lambda e: Unary("!", e)))


# Integers stay far below 2**53 at this depth, where int64 and Python agree.
typed_exprs = st.one_of(numeric(3), boolean(3))
valuations = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.booleans()),
                      min_size=1, max_size=8)
A_OVER_B = Binary(">", Binary("/", Name("a"), Name("b")), Lit(0))
B_IS_ZERO = Binary("=", Name("b"), Lit(0))
SHORT_CIRCUIT_ROWS = [(1, 1, True), (1, 0, False), (1, 0, True)]


def at_ties(test):
    """Examples of each comparison on columns and on folded constants, with
    operands tied, lower and higher: a strict operator and its non-strict
    twin differ only at a tie, which random expressions seldom meet."""
    K = Name("K")
    for op in ["=", "!=", "<", "<=", ">", ">="]:
        test = example(Binary(op, Name("a"), Name("b")),
                       [(0, 0, False), (0, 1, False), (1, 0, False)])(test)
        for left, right in [(K, K), (Lit(2), K), (K, Lit(2))]:  # K >= 3
            test = example(Binary(op, left, right), [(0, 0, False)])(test)
    return test


@settings(max_examples=300, deadline=None)
@given(typed_exprs, valuations)
@at_ties
# the right operand of &, | and -> divides by zero only where it is skipped
@example(Binary("&", Unary("!", B_IS_ZERO), A_OVER_B), SHORT_CIRCUIT_ROWS)
@example(Binary("|", B_IS_ZERO, A_OVER_B), SHORT_CIRCUIT_ROWS)
@example(Binary("->", Unary("!", B_IS_ZERO), A_OVER_B), SHORT_CIRCUIT_ROWS)
# ... and where it is not: the first failing row is reported
@example(Binary("&", Name("c"), A_OVER_B), SHORT_CIRCUIT_ROWS)
# two divisions fail on different rows: the earlier row counts
@example(Binary("+", Binary("/", Lit(1), Name("a")), Binary("/", Lit(1), Name("b"))),
         [(0, 1, False), (1, 0, False)])
def test_compiled_evaluation_equals_the_reference(e, rows):
    got = assert_compiled_equals_reference(e, rows, TYPED_BOUND)
    assert got is None or got.dtype != object  # int64 and float64 suffice here


def assert_compiled_equals_reference(e, rows, bound):
    """compile_expr over the rows gives the values and types of
    `reference_builder.evaluate`, which shares no code with it, or raises
    EvalError at the reference's first failing row; returns the values, if
    any."""
    assert type_check(replace(TYPED, formulas=TYPED.formulas + (FormulaDecl("e", e),))) == []
    expected, first_error = [], None
    for i, (a, b, c) in enumerate(rows):
        try:
            expected.append(evaluate(e, {"a": a, "b": b, "c": c}, bound.constants,
                                     bound.formulas))
        except ZeroDivisionError:
            first_error = i if first_error is None else first_error
    a, b, c = zip(*rows)
    cols = (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            np.array(c, dtype=bool))
    compiled = compile_expr(e, bound)
    if first_error is not None:
        with pytest.raises(EvalError, match="division by zero") as exc:
            compiled(cols, len(rows))
        assert exc.value.row == first_error
        return None
    got = compiled(cols, len(rows))
    assert got.tolist() == expected
    assert [type(v) for v in got.tolist()] == [type(v) for v in expected]
    return got


# The same expressions over ranges where products leave int64 and sums pass
# 2**53: such expressions are evaluated on Python ints.
WIDE_BOUND = bind_constants(TYPED, {"K": 2 ** 53 + 1})
WIDE_BOUND = replace(WIDE_BOUND, variables=tuple(
    v if v.is_bool else replace(v, low=-10 ** 12, high=10 ** 12)
    for v in WIDE_BOUND.variables))
wide_valuations = st.lists(
    st.tuples(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12),
              st.booleans()), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(typed_exprs, wide_valuations)
@at_ties
# a*a*a wraps in int64 (to a negative value at this a)
@example(Binary(">", Binary("*", Binary("*", Name("a"), Name("a")), Name("a")), Lit(0)),
         [(5_000_000, 0, False)])
# 2**53 + 1 rounds to 2**53 as a float
@example(Binary(">", Binary("+", Name("a"), Name("K")), Lit(2.0 ** 53)), [(0, 0, False)])
def test_compiled_evaluation_equals_the_reference_on_wide_ranges(e, rows):
    assert_compiled_equals_reference(e, rows, WIDE_BOUND)


# ---- the type checker's diagnostics, one per message ----

def _typed_model(decl="const int K = 1;", var="y : [0..1] init 0;", guard="x=0",
                 update="(x'=1)", reward="true : 1"):
    """A model with one line for each part; the lines are numbered 2 (decl),
    6 (var), 7 (command) and 10 (reward item)."""
    return (f"dtmc\n{decl}\nmodule m\n  x : [0..1] init 0;\n  b : bool init false;\n"
            f"  {var}\n  [] {guard} -> {update};\nendmodule\n"
            f'rewards "r"\n  {reward};\nendrewards\n')


@pytest.mark.parametrize("parts, expected", [
    ({"guard": "x=0 & zz>0"}, "7:12: error: unknown identifier 'zz'"),
    ({"guard": "-b"}, "7:3: error: operand of unary '-' is not numeric"),
    ({"guard": "!x"}, "7:3: error: operand of '!' is not boolean"),
    ({"guard": "x + b > 0"}, "7:3: error: operands of '+' are not numeric"),
    ({"guard": "x = b"}, "7:3: error: operands of '=' have incompatible types"),
    ({"guard": "b < 1"}, "7:3: error: operands of '<' are not numeric"),
    ({"guard": "x & b"}, "7:3: error: operands of '&' are not boolean"),
    ({"guard": "x"}, "7:3: error: command guard is not boolean"),
    ({"update": "b : (x'=1)"}, "7:3: error: update probability is not numeric"),
    ({"update": "(b'=1)"}, "7:3: error: assignment to boolean 'b' is not boolean"),
    ({"update": "(x'=b)"}, "7:3: error: assignment to 'x' is not numeric"),
    ({"reward": "x : 1"}, '10:3: error: reward guard in "r" is not boolean'),
    ({"reward": "true : b"}, '10:3: error: reward value in "r" is not numeric'),
    ({"var": "c : bool init 1;"},
     "6:3: error: init of boolean variable 'c' is not boolean"),
    ({"var": "y : [0.5..1] init 1;"},
     "6:3: error: lower bound of 'y' is not an integer expression"),
    ({"var": "y : [0..K/1] init 0;"},
     "6:3: error: upper bound of 'y' is not an integer expression"),
    ({"var": "y : [0..1] init true;"},
     "6:3: error: init of 'y' is not an integer expression"),
    # PRISM requires constants, bounds and inits to be constant.
    ({"decl": "const int K = x;"},
     "2:1: error: value of constant 'K' refers to variable 'x'; it must be constant"),
    ({"var": "c : bool init true | x = 1;"},
     "6:3: error: init of 'c' refers to variable 'x'; it must be constant"),
    ({"var": "y : [0..y] init 0;"},
     "6:3: error: upper bound of 'y' refers to variable 'y'; it must be constant"),
    ({"decl": "formula f = x + 1;", "var": "y : [f..2] init 1;"},
     "6:3: error: lower bound of 'y' refers to variable 'x'; it must be constant"),
    ({"decl": "const double K;", "var": "y : [0..K] init 0;"},
     "6:3: error: upper bound of 'y' is not an integer expression"),
])
def test_type_checker_diagnostic(parts, expected):
    assert _errors(_typed_model(**parts)) == [f"m.prism:{expected}"]


def test_type_checker_locates_an_assignment_to_another_module():
    # The parser rejects such a model first; an AST built otherwise is
    # still checked.
    ast = parse_model(_typed_model() + "module n\n  z : [0..1] init 0;\n"
                      "  [] z=0 -> (z'=1);\nendmodule\n", file="m.prism")
    module = ast.modules[1]
    command = replace(module.commands[0], updates=(Update(None, (("x", Lit(1)),)),))
    ast = replace(ast, modules=(ast.modules[0], replace(module, commands=(command,))))
    assert [str(d) for d in type_check(ast)] == [
        "m.prism:14:3: error: assignment target 'x' is not a variable of this module"]


def test_undefined_constant_is_typed_by_its_kind_and_bound_by_an_override():
    ast = parse_model(_typed_model(decl="const int N;", var="y : [0..N] init N;"))
    assert type_check(ast) == []
    with pytest.raises(BindError, match="undefined constant 'N'"):
        bind_constants(ast)
    assert bind_constants(ast, {"N": 2}).variables[2].high == 2


@pytest.mark.parametrize("var, message", [
    ("y : [2..1] init 1;", r"variable 'y' has empty range \[2..1\]"),
    ("y : [0..1] init 2;", r"init of 'y' \(2\) outside \[0..1\]"),
])
def test_variable_range_errors_are_bind_errors(var, message):
    with pytest.raises(BindError, match=message):
        bind_constants(parse_model(_typed_model(var=var)))
