"""State-formula labels from shared atoms against each formula labelled
whole, and the atoms that a re-evaluated space keeps."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cassure import (
    BuildError, EvalError, bind_constants, build_dtmc, check_properties, parse_model,
    parse_properties,
)
from cassure.model import (
    BOOL, NOT_BOOLEAN, Binary, Lit, Name, Unary, _TypeChecker, compile_expr,
)
from cassure.statespace import label_states


def whole(space, phi):
    """The label of `phi` as one type check and one compiled evaluation of
    the whole formula give it."""
    t, error, _ = space.bound.typed(phi)
    if error or t != BOOL:
        raise BuildError(error or NOT_BOOLEAN)
    try:
        with np.errstate(invalid="ignore"):
            return compile_expr(phi, space.bound)(space.columns, space.n_states)
    except EvalError as e:
        raise EvalError(f"{e} at state {space.valuation(e.row)}") from None


def outcome(label, space, phi):
    try:
        mask = label(space, phi)
    except (BuildError, EvalError) as e:
        return type(e).__name__, str(e)
    return "mask", mask.dtype.name, mask.tolist()


def formulas(atoms):
    """State formulas over `atoms` with '&', '|', '->' and '!'."""
    return st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Binary, st.sampled_from(["&", "|", "->"]), sub, sub),
        sub.map(lambda e: Unary("!", e))), max_leaves=6)


# 1, 1.0 and true are equal Python values but atoms of different types.
LITERALS = [Lit(1), Lit(1.0), Lit(True), Lit(0), Lit(4)]


def atoms(names, extra):
    """Comparisons of `names` with LITERALS, the literals themselves, and
    the atoms of `extra`."""
    return st.one_of(
        st.sampled_from(LITERALS + [Lit(False)] + extra),
        st.builds(Binary, st.sampled_from(["=", "!=", "<", ">="]),
                  st.sampled_from([Name(n) for n in names]), st.sampled_from(LITERALS)))


CASE_ATOMS = atoms(["loc", "sw", "op_used", "is_critical"], [
    Name("op_used"), Name("is_critical"), Name("zz"),
    Binary("<", Name("batt"), Name("batt_threshold")),
    Binary(">", Name("p_err"), Lit(0.012)),
    Binary("+", Name("loc"), Lit(1)),
    # divides by zero where loc = 2
    Binary(">", Binary("/", Name("batt"), Binary("-", Name("loc"), Lit(2))), Lit(10)),
])

# Every (x, y) with x in 0..3 and y in 0..2 is reachable.  The formula d is
# 46 levels deep, so `d > 0` is 48: deeper than the limit from the fourth
# level of a formula's skeleton on.
DIVIDING = """dtmc
formula r = x / y;
formula d = """ + " + ".join(["x"] * 46) + """;
module m
  x : [0..3] init 0;
  y : [0..2] init 0;
  [] x < 3 -> (x' = x + 1);
  [] y < 2 -> (y' = y + 1);
  [] x = 3 & y = 2 -> (x' = 0) & (y' = 0);
endmodule
"""
X_OVER_Y = Binary(">", Binary("/", Name("x"), Name("y")), Lit(1))
Y_IS_ZERO = Binary("=", Name("y"), Lit(0))
D_IS_POSITIVE = Binary(">", Name("d"), Lit(0))
DIVIDING_ATOMS = atoms(["x", "y"], [
    X_OVER_Y, Y_IS_ZERO, Binary(">=", Name("r"), Lit(1)), D_IS_POSITIVE,
    Binary(">", Name("x"), Binary("/", Lit(1), Lit(0))),  # fails on every state
])


@pytest.fixture(scope="module")
def dividing():
    return bind_constants(parse_model(DIVIDING))


def assert_atoms_label_as_whole_formulas(bound, phis):
    """Labelled in turn on one space, so that they share its atoms, the
    formulas give the masks and the errors that labelling each whole gives."""
    space, alone = build_dtmc(bound), build_dtmc(bound)
    for phi in phis:
        assert outcome(label_states, space, phi) == outcome(whole, alone, phi), phi


@settings(max_examples=150, deadline=None)
@given(st.lists(formulas(CASE_ATOMS), min_size=1, max_size=6))
def test_atoms_label_the_case_study_as_whole_formulas(bound, phis):
    assert_atoms_label_as_whole_formulas(bound, phis)


@settings(max_examples=200, deadline=None)
@given(st.lists(formulas(DIVIDING_ATOMS), min_size=1, max_size=6))
# x / y is read only where y != 0: no error ...
@example([Binary("|", Y_IS_ZERO, X_OVER_Y), Binary("&", Unary("!", Y_IS_ZERO), X_OVER_Y),
          Binary("->", Unary("!", Y_IS_ZERO), X_OVER_Y)])
# ... and read where y = 0, after the same atom was read safely
@example([Binary("&", Unary("!", Y_IS_ZERO), X_OVER_Y), Binary("&", Lit(True), X_OVER_Y)])
# 50 levels deep with d expanded, then 51
@example([Unary("!", Unary("!", D_IS_POSITIVE)),
          Unary("!", Unary("!", Unary("!", D_IS_POSITIVE)))])
# one text per literal: 1 and true are atoms of different types
@example([Binary("=", Name("x"), Lit(1)), Binary("=", Name("x"), Lit(True)),
          Lit(1), Lit(True)])
def test_atoms_label_divisions_as_whole_formulas(dividing, phis):
    assert_atoms_label_as_whole_formulas(dividing, phis)


def _target(text):
    return parse_properties(f"P=? [ F {text} ]")[0].path.target


REEVALUATED = ["loc = 4 & p_err > 0.012", "batt < batt_threshold | is_critical",
               "!(loc = 5)"]


def _reevaluated(model_text, edit):
    """The case study's space with REEVALUATED labelled, and the space that
    `edit` of the model text re-evaluates from it."""
    space = build_dtmc(bind_constants(parse_model(model_text)))
    for text in REEVALUATED:
        label_states(space, _target(text))
    edited = bind_constants(parse_model(edit(model_text)))
    again = build_dtmc(edited, previous=space)
    assert again.states is space.states  # re-evaluated, not explored
    return space, again, build_dtmc(edited)


def _atom_keys(space):
    return {key[1] for key in space.memo.entries if key[0] == "atom"}


def test_a_reevaluated_space_recomputes_the_atoms_that_read_a_changed_constant(model_text):
    space, again, fresh = _reevaluated(
        model_text, lambda text: text.replace("p_err = 0.01;", "p_err = 0.015;"))
    assert _atom_keys(space) == {"loc = 4", "p_err > 0.012", "batt < batt_threshold",
                                 "is_critical", "loc = 5"}
    assert _atom_keys(again) == _atom_keys(space) - {"p_err > 0.012"}
    for key in _atom_keys(again):
        assert again.memo.entries[("atom", key)] is space.memo.entries[("atom", key)]
    for text in REEVALUATED:
        assert (label_states(again, _target(text)).tolist()
                == label_states(fresh, _target(text)).tolist())
    # p_err > 0.012 holds after the edit only
    assert not label_states(space, _target(REEVALUATED[0])).any()
    assert label_states(again, _target(REEVALUATED[0])).any()


def test_a_reevaluated_space_recomputes_every_atom_when_a_formula_changed(model_text):
    # The same states and transitions (rad never exceeds 2), another text.
    space, again, fresh = _reevaluated(
        model_text, lambda text: text.replace("is_critical = (rad = 2)",
                                              "is_critical = (rad >= 2)"))
    assert _atom_keys(again) == set()
    for text in REEVALUATED:
        assert (label_states(again, _target(text)).tolist()
                == label_states(fresh, _target(text)).tolist())


def test_one_type_checker_serves_binding_and_labelling(model_ast, props, monkeypatch):
    """The checker that type-checks the model at binding also types every
    atom that labelling meets, its formulas typed once."""
    calls = []
    init, check_formulas = _TypeChecker.__init__, _TypeChecker._check_formulas
    monkeypatch.setattr(_TypeChecker, "__init__",
                        lambda self, model: calls.append("init") or init(self, model))
    monkeypatch.setattr(_TypeChecker, "_check_formulas",
                        lambda self: calls.append("formulas") or check_formulas(self))
    check_properties(build_dtmc(bind_constants(model_ast)), props)
    assert calls == ["init", "formulas"]
