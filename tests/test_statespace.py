from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
import pinned
from cassure import BuildError, EvalError, bind_constants, build_dtmc, parse_model
import cassure.statespace as statespace
from cassure.statespace import label_states
from cassure.model import Binary, Lit, Name


def test_reachable_state_count(space):
    assert space.n_states == pinned.STATE_COUNT


def test_initial_state(space):
    assert space.valuation(space.initial) == {
        "loc": 0, "batt": 100, "rad": 0, "sw": 0, "vel": 2, "op_used": False}


def test_rows_are_stochastic(space):
    for s in range(space.n_states):
        lo, hi = space.indptr[s], space.indptr[s + 1]
        assert hi > lo
        assert space.data[lo:hi].sum() == pytest.approx(1.0, abs=1e-12)
        assert (space.data[lo:hi] > 0).all()


def test_matrix_matches_oracle_exactly(space):
    """Every engine transition equals the oracle's exact fraction."""
    states, index, rows = oracle.build_chain(dict(oracle.DEFAULTS))
    assert len(states) == space.n_states
    for s in range(space.n_states):
        val = space.valuation(s)
        key = tuple(val[n] for n in ("loc", "batt", "rad", "sw", "vel", "op_used"))
        o = index[key]
        expected = {states[t]: p for t, p in rows[o].items()}
        got = {}
        cols, probs = space.row(s)
        for dst, p in zip(cols, probs):
            dv = space.valuation(dst)
            dk = tuple(dv[n] for n in ("loc", "batt", "rad", "sw", "vel",
                                       "op_used"))
            got[dk] = got.get(dk, 0.0) + p
        assert set(got) == set(expected)
        for k in got:
            assert got[k] == pytest.approx(float(expected[k]), abs=1e-14)


def test_mode_velocity_invariant(space):
    """sw=0 -> vel=2, sw=1 -> vel=1, sw=2 -> vel=0 in every reachable state."""
    expected_vel = {0: 2, 1: 1, 2: 0}
    for s in range(space.n_states):
        v = space.valuation(s)
        assert v["vel"] == expected_vel[v["sw"]]


def test_build_is_deterministic(bound):
    a = build_dtmc(bound)
    b = build_dtmc(bound)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


DEADLOCK = """\
dtmc
const double p = 0.5;
module m
  x : [0..2] init 0;
  [] x = 0 -> p : (x'=1) + 1-p : (x'=2);
  [] x = 1 -> (x'=1);
endmodule
rewards "r"
  x = 2 : p;
endrewards
"""


def test_deadlock_fixing_reports_and_self_loops():
    space = build_dtmc(bind_constants(parse_model(DEADLOCK)))
    assert space.diagnostics.deadlock_states_fixed == 1
    two = next(s for s in range(space.n_states)
               if space.valuation(s)["x"] == 2)
    cols, probs = space.row(two)
    assert cols.tolist() == [two] and probs.tolist() == [1.0]


def test_out_of_range_assignment_is_an_error():
    text = """\
dtmc
module m
  x : [0..2] init 0;
  [] x < 3 -> (x'=x+1);
endmodule
"""
    bound = bind_constants(parse_model(text))
    with pytest.raises(BuildError, match="outside"):
        build_dtmc(bound)


def test_rewards_vectors(space):
    moves = space.rewards["moves"]
    for s in range(space.n_states):
        v = space.valuation(s)
        assert moves[s] == (1.0 if v["loc"] < 4 else 0.0)
    assert set(space.rewards) == {"moves", "dose", "time_in_cm", "time_stopped"}


def test_label_states_uses_formulas_and_constants(space):
    mask = label_states(space, Name("is_critical"))
    for s in range(space.n_states):
        assert mask[s] == (space.valuation(s)["rad"] == 2)
    thr = label_states(space, Binary("<", Name("batt"), Name("batt_threshold")))
    for s in range(space.n_states):
        assert thr[s] == (space.valuation(s)["batt"] < 30)


def test_synchronized_commands_set_op_used(space):
    """Operator commands only fire in patrol mode and mark op_used."""
    saw_op = False
    for s in range(space.n_states):
        v = space.valuation(s)
        if v["op_used"]:
            saw_op = True
        if v["sw"] != 0:
            # op_used can persist after leaving patrol, but never first
            # becomes true there: check via predecessors is implicit in the
            # oracle equivalence test; here just ensure such states exist.
            pass
    assert saw_op


def test_states_are_in_canonical_order(space):
    assert_canonical(space)


def assert_canonical(space):
    """Replaying BFS over the built matrix, indexing each state's new
    successors in valuation order, gives back 0, 1, 2, ..."""
    order, seen = [space.initial], {space.initial}
    for i in order:
        for j in sorted(space.row(i)[0].tolist(),
                        key=lambda j: tuple(space.states[j].tolist())):
            if j not in seen:
                seen.add(j)
                order.append(j)
    assert order == list(range(space.n_states))


def build(text, **kwargs):
    return build_dtmc(bind_constants(parse_model(text, file="m.prism")), **kwargs)


# ---- error paths: each names the state valuation and the source span ----

@pytest.mark.parametrize("text, span", [
    # guard
    ("module m\n  x : [0..2] init 2;\n  [] x>0 -> (x'=x-1);\n"
     "  [] 1/x > 0 -> (x'=x);\nendmodule\n", "m.prism:5:3"),
    # probability
    ("module m\n  x : [0..3] init 3;\n"
     "  [] true -> 1/x : (x'=x-1) + 1-1/x : (x'=x);\nendmodule\n", "m.prism:4:3"),
    # update
    ("module m\n  x : [0..2] init 2;\n  [] x>0 -> (x'=x-1);\n"
     "  [] x=0 -> (x'=x/x);\nendmodule\n", "m.prism:5:3"),
    # reward
    ("module m\n  x : [0..2] init 2;\n  [] x>0 -> (x'=x-1);\n"
     "  [] x=0 -> (x'=x);\nendmodule\nrewards \"r\"\n  x<2 : 1/x;\nendrewards\n",
     "m.prism:8:3"),
])
def test_division_by_zero_names_state_and_span(text, span):
    with pytest.raises(EvalError) as exc:
        build("dtmc\n" + text)
    assert str(exc.value) == f"division by zero at state {{'x': 0}} [{span}]"


RANGE_MODEL = """\
dtmc
const double p = 0.1;
module m
  x : [0..4] init 3;
  [] x<4 -> {update};
  [] x=4 -> (x'=4);
endmodule
rewards "r"
  true : {reward};
endrewards
"""


@pytest.mark.parametrize("update, reward, p, message", [
    # outcomes sum to 1, but x/2 is 1.5 and 1 - x/2 is -0.5 at x = 3
    ("(x/2) : (x'=x+1) + (1 - x/2) : (x'=0)", "1", 0.1,
     "update probability 1.5 outside [0,1] at state {'x': 3} [m.prism:5:3]"),
    ("(p*x + 0.5) : (x'=x+1) + (0.5 - p*x) : (x'=0)", "1", float("nan"),
     "update probability nan outside [0,1] at state {'x': 3} [m.prism:5:3]"),
    ("0.5 : (x'=x+1) + 0.5 : (x'=0)", "p*x", float("nan"),
     "reward nan in \"r\" is not >= 0 at state {'x': 3} [m.prism:9:3]"),
    ("0.5 : (x'=x+1) + 0.5 : (x'=0)", "p*x", -1.0,
     "reward -3.0 in \"r\" is not >= 0 at state {'x': 3} [m.prism:9:3]"),
], ids=["probability-out-of-range", "probability-nan", "reward-nan", "reward-negative"])
def test_probabilities_and_rewards_out_of_range_are_errors(update, reward, p, message):
    model = parse_model(RANGE_MODEL.format(update=update, reward=reward), file="m.prism")
    with pytest.raises(BuildError) as exc:
        build_dtmc(bind_constants(model, {"p": p}))
    assert str(exc.value) == message


def test_guard_short_circuit_skips_division():
    space = build("dtmc\nmodule m\n  x : [0..2] init 0;\n"
                  "  [] x!=0 & 1/x>0 -> (x'=x-1);\n  [] x=0 -> (x'=2);\nendmodule\n")
    assert space.states.tolist() == [[0], [2], [1]]


def test_out_of_range_assignment_with_probability_zero_is_skipped():
    space = build("dtmc\nmodule m\n  x : [0..1] init 0;\n"
                  "  [] true -> 0 : (x'=x+5) + 1 : (x'=1-x);\nendmodule\n")
    assert space.states.tolist() == [[0], [1]]
    assert space.data.tolist() == [1.0, 1.0]


def test_real_assignment_truncates_toward_zero():
    space = build("dtmc\nmodule m\n  x : [-3..3] init -3;\n"
                  "  [] x!=0 -> (x'=x/2);\n  [] x=0 -> (x'=x);\nendmodule\n")
    assert space.states.tolist() == [[-3], [-1], [0]]


def test_non_boolean_label_is_an_error(space):
    with pytest.raises(BuildError, match="not boolean"):
        label_states(space, Binary("+", Name("batt"), Lit(1)))
    with pytest.raises(BuildError, match="not boolean"):
        label_states(space, Lit(1))


def test_state_cap():
    text = ("dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x<2 -> (x'=x+1);\n  [] x=2 -> (x'=x);\nendmodule\n")
    assert build(text, max_states=3).n_states == 3
    with pytest.raises(BuildError, match="state cap exceeded"):
        build(text, max_states=2)


# ---- models beyond the case study ----

SYNC = """\
dtmc
module a
  x : [0..1] init 0;
  [go] x=0 -> 0.5 : (x'=1) + 0.5 : (x'=0);
  [go] x=0 -> (x'=1);
  [] x=1 -> (x'=1);
endmodule
module b
  y : [0..2] init 0;
  [go] y<2 -> 0.25 : (y'=y+1) + 0.75 : (y'=y);
  [] y=2 -> (y'=0);
endmodule
"""


def test_two_module_synchronization_exact():
    """[go] pairs each of a's two commands with b's: two units, each with
    probability 1/2, probabilities multiplied across the modules."""
    space = build(SYNC)
    q = Fraction(1, 16)
    expected = {
        (0, 0): {(0, 0): 3 * q, (0, 1): q, (1, 0): 9 * q, (1, 1): 3 * q},
        (0, 1): {(0, 1): 3 * q, (0, 2): q, (1, 1): 9 * q, (1, 2): 3 * q},
        (0, 2): {(0, 0): 1},
        (1, 0): {(1, 0): 1},
        (1, 1): {(1, 1): 1},
        (1, 2): {(1, 0): Fraction(1, 2), (1, 2): Fraction(1, 2)},
    }
    states = [tuple(s) for s in space.states.tolist()]
    assert states == [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2)]
    for i, s in enumerate(states):
        cols, probs = space.row(i)
        got = {states[j]: p for j, p in zip(cols.tolist(), probs.tolist())}
        assert got == {t: float(p) for t, p in expected[s].items()}
    # (0,0) and (0,1) choose between two [go] units, (1,2) between a and b
    assert space.diagnostics.nondeterministic_states == 3


GUARDED_SYNC = """\
dtmc
module a
  x : [0..2] init 0;
  [] x=0 -> (x'=2);
  [go] x%s0 -> (x'=x-1);
endmodule
module b
  y : [0..1] init 0;
  [go] 1/x>0 -> (y'=1-y);
endmodule
"""


def test_sync_guard_evaluated_only_where_earlier_modules_fire():
    """b's [go] guard divides by x: it is evaluated only where a has an
    enabled [go] command, as the per-state semantics does."""
    space = build(GUARDED_SYNC % ">")
    assert space.states.tolist() == [[0, 0], [2, 0], [1, 1]]
    with pytest.raises(EvalError, match=r"at state \{'x': 0, 'y': 0\}"):
        build(GUARDED_SYNC % ">=")


CUBE = """\
dtmc
const int W = 5000000;
module m
  x : [-W..W] init W;
  [] x*x*x > 0 -> (x'=x*x*x/(x*x) - 2*x);
  [] x*x*x <= 0 -> (x'=x);
endmodule
"""


def test_integers_beyond_int64_are_exact():
    """W**3 wraps to a negative int64; the guard and the update must see
    the true cube."""
    space = build(CUBE)
    assert space.states.tolist() == [[5000000], [-5000000]]
    assert space.row(0)[0].tolist() == [1]


WIDE = """\
dtmc
const int L = 2;
module m
  a : [-L..L] init 0;
  b : [-L..L] init 0;
  c : [-L..L] init 0;
  [] a<2 & b>-2 -> 0.5 : (a'=a+1) + 0.5 : (b'=b-1);
  [] a=2 | b=-2 -> 0.5 : (c'=1-c) + 0.5 : (a'=0) & (b'=0);
endmodule
"""


def test_keys_wider_than_63_bits_keep_canonical_order():
    wide = 10 ** 7
    assert (2 * wide + 1) ** 3 > 2 ** 63  # the packed key needs two words
    big = build_dtmc(bind_constants(parse_model(WIDE), {"L": wide}))
    small = build_dtmc(bind_constants(parse_model(WIDE), {"L": 2}))
    assert big.n_states == small.n_states == 16
    assert np.array_equal(big.states, small.states)
    assert np.array_equal(big.indptr, small.indptr)
    assert np.array_equal(big.indices, small.indices)
    assert np.array_equal(big.data, small.data)
    assert_canonical(big)


# ---- a model edit that keeps the transition pattern is re-evaluated ----

def assert_same_space(a, b):
    """Bit for bit: states, CSR arrays, rewards and build diagnostics."""
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.rewards.keys() == b.rewards.keys()
    for name in a.rewards:
        assert a.rewards[name].tobytes() == b.rewards[name].tobytes()
    assert a.diagnostics == b.diagnostics


def rebuilt(ast, before, after):
    """(space of ``after`` built with the space of ``before`` as previous,
    that previous space, a fresh build of ``after``)."""
    previous = build_dtmc(bind_constants(ast, before))
    bound = bind_constants(ast, after)
    return build_dtmc(bound, previous=previous), previous, build_dtmc(bound)


@settings(max_examples=20, deadline=None)
@given(p_err=st.sampled_from([0.015, 0.01, 0.2]) | st.floats(1e-9, 0.99),
       p_rad_crit=st.floats(0.001, 0.4), p_rad_med=st.floats(0.001, 0.4))
def test_probability_edit_equals_a_fresh_build(model_ast, p_err, p_rad_crit, p_rad_med):
    after = {"p_err": p_err, "p_rad_crit": p_rad_crit, "p_rad_med": p_rad_med}
    space, previous, fresh = rebuilt(model_ast, {}, after)
    assert space.states is previous.states  # re-evaluated, not explored
    assert_same_space(space, fresh)


@pytest.mark.parametrize("before, after, n_states", [
    ({}, {"p_err": 0}, 90),                    # drops states
    ({"p_err": 0}, {"p_err": 0.01}, 142),      # adds states
    ({}, {"p_rad_crit": 0}, None),             # an outcome drops to 0
])
def test_edit_that_changes_the_states_runs_the_full_build(model_ast, before, after,
                                                          n_states):
    space, previous, fresh = rebuilt(model_ast, before, after)
    assert space.states is not previous.states
    assert n_states is None or space.n_states == n_states
    assert_same_space(space, fresh)


EDITABLE = """\
dtmc
const double p = 0.5;
const double q = 0;
const int T = 3;
const int K = 3;
module m
  x : [0..3] init 0;
  [] x < 3 -> p : (x'=x+1) + q : (x'=x+1) + 1-p-q : (x'=x);
  [] x >= T -> (x - 2*K) / (x - 2*K) : (x'=0);
endmodule
rewards "r"
  x > 0 : p * x;
endrewards
"""

BASE = {"p": 0.5, "q": 0.0, "T": 3, "K": 3}


@pytest.mark.parametrize("after, reevaluated", [
    ({"p": 0.25}, True),
    ({"q": 0.125}, True),   # a 0 outcome turns live onto an existing successor
    ({"T": 2}, False),      # a guard edit adds the edge 2 -> 0
])
def test_reevaluation_or_full_build_equals_a_fresh_build(after, reevaluated):
    ast = parse_model(EDITABLE)
    space, previous, fresh = rebuilt(ast, BASE, {**BASE, **after})
    assert (space.states is previous.states) == reevaluated
    assert_same_space(space, fresh)


def test_rewritten_probability_expression_is_reevaluated():
    previous = build_dtmc(bind_constants(parse_model(EDITABLE)))
    text = EDITABLE.replace("p : (x'=x+1)", "p/2 : (x'=x+1)").replace("1-p-q", "1-p/2-q")
    bound = bind_constants(parse_model(text))
    space = build_dtmc(bound, previous=previous)
    assert space.states is previous.states
    assert not np.array_equal(space.data, previous.data)
    assert_same_space(space, build_dtmc(bound))


def test_error_only_in_an_unreachable_cached_state_is_not_reported():
    """With x < 1 only x = 0 and 1 stay reachable; the batch over the cached
    states divides by zero at x = 2, the full build does not reach it."""
    ast = parse_model(EDITABLE.replace("x < 3 ->", "x < K ->"))
    space, previous, fresh = rebuilt(ast, {**BASE, "K": 2, "T": 2},
                                     {**BASE, "K": 1, "T": 1})
    assert previous.n_states == 3 and space.n_states == 2
    assert_same_space(space, fresh)


def test_error_in_a_reachable_state_names_it_as_the_full_build_does():
    ast = parse_model(EDITABLE)
    previous = build_dtmc(bind_constants(ast, BASE))
    bound = bind_constants(ast, {**BASE, "K": 1, "T": 2})
    with pytest.raises(EvalError) as fresh:
        build_dtmc(bound)
    with pytest.raises(EvalError) as reused:
        build_dtmc(bound, previous=previous)
    assert str(reused.value) == str(fresh.value)
    assert "{'x': 2}" in str(fresh.value)


@pytest.mark.parametrize("text", [
    EDITABLE.replace("x : [0..3]", "x : [0..4]"),
    EDITABLE.replace("init 0", "init 1"),
])
def test_changed_variables_skip_the_batch(monkeypatch, text):
    calls = []
    monkeypatch.setattr(statespace, "_reevaluate",
                        lambda *args: calls.append(args) or None)
    previous = build_dtmc(bind_constants(parse_model(EDITABLE), BASE))
    bound = bind_constants(parse_model(text), BASE)
    space = build_dtmc(bound, previous=previous)
    assert calls == []
    assert_same_space(space, build_dtmc(bound))


def test_reevaluation_keeps_keys_wider_than_63_bits():
    previous = build_dtmc(bind_constants(parse_model(WIDE), {"L": 10 ** 7}))
    bound = bind_constants(parse_model(WIDE), {"L": 10 ** 7})
    space = build_dtmc(bound, previous=previous)
    assert space.states is previous.states
    assert_same_space(space, build_dtmc(bound))


# A 20x20 walk whose border states deadlock, beside a [go] pair that
# deadlocks once both of its modules have moved.
DEADLOCK_GRID = """\
dtmc
const double p = 0.3;
module walk
  x : [0..20] init 0;
  y : [0..20] init 0;
  [] x<20 & y<20 -> p : (x'=x+1) + 0.5 : (y'=y+1) + 0.5-p : (x'=0);
endmodule
module c
  z : [0..1] init 0;
  [go] z=0 -> 0.5 : (z'=1) + 0.5 : (z'=0);
endmodule
module d
  w : [0..1] init 0;
  [go] w=0 -> (w'=1);
endmodule
rewards "steps"
  true : p;
endrewards
"""


@pytest.mark.parametrize("text, p", [(DEADLOCK, 0.25), (DEADLOCK_GRID, 0.1)],
                         ids=["three-states", "grid"])
def test_probability_edit_with_deadlocks_equals_a_fresh_build(text, p):
    space, previous, fresh = rebuilt(parse_model(text), {}, {"p": p})
    assert previous.diagnostics.deadlock_states_fixed > 0
    assert space.states is previous.states
    assert not np.array_equal(space.data, previous.data)
    assert_same_space(space, fresh)


@pytest.mark.parametrize("text, before, after, reevaluated", [
    (EDITABLE, None, BASE, False),
    (EDITABLE, BASE, {**BASE, "p": 0.25}, True),
    (EDITABLE, BASE, {**BASE, "T": 2}, False),         # the batch falls back
    (EDITABLE, BASE, {**BASE, "K": 1, "T": 2}, None),  # the batch raises
    (DEADLOCK, None, {}, False),
    (DEADLOCK, {}, {"p": 0.25}, True),
    (DEADLOCK, {}, {"p": 1.0}, False),
], ids=["fresh", "reevaluated", "falls-back", "raises", "deadlock-fresh",
        "deadlock-reevaluated", "deadlock-falls-back"])
def test_each_build_compiles_and_assembles_once(monkeypatch, text, before, after,
                                                reevaluated):
    ast = parse_model(text)
    previous = None if before is None else build_dtmc(bind_constants(ast, before))
    bound = bind_constants(ast, after)
    calls = []
    for name in ("_compile_units", "_assemble"):
        real = getattr(statespace, name)
        monkeypatch.setattr(statespace, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    if reevaluated is None:
        with pytest.raises(EvalError):
            build_dtmc(bound, previous=previous)
        assert calls == ["_compile_units"]
        return
    space = build_dtmc(bound, previous=previous)
    assert sorted(calls) == ["_assemble", "_compile_units"]
    assert (previous is not None and space.states is previous.states) == reevaluated
