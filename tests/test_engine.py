import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cassure.engine as engine
import pinned
from until_vectors import until_vector
from cassure import (
    CassureError, SolverConfig, SolverError, VerificationResult, bind_constants,
    build_dtmc, check_properties, check_property, parse_model, parse_properties,
    parse_results, render_value, result_fingerprint, serialize_results,
)
from cassure.engine import (
    _solve_unknown, bounded_eventually_probability, evidence, prob0_states,
    prob1_states,
)
import cassure.statespace as statespace
from cassure.model import Binary, Lit, Name, Unary, compile_expr
from cassure.parsing import render_expr
from cassure.statespace import label_states

TOL = 1e-7


@pytest.fixture(scope="module")
def by_name(results):
    return {r.property: r for r in results}


def test_probability_queries_match_pinned(by_name):
    for name, expected in pinned.PROBABILITIES.items():
        r = by_name[name]
        assert r.kind == "probability"
        assert r.value == pytest.approx(expected, abs=TOL), name


def test_rewards_all_infinite(by_name):
    for name in pinned.INFINITE_REWARDS:
        r = by_name[name]
        assert r.kind == "reward"
        assert r.infinite and r.value is None


def test_bound_verdicts_match_pinned(by_name):
    for name, expected in pinned.VERDICTS.items():
        r = by_name[name]
        assert r.kind == "boolean"
        assert r.verdict is expected, name
        assert not r.marginal


def test_qualitative_bounds_report_zero_iterations(by_name):
    # bounds of exactly 0/1 are decided by graph fixpoints, never numerics
    for name in pinned.VERDICTS:
        if name == "P_noOpOutside":
            continue
        assert by_name[name].stats["iterations"] == 0
        assert by_name[name].stats["engine"] == "graph"


def test_stats_name_the_engine_that_ran(by_name):
    assert by_name["P_succ"].stats["engine"] == "levels"
    assert by_name["P_succ"].stats["iterations"] == 0
    assert 0.0 <= by_name["P_succ"].stats["residual"] <= SolverConfig().epsilon
    assert by_name["P_timeBound"].stats["engine"] == "matvec"
    assert by_name["P_timeBound"].stats["iterations"] == 5


def test_infinite_rewards_run_no_solve(space, props, monkeypatch):
    """The initial state misses the target with positive probability, so
    each reward query is +inf from the graph alone; splu must not run."""
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called")
    monkeypatch.setattr("scipy.sparse.linalg.splu", no_splu)
    by_prop = {p.name: p for p in props}
    for name in pinned.INFINITE_REWARDS:
        r = check_properties(space, [by_prop[name]])[0]
        assert r.infinite and r.value is None
        assert r.stats["engine"] == "graph"
        assert r.stats["iterations"] == 0 and r.stats["residual"] == 0.0


def _atoms(e):
    """The maximal subformulas of `e` whose root is no '&', '|', '->' or '!'."""
    if isinstance(e, Binary) and e.op in ("&", "|", "->"):
        return _atoms(e.left) + _atoms(e.right)
    if isinstance(e, Unary) and e.op == "!":
        return _atoms(e.operand)
    return [e]


def test_each_atom_is_evaluated_once(bound, props, monkeypatch):
    # A fresh space: the shared one carries memo entries between tests.
    # "everywhere" in F, G and R paths is a mask, not a labelled Lit(True).
    space = build_dtmc(bound)
    compiled = []
    monkeypatch.setattr(statespace, "compile_expr",
                        lambda e, b: compiled.append(e) or compile_expr(e, b))
    check_properties(space, props)
    atoms = {render_expr(a) for p in props
             for e in (p.path.constraint, p.path.target) if e is not None
             for a in _atoms(e)}
    assert sorted(map(render_expr, compiled)) == sorted(atoms)
    # 18 formula occurrences, 12 distinct formulas, 17 distinct atoms
    assert len(compiled) == 17
    assert Lit(True) not in compiled


def _counted(monkeypatch, name):
    """The list of the problems or systems that engine.<name> was given:
    one entry per row of a (K, n) mask stack, or per system of a list."""
    calls, real = [], getattr(engine, name)

    def counted(space, batch, *rest):
        calls.extend(batch if isinstance(batch, list)
                     else batch.reshape(-1, space.n_states))
        return real(space, batch, *rest)
    monkeypatch.setattr(engine, name, counted)
    return calls


SHARED = ('"q": P=? [ F x=1 ]; "b": P>=0.5 [ F x=1 ]; '
          '"u": P<=0.4 [ true U x=1 ]; "g": P=? [ G x!=1 ];')


def test_properties_sharing_masks_solve_once(toy, monkeypatch):
    # F x=1 and true U x=1 are one until problem, and G x!=1 is its
    # complement: one numeric solve serves all four.
    props = parse_properties(SHARED)
    fresh = [check_property(build_dtmc(toy.bound), p) for p in props]
    solves = _counted(monkeypatch, "_solve_unknown")
    shared = check_properties(build_dtmc(toy.bound), props)
    assert len(solves) == 1
    assert shared == fresh
    assert [r.value for r in shared] == [0.5, 0.5, 0.5, 0.5]
    assert [r.verdict for r in shared] == [None, True, False, None]


def test_a_solve_that_raised_is_not_memoized(toy, monkeypatch):
    prop = parse_properties(SHARED)[0]
    space = build_dtmc(toy.bound)
    calls = []

    def fail_once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise SolverError("injected")
        return _solve_unknown(*args)
    monkeypatch.setattr(engine, "_solve_unknown", fail_once)
    with pytest.raises(SolverError, match="injected"):
        check_property(space, prop)
    assert check_property(space, prop).value == pytest.approx(0.5, abs=1e-12)
    assert len(calls) == 2


def test_a_reevaluated_space_keeps_its_01_sets(model_text, props, monkeypatch):
    # A p_err edit keeps the states and the transition pattern, so every
    # prob0/prob1 mask of the earlier space still holds.
    first = build_dtmc(bind_constants(parse_model(model_text)))
    before = check_properties(first, props)
    edited = bind_constants(parse_model(
        model_text.replace("p_err = 0.01;", "p_err = 0.015;")))
    fresh = check_properties(build_dtmc(edited), props)
    space = build_dtmc(edited, previous=first)
    assert space.states is first.states and space.graph_memo is first.graph_memo
    assert space.predecessors is first.predecessors
    reaches = _counted(monkeypatch, "_backward_reach")
    again = check_properties(space, props)
    assert reaches == []
    assert again == fresh
    assert again != before


def test_an_edit_that_changes_the_pattern_shares_nothing(model_text, props,
                                                         monkeypatch):
    # p_err = 0 drops the error branches: a full build, and new 0/1 sets.
    first = build_dtmc(bind_constants(parse_model(model_text)))
    check_properties(first, props)
    edited = bind_constants(parse_model(
        model_text.replace("p_err = 0.01;", "p_err = 0;")))
    space = build_dtmc(edited, previous=first)
    assert space.states is not first.states
    for name in ("columns", "row_ids", "predecessors", "graph_memo"):
        assert getattr(space, name) is not getattr(first, name), name
    reaches = _counted(monkeypatch, "_backward_reach")
    assert check_properties(space, props) == check_properties(
        build_dtmc(edited), props)
    assert reaches


GRID = """\
dtmc
const int N = 12;
module walk
  x : [0..N] init 0;
  y : [0..N] init 0;
  [] x<N & y<N -> 0.4:(x'=x+1) + 0.4:(y'=y+1) + 0.2:(x'=0);
  [] x=N | y=N -> (x'=x);
endmodule
rewards "steps"
  true : 1;
endrewards
"""
GRID_PROPS = ('"R_steps": R{"steps"}=? [ F x=N|y=N ]; "P_reach": P=? [ F x>=6 ]; '
              '"P_thr": P<=0.001 [ y<N U x>=6 ];')


def test_memo_entries_never_cross_solver_configs():
    # P_reach's block has a cycle (x'=0), so sparse LU solves it.
    bound = bind_constants(parse_model(GRID))
    p_reach = next(p for p in parse_properties(GRID_PROPS) if p.name == "P_reach")
    space = build_dtmc(bound)
    result = check_property(space, p_reach)
    assert result.stats["engine"] == "sparse-lu"
    residual = result.stats["residual"]
    assert residual > 0.0
    tight = SolverConfig(epsilon=residual / 2)
    for s in (space, build_dtmc(bound)):
        with pytest.raises(SolverError, match="missed the residual bound"):
            check_property(s, p_reach, tight)


def test_a_solution_is_reused_under_another_epsilon(monkeypatch):
    # epsilon only judges a solve, so the memo does not key on it.
    p_reach = next(p for p in parse_properties(GRID_PROPS) if p.name == "P_reach")
    space = build_dtmc(bind_constants(parse_model(GRID)))
    solves = _counted(monkeypatch, "_solve_unknown")
    first = check_property(space, p_reach)
    again = check_property(space, p_reach, SolverConfig(epsilon=1e-6))
    assert len(solves) == 1
    assert again.value == first.value


# State 0 leaves itself with probability 2e-20, which rounds its self-loop
# to exactly 1: the graph keeps it unknown, and its level divides by 1 - 1.
ROUNDED_LOOP = """\
dtmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1e-20:(x'=1) + 1e-20:(x'=2) + (1-2e-20):(x'=0);
  [] x>0 -> (x'=x);
endmodule
"""


def test_a_singular_solve_names_the_property():
    space = build_dtmc(bind_constants(parse_model(ROUNDED_LOOP)))
    props = parse_properties('"a": P=? [ F x=2 ];\n  "b": P=? [ F x=1 ];\n',
                             file="s.props")
    with pytest.raises(SolverError) as info:
        check_property(space, props[1])
    assert str(info.value).startswith("s.props:2:3: singular system over 1 "
                                      "unknown states")


def test_a_failed_system_is_solved_once_per_check(monkeypatch):
    # Both properties read the one singular system of F x=1; its error
    # comes from the batch, with no second solve, and is stored nowhere.
    space = build_dtmc(bind_constants(parse_model(ROUNDED_LOOP)))
    props = parse_properties('"a": P=? [ F x=1 ]; "b": P>=0.5 [ F x=1 ];',
                             file="s.props")
    solves = _counted(monkeypatch, "_solve_unknown")
    for _ in range(2):
        with pytest.raises(SolverError) as info:
            check_properties(space, props)
        assert str(info.value) == ("s.props:1:1: singular system over 1 unknown "
                                   "states: state 0 keeps itself with probability 1")
    assert len(solves) == 2


def test_one_linear_system_is_solved_once(monkeypatch):
    # F x>=6 and y<N U x>=6 differ in phi but have equal 0/1 sets, and so
    # one linear system: the grid's three properties make two solves.
    space = build_dtmc(bind_constants(parse_model(GRID)))
    props = parse_properties(GRID_PROPS)
    fresh = [check_property(build_dtmc(space.bound), p) for p in props]
    solves = _counted(monkeypatch, "_solve_unknown")
    shared = check_properties(space, props)
    assert len(solves) == 2
    assert shared == fresh
    assert [r.stats["engine"] for r in shared] == ["sparse-lu"] * 3


CYCLE_THEN_CHAIN = """\
dtmc
module m
  x : [0..4] init 0;
  [] x=0 -> (x'=1);
  [] x=1 -> 0.5:(x'=0) + 0.5:(x'=2);
  [] x=2 -> 0.25:(x'=2) + 0.375:(x'=3) + 0.375:(x'=4);
  [] x>=3 -> (x'=x);
endmodule
"""


def test_levels_peel_what_no_cycle_holds_and_lu_solves_the_rest():
    space = build_dtmc(bind_constants(parse_model(CYCLE_THEN_CHAIN)))
    x = np.array([space.valuation(i)["x"] for i in range(space.n_states)])

    def until(phi):
        vec, stats = until_vector(space, phi, x == 3)
        return dict(zip(x.tolist(), vec.tolist())), stats["engine"]
    # x=2 has no successor in the unknown block but itself: one level.
    # x=0 and x=1 form a cycle, left to the LU after that level.
    values, engine_ran = until(x >= 0)
    assert engine_ran == "levels+sparse-lu"
    assert values == pytest.approx({0: 0.5, 1: 0.5, 2: 0.5, 3: 1.0, 4: 0.0})
    # Outside x!=0, x=0 is in prob0: x=2, then x=1, are two levels.
    values, engine_ran = until(x != 0)
    assert engine_ran == "levels"
    assert values == {0: 0.0, 1: 0.25, 2: 0.5, 3: 1.0, 4: 0.0}


# ---- trivial hand-solvable chains ----

TOY = """\
dtmc
module m
  x : [0..2] init 0;
  [] x = 0 -> 0.5 : (x'=1) + 0.5 : (x'=2);
  [] x > 0 -> (x'=x);
endmodule
"""


@pytest.fixture(scope="module")
def toy():
    return build_dtmc(bind_constants(parse_model(TOY)))


def test_toy_until(toy):
    vec, _ = until_vector(toy, np.ones(toy.n_states, dtype=bool),
                          label_states(toy, Binary("=", Name("x"), Lit(1))))
    assert vec[toy.initial] == pytest.approx(0.5, abs=1e-12)


def test_toy_prob01_sets(toy):
    phi = np.ones(toy.n_states, dtype=bool)
    psi = label_states(toy, Binary("=", Name("x"), Lit(1)))
    p0 = prob0_states(toy, phi, psi)
    p1 = prob1_states(toy, phi, psi)
    lab = {toy.valuation(s)["x"]: s for s in range(toy.n_states)}
    assert p0[lab[2]] and not p0[lab[0]] and not p0[lab[1]]
    assert p1[lab[1]] and not p1[lab[0]] and not p1[lab[2]]


def test_termination_not_almost_sure(space):
    terminal = Binary("|", Binary("|", Binary("=", Name("loc"), Lit(4)),
                                  Binary("=", Name("loc"), Lit(5))),
                      Binary("=", Name("loc"), Lit(6)))
    one = prob1_states(space, np.ones(space.n_states, dtype=bool),
                       label_states(space, terminal))
    assert bool(one[space.initial]) is pinned.INIT_ALMOST_SURELY_TERMINATES


def test_toy_bounded(toy):
    psi = label_states(toy, Binary("=", Name("x"), Lit(1)))
    for k, expected in [(0, 0.0), (1, 0.5), (5, 0.5)]:
        vec, _ = bounded_eventually_probability(toy, psi, k)
        assert vec[toy.initial] == pytest.approx(expected, abs=1e-12)


def _every_row_steps(space, psi, k):
    """F<=k as the whole matrix computes it, every row on every step."""
    x = psi.astype(np.float64)
    for _ in range(k):
        x = np.bincount(space.row_ids, weights=space.data * x[space.indices],
                        minlength=space.n_states)
        x[psi] = 1.0
    return np.clip(x, 0.0, 1.0)


# loc=4 is absorbing; the states at loc=2 move on, so only the step function
# keeps their value at 1.
@pytest.mark.parametrize("target", ["everywhere", "nowhere", "loc=4", "loc=2"])
@pytest.mark.parametrize("k", [0, 1, 5, 60])
def test_bounded_steps_only_rows_outside_the_target(space, target, k):
    loc = space.columns[[v.name for v in space.bound.variables].index("loc")]
    psi = {"everywhere": np.ones(space.n_states, dtype=bool),
           "nowhere": np.zeros(space.n_states, dtype=bool),
           "loc=4": loc == 4, "loc=2": loc == 2}[target]
    vec, stats = bounded_eventually_probability(space, psi, k)
    assert vec.tobytes() == _every_row_steps(space, psi, k).tobytes()
    assert stats == {"iterations": k, "residual": 0.0, "engine": "matvec"}
    if target in ("everywhere", "nowhere") or k == 0:
        assert vec.tolist() == psi.astype(float).tolist()


def test_toy_globally(toy):
    # G x != 1 holds with probability 0.5 from the start
    r = check_property(toy, parse_properties("P=? [ G x != 1 ]")[0])
    assert r.value == pytest.approx(0.5, abs=1e-12)


def test_toy_reward_infinite_on_nonreaching():
    text = """\
dtmc
module m
  x : [0..2] init 0;
  [] x = 0 -> 0.5 : (x'=1) + 0.5 : (x'=2);
  [] x > 0 -> (x'=x);
endmodule
rewards "steps"
  true : 1;
endrewards
"""
    space = build_dtmc(bind_constants(parse_model(text)))
    vec, _ = until_vector(space, np.ones(space.n_states, dtype=bool),
                          label_states(space, Binary("=", Name("x"), Lit(1))),
                          "steps")
    assert np.isinf(vec[space.initial])


def test_bounded_monotone_in_k(space):
    psi = label_states(space, Binary("=", Name("loc"), Lit(4)))
    vals = [bounded_eventually_probability(space, psi, k)[0][space.initial]
            for k in range(11)]
    assert vals == pytest.approx(pinned.BOUNDED_SUCCESS, abs=TOL)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_singular_block_raises():
    # A closed 2-cycle never leaves the block, so I - P_UU is singular; the
    # 0/1 precompute would never hand it to the solve.
    space = build_dtmc(bind_constants(parse_model(
        "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] true -> (x'=1-x);\n"
        "endmodule\n")))
    x = np.zeros(space.n_states)
    [error] = _solve_unknown(space, [(x, np.arange(space.n_states),
                                      np.ones(space.n_states))])
    assert isinstance(error, SolverError) and "singular" in str(error)
    assert not x.any()


def test_a_certain_self_loop_in_a_level_is_singular():
    # x=1 keeps itself with probability 1, so its level divides by 1 - 1;
    # the 0/1 precompute would put it in prob0 instead.
    space = build_dtmc(bind_constants(parse_model(
        "dtmc\nmodule m\n  x : [0..1] init 0;\n  [] true -> (x'=1);\n"
        "endmodule\n")))
    x = np.zeros(space.n_states)
    [error] = _solve_unknown(space, [(x, np.arange(space.n_states),
                                      np.ones(space.n_states))])
    assert isinstance(error, SolverError) and "singular" in str(error)
    assert not x.any()


def test_a_singular_system_leaves_the_rest_of_its_batch_solved():
    # CYCLE_THEN_CHAIN's x=0 and x=1 form a cycle; the second system makes
    # x=4 keep itself with probability 1 while x=2 is ready.
    space = build_dtmc(bind_constants(parse_model(CYCLE_THEN_CHAIN)))
    x = np.array([space.valuation(i)["x"] for i in range(space.n_states)])

    def system():
        return np.where(x == 3, 1.0, 0.0), np.flatnonzero(x < 3), np.zeros(space.n_states)
    good, bad = system(), (np.zeros(space.n_states), np.flatnonzero(x != 3),
                           np.zeros(space.n_states))
    alone = system()
    [expected] = _solve_unknown(space, [alone])
    stats, error = _solve_unknown(space, [good, bad])
    assert stats == expected and stats["engine"] == "levels+sparse-lu"
    assert good[0].tobytes() == alone[0].tobytes()
    assert str(error) == ("singular system over 4 unknown states: state "
                          f"{np.flatnonzero(x == 4)[0]} keeps itself with probability 1")
    assert not bad[0].any()


# ---- rendering and records ----

def test_render_value_formats(by_name):
    assert render_value(by_name["P_succ"]) == "0.932065"
    assert render_value(by_name["R_moves"]) == "+∞"
    assert render_value(by_name["P_fullSpeed"]) == "holds"
    assert render_value(by_name["P_warnMode"]) == "violated"


def test_result_fingerprint_tracks_value_only(by_name):
    r = by_name["P_succ"]
    from dataclasses import replace
    same = replace(r, stats={"iterations": 999}, model_fingerprint="other")
    assert result_fingerprint(same) == result_fingerprint(r)
    moved = replace(r, value=0.5)
    assert result_fingerprint(moved) != result_fingerprint(r)


def test_result_fingerprint_hashes_the_stated_evidence():
    def fp(kind, value=None, verdict=None, marginal=False, infinite=False):
        return result_fingerprint(VerificationResult(
            "P", kind, value, infinite, verdict, marginal))

    # A non-marginal fingerprint is the sha256 of the text every .gsn holds.
    assert fp("probability", 0.25) == hashlib.sha256(
        b"P|probability|0.25").hexdigest()
    assert fp("reward", infinite=True) == hashlib.sha256(
        "P|reward|+∞".encode()).hexdigest()
    # A marginal pass states more than a clear pass of the same bound.
    assert fp("boolean", 0.5, True, marginal=True) != fp("boolean", 0.5, True)
    # Six significant digits decide, not an absolute tolerance.
    assert fp("probability", 1e-8) != fp("probability", 5e-8)
    assert fp("reward", 2500.0004) == fp("reward", 2500.001)


def test_evidence_defers_a_violated_or_marginal_result():
    def deferred(verdict, marginal=False):
        return evidence(VerificationResult("P", "boolean", 0.5, False, verdict,
                                           marginal)).deferred

    assert deferred(False) and deferred(True, marginal=True)
    assert deferred(False, marginal=True) and not deferred(True)
    assert not evidence(VerificationResult("P", "probability", 0.0)).deferred


def test_results_round_trip(results):
    text = serialize_results(results)
    first = json.loads(text.splitlines()[0])
    assert list(first) == ["property", "kind", "value", "infinite", "verdict",
                           "marginal", "stats", "model_fingerprint"]
    back = parse_results(text)
    assert [r.property for r in back] == [r.property for r in results]
    assert all(a.value == b.value and a.verdict is b.verdict
               for a, b in zip(back, results))


# Records of each kind, with the text that serialize_results has always
# written for them.
RECORDS = [
    VerificationResult("P_succ", "probability", 0.9320652173913043, False, None,
                       False, {"iterations": 0, "unknown_states": 44}, "ab12"),
    VerificationResult("P_safe", "boolean", None, False, True, True, {}, ""),
    VerificationResult("R_time", "reward", None, True, None, False,
                       {"iterations": 3}, "cd34"),
    VerificationResult("R_moves", "reward", 7, False, None, False, {}, "ef56"),
]
RECORDS_TEXT = (
    '{"property": "P_succ", "kind": "probability", "value": 0.9320652173913043, '
    '"infinite": false, "verdict": null, "marginal": false, "stats": '
    '{"iterations": 0, "unknown_states": 44}, "model_fingerprint": "ab12"}\n'
    '{"property": "P_safe", "kind": "boolean", "value": null, "infinite": false, '
    '"verdict": true, "marginal": true, "stats": {}, "model_fingerprint": ""}\n'
    '{"property": "R_time", "kind": "reward", "value": null, "infinite": true, '
    '"verdict": null, "marginal": false, "stats": {"iterations": 3}, '
    '"model_fingerprint": "cd34"}\n'
    '{"property": "R_moves", "kind": "reward", "value": 7, "infinite": false, '
    '"verdict": null, "marginal": false, "stats": {}, "model_fingerprint": '
    '"ef56"}\n')


def test_result_records_are_written_and_read_back_unchanged(results):
    assert serialize_results(RECORDS) == RECORDS_TEXT
    assert parse_results(RECORDS_TEXT) == RECORDS
    assert parse_results(serialize_results(results)) == results


@pytest.mark.parametrize("record", [
    '{"property": "R", "kind": "reward", "value": Infinity}',
    '{"property": "R", "kind": "reward", "value": -Infinity}',
    '{"property": "P", "kind": "probability", "value": 7.5}',
    '{"property": "P", "kind": "probability", "value": -0.25}',
], ids=["reward-inf", "reward-minus-inf", "probability-above-1",
        "probability-below-0"])
def test_an_infinite_value_or_a_probability_outside_0_1_is_malformed(record):
    # json.loads reads Infinity, but JSON has none (RFC 8259 section 6); an
    # infinite reward is "infinite": true.
    with pytest.raises(CassureError, match="malformed result record on line 2"):
        parse_results(RECORDS_TEXT.splitlines()[0] + "\n" + record + "\n")


def test_probabilities_0_and_1_are_read():
    text = "".join(f'{{"property": "P", "kind": "probability", "value": {v}}}\n'
                   for v in ("0", "1", "0.0", "1.0"))
    assert [r.value for r in parse_results(text)] == [0, 1, 0.0, 1.0]


def test_closed_form_no_radiation():
    model = parse_model(Path("case_study/nuclear.prism").read_text())
    b = bind_constants(model, {"p_rad_crit": 0.0, "p_rad_med": 0.0})
    space = build_dtmc(b)
    props = parse_properties('"P_succ": P=? [F loc = 4]')
    r = check_properties(space, props)[0]
    assert r.value == pytest.approx(pinned.P_SUCC_NO_RADIATION, abs=1e-9)



def test_precompute_does_not_import_numpy_ma(model_path, props_path, tmp_path):
    # np.unique imports numpy.ma (about 10 ms) on its first call in a process.
    # scipy.sparse imports it too, so only properties that the 0/1 precompute
    # decides without a solve are checked: the bounded P and the R queries.
    # The second check follows a p_err edit, which re-evaluates the space.
    lines = [l for l in props_path.read_text().splitlines()
             if "P>=1" in l or "P<=0" in l or "R{" in l]
    props = tmp_path / "qualitative.props"
    props.write_text("\n".join(lines) + "\n")
    model = tmp_path / "nuclear.prism"
    model.write_text(model_path.read_text())
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from cassure.cli import PipelineConfig, run_check\n"
            f"cfg = PipelineConfig({str(model)!r}, {str(props)!r}, '.')\n"
            "last = run_check(cfg)\n"
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
            f"model = Path({str(model)!r})\n"
            "model.write_text(model.read_text().replace('p_err = 0.01;',\n"
            "                                           'p_err = 0.015;'))\n"
            "again = run_check(cfg, last)\n"
            "print(again.space.states is last.space.states, again.space is last.space)\n"
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n")
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "False", "True", "False", "False", "False"]


def _modules_after_run_check(model, props, const={}):
    """Run run_check in a fresh process; whether it loaded scipy."""
    code = ("import sys\n"
            "from cassure.cli import PipelineConfig, run_check\n"
            f"cfg = PipelineConfig({str(model)!r}, {str(props)!r}, '.', "
            f"constants={const!r})\n"
            "checked = run_check(cfg)\n"
            "print(len(checked.results), 'scipy' in sys.modules)\n")
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.split()


def test_scipy_loads_only_for_a_block_with_a_cycle(model_path, props_path,
                                                   tmp_path):
    # The case study's unknown blocks hold no cycle but self-loops, so the
    # levels solve them all; the grid's reset edge closes cycles.
    assert _modules_after_run_check(model_path, props_path) == ["17", "False"]
    (tmp_path / "grid.prism").write_text(GRID)
    (tmp_path / "grid.props").write_text(GRID_PROPS)
    assert _modules_after_run_check(tmp_path / "grid.prism", tmp_path / "grid.props",
                                    {"N": 3}) == ["3", "True"]
