import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cassure.engine as engine
import pinned
from cassure import (
    SolverConfig, SolverError, VerificationResult, bind_constants, build_dtmc,
    check_properties, check_property, parse_model, parse_properties,
    parse_results, render_value, result_fingerprint, serialize_results,
)
from cassure.engine import (
    _Until, _solve_unknown, bounded_eventually_probability, prob0_states,
    prob1_states,
)
from cassure.model import Binary, Lit, Name
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
    assert by_name["P_succ"].stats["engine"] == "sparse-lu"
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


def test_each_state_formula_is_labelled_once(bound, props, monkeypatch):
    # A fresh space: the shared one carries memo entries between tests.
    # "everywhere" in F, G and R paths is a mask, not a labelled Lit(True).
    labelled = []
    monkeypatch.setattr(engine, "label_states",
                        lambda s, phi: labelled.append(phi) or label_states(s, phi))
    check_properties(build_dtmc(bound), props)
    formulas = {render_expr(e) for p in props
                for e in (p.path.constraint, p.path.target) if e is not None}
    assert sorted(map(render_expr, labelled)) == sorted(formulas)
    assert len(labelled) == 12  # against 18 label calls, one per formula occurrence
    assert Lit(True) not in labelled


def _records(results):
    """The result records without their timings."""
    recs = [json.loads(line) for line in serialize_results(results).splitlines()]
    for rec in recs:
        del rec["stats"]["wall_ms"]
    return recs


SHARED = ('"q": P=? [ F x=1 ]; "b": P>=0.5 [ F x=1 ]; '
          '"u": P<=0.4 [ true U x=1 ]; "g": P=? [ G x!=1 ];')


def test_properties_sharing_masks_solve_once(toy, monkeypatch):
    # F x=1 and true U x=1 are one until problem, and G x!=1 is its
    # complement: one numeric solve serves all four.
    props = parse_properties(SHARED)
    fresh = [check_property(build_dtmc(toy.bound), p) for p in props]
    solves = []
    monkeypatch.setattr(engine, "_solve_unknown",
                        lambda *a: solves.append(1) or _solve_unknown(*a))
    shared = check_properties(build_dtmc(toy.bound), props)
    assert len(solves) == 1
    assert _records(shared) == _records(fresh)
    assert [r.value for r in shared] == [0.5, 0.5, 0.5, 0.5]
    assert [r.verdict for r in shared] == [None, True, False, None]


def test_memo_entries_never_cross_solver_configs(bound, props):
    p_succ = next(p for p in props if p.name == "P_succ")
    space = build_dtmc(bound)
    residual = check_property(space, p_succ).stats["residual"]
    assert residual > 0.0
    tight = SolverConfig(epsilon=residual / 2)
    for s in (space, build_dtmc(bound)):
        with pytest.raises(SolverError, match="missed the residual bound"):
            check_property(s, p_succ, tight)


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
    until = _Until(toy, np.ones(toy.n_states, dtype=bool),
                   label_states(toy, Binary("=", Name("x"), Lit(1))))
    vec, _ = until.probability(SolverConfig())
    assert vec[toy.initial] == pytest.approx(0.5, abs=1e-12)


def test_toy_prob01_sets(toy):
    phi, psi = Lit(True), Binary("=", Name("x"), Lit(1))
    p0 = prob0_states(toy, phi, psi)
    p1 = prob1_states(toy, phi, psi)
    lab = {toy.valuation(s)["x"]: s for s in range(toy.n_states)}
    assert p0[lab[2]] and not p0[lab[0]] and not p0[lab[1]]
    assert p1[lab[1]] and not p1[lab[0]] and not p1[lab[2]]


def test_termination_not_almost_sure(space):
    terminal = Binary("|", Binary("|", Binary("=", Name("loc"), Lit(4)),
                                  Binary("=", Name("loc"), Lit(5))),
                      Binary("=", Name("loc"), Lit(6)))
    one = prob1_states(space, Lit(True), terminal)
    assert bool(one[space.initial]) is pinned.INIT_ALMOST_SURELY_TERMINATES


def test_toy_bounded(toy):
    psi = Binary("=", Name("x"), Lit(1))
    for k, expected in [(0, 0.0), (1, 0.5), (5, 0.5)]:
        vec, _ = bounded_eventually_probability(toy, psi, k)
        assert vec[toy.initial] == pytest.approx(expected, abs=1e-12)


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
    until = _Until(space, np.ones(space.n_states, dtype=bool),
                   label_states(space, Binary("=", Name("x"), Lit(1))))
    vec, _ = until.reward("steps", SolverConfig())
    assert np.isinf(vec[space.initial])


def test_bounded_monotone_in_k(space):
    psi = Binary("=", Name("loc"), Lit(4))
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
    with pytest.raises(SolverError, match="singular"):
        _solve_unknown(space, x, np.arange(space.n_states), np.ones(space.n_states),
                       SolverConfig())


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
    VerificationResult("R_moves", "reward", 7, False, False, False, {}, "ef56"),
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
    '"verdict": false, "marginal": false, "stats": {}, "model_fingerprint": '
    '"ef56"}\n')


def test_result_records_are_written_and_read_back_unchanged(results):
    assert serialize_results(RECORDS) == RECORDS_TEXT
    assert parse_results(RECORDS_TEXT) == RECORDS
    assert parse_results(serialize_results(results)) == results


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
