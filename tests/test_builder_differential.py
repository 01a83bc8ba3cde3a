"""Differential test of `build_dtmc` against the reference builder.

Hypothesis writes small random models: one or two modules with small
integer ranges and perhaps a boolean, guards of comparisons, `&`, `|` and
`!`, one to three updates per command with probabilities such as `p`/`1-p`
or `(x-lo)/R`/`1-(x-lo)/R`, an optional action label in both modules, a
formula and a reward structure.  Some models widen every range by 10**7, so
that the packed keys need two words and the state ids go to the dict
index; narrow ones take the table indexed by key.  Others are deep, narrow
counters with resets, built through both indexes over hundreds of BFS
layers.  Every build is compared bit for bit with `tests/reference_builder.py`: the states, the matrix, the
rewards, both diagnostics, or the error of an out-of-range update.  So is a build that reuses the space of the model
before a constant edit (``previous=``).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import cassure.statespace as statespace
from cassure import BuildError, bind_constants, build_dtmc, parse_model
from cassure.statespace import BuildDiagnostics
from reference_builder import ReferenceBuildError, reference_build
from test_statespace import WIDE

P_VALUES = [0.0, 0.25, 0.3, 0.5, 0.7, 1.0]
Q_VALUES = [0.0, 0.1, 0.25, 0.5]
WIDEN = 10 ** 7


def lit(c):
    return f"({c})" if c < 0 else str(c)


@st.composite
def int_expr(draw, v, lo, hi, others, wide):
    """A right-hand side for int variable v, which starts in [lo..hi] with
    lo <= 0 <= hi.  The first ones keep it there; the others may leave the
    declared range, except in a widened one, where they would walk through
    millions of states."""
    stay = [lit(draw(st.integers(lo, hi))), f"{lit(hi)}-{v}+{lit(lo)}", f"{v}/2", *others]
    return draw(st.sampled_from(stay if wide else stay + [f"{v}+1", f"{v}-1", f"{v}*2"]))


@st.composite
def guards(draw, ints, bools, formula, depth=0):
    atoms = [f"{v} {op} {lit(c)}" for v, (lo, hi) in ints.items()
             for op in ("<", "<=", ">", ">=", "=", "!=")
             for c in (lo - 1, lo, hi, hi + 1)]
    atoms += bools + [f"!{b}" for b in bools] + ["true"]
    if formula:
        atoms.append(f"s > {draw(st.integers(-2, 4))}")
    if depth < 2 and draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(["&", "|"]))
        left = draw(guards(ints, bools, formula, depth + 1))
        right = draw(guards(ints, bools, formula, depth + 1))
        g = f"({left}) {op} ({right})"
        return f"!({g})" if draw(st.booleans()) else g
    return draw(st.sampled_from(atoms))


@st.composite
def models(draw):
    """(model text, a constant edit) of a random model."""
    wide = draw(st.integers(0, 3)) == 0
    n_modules = draw(st.integers(1, 2))
    label = n_modules == 2 and draw(st.booleans())
    lines = ["dtmc", f"const double p = {draw(st.sampled_from(P_VALUES))};",
             f"const double q = {draw(st.sampled_from(Q_VALUES))};"]
    modules, all_ints = [], {}
    for m in range(n_modules):
        n_ints = 3 if wide and m == 0 else draw(st.integers(1, 3 - m))
        ints = {}
        for j in range(n_ints):
            lo = draw(st.integers(-2, 0))
            ints[f"x{m}{j}"] = (lo, max(0, lo + draw(st.integers(1, 3))))
        bools = [f"b{m}"] if draw(st.booleans()) else []
        modules.append((ints, bools))
        all_ints.update(ints)
    formula = draw(st.booleans())
    if formula:
        a, b = draw(st.permutations(sorted(all_ints)))[:2] if len(all_ints) > 1 \
            else (next(iter(all_ints)),) * 2
        lines.append(f"formula s = {a} + {b};")

    for m, (ints, bools) in enumerate(modules):
        lines.append(f"module m{m}")
        for v, (lo, hi) in ints.items():
            low, high = (lo - WIDEN, hi + WIDEN) if wide else (lo, hi)
            lines.append(f"  {v} : [{lit(low)}..{lit(high)}] init "
                         f"{lit(draw(st.integers(lo, hi)))};")
        for b in bools:
            lines.append(f"  {b} : bool init {draw(st.sampled_from(['true', 'false']))};")
        for _ in range(draw(st.integers(1, 4))):
            lab = "go" if label and draw(st.booleans()) else ""
            n_updates = draw(st.integers(1, 3))
            if n_updates == 1:
                probs = [None]
            elif n_updates == 2:
                v = draw(st.sampled_from(sorted(ints)))
                lo, hi = ints[v]
                # A state-dependent probability needs v to stay in [lo..hi].
                share = f"({v}-{lit(lo)})/{hi - lo}"
                probs = draw(st.sampled_from(
                    [["p", "1-p"]] + ([] if wide else [[share, f"1-{share}"]])))
            else:
                probs = draw(st.sampled_from([["q", "q", "1-2*q"],
                                              ["p*q", "q-p*q", "1-q"]]))
            updates, safe = [], []
            for prob in probs:
                targets = draw(st.lists(st.sampled_from(sorted(ints) + bools),
                                        min_size=1, max_size=2, unique=True))
                assigns = []
                for t in targets:
                    if t in ints:
                        lo, hi = ints[t]
                        others = [o for o in all_ints if all_ints[o] == ints[t] and o != t]
                        rhs = draw(int_expr(t, lo, hi, others, wide))
                        safe += {f"{t}+1": [f"{t}<{lit(hi)}"], f"{t}-1": [f"{t}>{lit(lo)}"],
                                 f"{t}*2": [f"2*{t}>={lit(lo)}", f"2*{t}<={lit(hi)}"]
                                 }.get(rhs, [])
                    else:
                        rhs = draw(st.sampled_from([f"!{t}", "true", "false",
                                                    f"{sorted(ints)[0]} > 0"]))
                    assigns.append(f"({t}'={rhs})")
                update = " & ".join(assigns)
                updates.append(update if prob is None else f"{prob} : {update}")
            g = draw(guards(all_ints, [b for _, bs in modules for b in bs], formula))
            if safe and draw(st.integers(0, 3)):  # mostly keep the update in range
                g = " & ".join([f"({g})"] + safe)
            lines.append(f"  [{lab}] {g} -> {' + '.join(updates)};")
        lines.append("endmodule")

    if draw(st.booleans()):
        v = draw(st.sampled_from(sorted(all_ints)))
        lines += ['rewards "r"',
                  f"  {draw(guards(all_ints, [], formula, 2))} : {v}*{v}+p;",
                  f"  true : {draw(st.sampled_from(['1', '0.5', 'q']))};",
                  "endrewards"]
    edit = draw(st.sampled_from([("p", P_VALUES), ("q", Q_VALUES)]))
    return "\n".join(lines) + "\n", {edit[0]: draw(st.sampled_from(edit[1]))}


@st.composite
def deep_models(draw):
    """(model text, a constant edit) of a counter that advances with
    probability q and otherwise resets, maybe beside a second module that
    synchronizes with it or moves on its own."""
    depth = draw(st.integers(20, 300))
    reset = draw(st.sampled_from(["0", "x/2", "D/2"]))
    lines = ["dtmc", f"const int D = {depth};",
             f"const double q = {draw(st.sampled_from([0.5, 0.9, 0.99]))};",
             "module counter", "  x : [0..D] init 0;",
             f"  [tick] x<D -> q : (x'=x+1) + 1-q : (x'={reset});",
             "  [] x=D -> (x'=x);", "endmodule"]
    second = draw(st.sampled_from(["none", "sync", "free"]))
    if second != "none":
        lab = "tick" if second == "sync" else ""
        lines += ["module flag", "  b : bool init false;",
                  f"  [{lab}] true -> 0.5 : (b'=!b) + 0.5 : (b'=b);", "endmodule"]
    lines += ['rewards "steps"', "  x<D : 1;", "endrewards"]
    return "\n".join(lines) + "\n", {"q": draw(st.sampled_from([0.5, 0.9, 0.99]))}


def build_or_error(bound, **kwargs):
    try:
        return build_dtmc(bound, **kwargs), None
    except BuildError as e:
        return None, str(e)


def reference_or_error(bound):
    try:
        return reference_build(bound), None
    except ReferenceBuildError as e:
        return None, str(e)


def assert_equals_reference(bound, **kwargs):
    space, error = build_or_error(bound, **kwargs)
    ref, ref_error = reference_or_error(bound)
    assert error == ref_error
    if ref is None:
        return None
    assert space.states.tolist() == [[int(x) for x in s] for s in ref.states]
    assert space.indptr.tolist() == ref.indptr
    assert space.indices.tolist() == ref.indices
    assert space.data.tobytes() == np.array(ref.data, dtype=np.float64).tobytes()
    assert space.rewards.keys() == ref.rewards.keys()
    for name, vec in ref.rewards.items():
        assert space.rewards[name].tobytes() == np.array(vec, dtype=np.float64).tobytes()
    assert space.diagnostics.deadlock_states_fixed == ref.deadlocks
    assert space.diagnostics.nondeterministic_states == ref.nondeterministic
    return space


def check(text, edit):
    ast = parse_model(text, file="m.prism")
    space = assert_equals_reference(bind_constants(ast))
    edited = bind_constants(ast, edit)
    assert_equals_reference(edited)
    if space is not None:
        assert_equals_reference(edited, previous=space)


@settings(max_examples=60, deadline=None)
@given(models())
def test_random_models_build_as_the_reference_does(model):
    check(*model)


@settings(max_examples=8, deadline=None)
@given(deep_models())
def test_deep_models_build_as_the_reference_does(model):
    check(*model)
    with mock.patch.object(statespace, "TABLE_BUDGET", 0):  # the dict
        check(*model)


def test_reference_sees_an_out_of_range_update_where_the_build_does():
    # The second unit fails at x=1 and the first at x=2, both in layer 1:
    # the build names the first failing unit, not the first failing state.
    text = ("dtmc\nmodule m\n  x : [0..3] init 0;\n"
            "  [] x=2 -> (x'=x*2);\n  [] x=1 -> (x'=x-2);\n"
            "  [] x=0 -> 0.5 : (x'=1) + 0.5 : (x'=2);\nendmodule\n")
    bound = bind_constants(parse_model(text, file="m.prism"))
    _, error = build_or_error(bound)
    assert error == ("assignment drives 'x' to 4, outside [0..3], at state "
                     "{'x': 2} [m.prism:4:3]")
    assert reference_or_error(bound)[1] == error


# ---- the state index: a table by key, or a dict ----

CHAIN = ("dtmc\nconst int M = 1;\nconst int W = 0;\nmodule m\n  x : [0..M] init 0;\n"
         "  w : [0..W] init 0;\n"
         "  [] x<M -> 0.9 : (x'=x+1) + 0.1 : (x'=0);\nendmodule\n")


def indexes_used(monkeypatch):
    """The list of index classes that lookups go to, from now on."""
    used = []
    for cls in (statespace._KeyTable, statespace._KeyDict):
        def find(index, keys, cls=cls, real=cls.find):
            used.append(cls)
            return real(index, keys)
        monkeypatch.setattr(cls, "find", find)
    return used


def test_state_index_over_thousands_of_layers_and_two_word_keys(monkeypatch):
    """A 3,001-layer chain, one new state per layer: a variable that never
    changes spans more keys than TABLE_BUDGET, so the ids go to the dict.
    WIDE's keys are records of two words."""
    used = indexes_used(monkeypatch)
    m = 3000
    space = build_dtmc(bind_constants(parse_model(CHAIN),
                                      {"M": m, "W": statespace.TABLE_BUDGET}))
    assert set(used) == {statespace._KeyDict}
    assert space.states[:, 0].tolist() == list(range(m + 1))
    assert not space.states[:, 1].any()
    # Row x < M: 0.1 back to 0 and 0.9 on to x+1 (row 0 sums them into
    # column order 0, 1); row M deadlocks.
    assert space.indptr.tolist() == list(range(0, 2 * m + 1, 2)) + [2 * m + 1]
    assert space.indices.tolist() == [c for x in range(m) for c in (0, x + 1)] + [m]
    assert space.data.tolist() == [0.1, 0.9] * m + [1.0]
    assert space.diagnostics == BuildDiagnostics(deadlock_states_fixed=1)

    wide = bind_constants(parse_model(WIDE), {"L": 10 ** 7})
    assert (2 * 10 ** 7 + 1) ** 3 > 2 ** 63  # the packed key needs two words
    assert assert_equals_reference(wide).n_states == 16


def test_the_table_builds_what_the_dict_builds(monkeypatch):
    used = indexes_used(monkeypatch)
    bound = bind_constants(parse_model(CHAIN), {"M": 3000})
    table = build_dtmc(bound)
    assert set(used) == {statespace._KeyTable}
    used.clear()
    monkeypatch.setattr(statespace, "TABLE_BUDGET", 0)
    by_dict = build_dtmc(bound)
    assert set(used) == {statespace._KeyDict}
    for name in ("states", "indptr", "indices", "data"):
        a, b = getattr(table, name), getattr(by_dict, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert table.rewards == by_dict.rewards == {}
    assert table.diagnostics == by_dict.diagnostics


def test_a_key_space_over_the_budget_takes_the_dict(monkeypatch):
    used = indexes_used(monkeypatch)
    budget = statespace.TABLE_BUDGET
    for width, index in [(budget - 1, statespace._KeyTable),
                         (budget, statespace._KeyDict)]:
        # x spans width + 1 keys, one word; the walk reaches x = 0..3.
        text = (f"dtmc\nmodule m\n  x : [0..{width}] init 0;\n"
                "  [] x<3 -> 0.5 : (x'=x+1) + 0.5 : (x'=0);\nendmodule\n")
        space = build_dtmc(bind_constants(parse_model(text)))
        assert space.states.ravel().tolist() == [0, 1, 2, 3]
        assert set(used) == {index}
        used.clear()
