"""check_properties against check_property, one property at a time.

check_properties computes what its properties read from the memos in one
batch per kernel: the prob0 sets, the prob1 sets, the F<=k vectors and the
linear systems.  Hypothesis draws property sets over a small pool of state
formulas, so formulas, until problems and linear systems repeat, and G paths
meet the F paths of their complements.  Each set runs on the case study, on
a small grid whose reset edge closes cycles (so sparse LU runs) and on a
chain behind a cycle (levels, then LU).  The batch must give each property
the record that check_property, a batch of one, gives it on a fresh space,
bit for bit and stats included, and keep exactly the memo entries those
checks make.
"""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cassure.engine as engine
from cassure import (
    CassureError, bind_constants, build_dtmc, check_properties, check_property,
    parse_model, parse_properties,
)

CASE_STUDY = Path(__file__).parent.parent / "case_study"

GRID = """\
dtmc
const int N = 4;
module walk
  x : [0..N] init 0;
  y : [0..N] init 0;
  [] x<N & y<N -> 0.4:(x'=x+1) + 0.4:(y'=y+1) + 0.2:(x'=0);
  [] x=N | y=N -> (x'=x);
endmodule
rewards "r"
  x<N : 1;
endrewards
"""

# test_engine.CYCLE_THEN_CHAIN, with a reward structure.
CYCLE_THEN_CHAIN = """\
dtmc
module m
  x : [0..4] init 0;
  [] x=0 -> (x'=1);
  [] x=1 -> 0.5:(x'=0) + 0.5:(x'=2);
  [] x=2 -> 0.25:(x'=2) + 0.375:(x'=3) + 0.375:(x'=4);
  [] x>=3 -> (x'=x);
endmodule
rewards "r"
  x<3 : 1;
endrewards
"""

CASE_STUDY_MODEL = (CASE_STUDY / "nuclear.prism").read_text()
CASE_STUDY_MODEL += '\nrewards "r"\n  true : 1;\nendrewards\n'

# Each model with its pool of state formulas: complements, an empty and a
# full set, and targets reached surely, with some probability, or never.
MODELS = {
    "case-study": (CASE_STUDY_MODEL, [
        "loc = 4", "loc != 4", "loc = 5", "loc != 5", "(loc = 4 | loc = 5)",
        "(loc = 4 | loc = 5 | loc = 6)", "batt < 50", "batt >= 50", "sw = 2",
        "rad = 2", "true", "false"]),
    "grid": (GRID, ["x = N", "x != N", "y = N", "x >= 2", "x < 2",
                    "(x = N | y = N)", "(x = N & y = N)", "y < N", "true",
                    "false"]),
    "cycle-then-chain": (CYCLE_THEN_CHAIN, [
        "x = 3", "x != 3", "x >= 3", "x < 3", "x != 0", "x = 0", "x = 4",
        "true", "false"]),
}
BOUNDS = ["0", "1", "0.25", "0.5", "0.9"]


@st.composite
def property_texts(draw, formulas):
    """One property: a P query or bound over F, U, G or F<=k, or an R
    query over F."""
    pick = st.sampled_from(formulas)
    kind = draw(st.sampled_from(["F", "U", "G", "F<=", "R"]))
    target = draw(pick)
    if kind == "R":
        return f'R{{"r"}}=? [ F {target} ]'
    path = {"F": f"F {target}", "G": f"G {target}",
            "U": f"{draw(pick)} U {target}",
            "F<=": f"F<={draw(st.integers(0, 6))} {target}"}[kind]
    head = draw(st.sampled_from(["P=?", "P>=", "P<="]))
    if head != "P=?":
        head += draw(st.sampled_from(BOUNDS))
    return f"{head} [ {path} ]"


@st.composite
def property_sets(draw, formulas):
    """Properties, some of them repeated word for word under another name."""
    texts = draw(st.lists(property_texts(formulas), min_size=1, max_size=12))
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))
    return "".join(f'"p{i}": {t};\n' for i, t in enumerate(texts))


def _keys(space):
    return set(space.memo.entries) | set(space.graph_memo.entries)


@pytest.fixture(scope="module", params=list(MODELS))
def model(request):
    text, formulas = MODELS[request.param]
    return build_dtmc(bind_constants(parse_model(text))), formulas


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_batch_equals_each_property_checked_alone(model, data):
    space, formulas = model
    props = parse_properties(data.draw(property_sets(formulas)), file="d.props")
    batch_space = replace(space)  # the same states, with empty memos
    batch = check_properties(batch_space, props)
    keys = set()
    for prop, result in zip(props, batch):
        alone = replace(space)
        assert check_property(alone, prop) == result, prop.source_text
        keys |= _keys(alone)
    assert _keys(batch_space) == keys


# Every kind of read on the grid: 0/1 sets, F<=k vectors and linear systems.
MIXED = "".join(f'"p{i}": {t};\n' for i, t in enumerate([
    "P=? [ F x=N ]", "P=? [ F y=N ]", "P=? [ F x>=2 ]", "P=? [ G x<2 ]",
    "P=? [ y<N U x=N ]", "P>=1 [ F (x=N | y=N) ]", "P<=0 [ F (x=N & y=N) ]",
    "P>=0.5 [ F x=N ]", "P=? [ F<=3 x=N ]", "P=? [ F<=5 y=N ]",
    "P=? [ F<=2 x>=2 ]", 'R{"r"}=? [ F x=N ]', 'R{"r"}=? [ F (x=N | y=N) ]']))


@pytest.mark.parametrize("per", [1, 3])
def test_batches_of_a_few_problems_give_the_records_of_one(monkeypatch, per):
    """A large space takes its problems a few at a time: the records and
    the memo entries do not depend on the batch size."""
    space = build_dtmc(bind_constants(parse_model(GRID)))
    props = parse_properties(MIXED)
    whole = replace(space)
    expected = check_properties(whole, props)
    sizes, reach = [], engine._backward_reach

    def counted(space, seeds, allowed):
        sizes.append(len(seeds))
        return reach(space, seeds, allowed)
    monkeypatch.setattr(engine, "_backward_reach", counted)
    monkeypatch.setattr(engine, "_BATCH_PAIRS", per * space.n_states)
    split = replace(space)
    assert check_properties(split, props) == expected
    assert _keys(split) == _keys(whole)
    assert len(sizes) > 2 and max(sizes) == per


ROUNDED_LOOP = """\
dtmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1e-20:(x'=1) + 1e-20:(x'=2) + (1-2e-20):(x'=0);
  [] x>0 -> (x'=x);
endmodule
rewards "r"
  true : 1;
endrewards
"""


@pytest.mark.parametrize("props", [
    ['P=? [ F x=2 ]', 'P=? [ F z=1 ]'],
    ['P=? [ F z=1 ]', 'P=? [ F x=2 ]'],
    ['P>=1 [ F x=2 ]', 'P=? [ F<=3 x=2 ]', 'R{"nope"}=? [ F x=2 ]', 'P=? [ F x=1 ]'],
    ['P=? [ F x>0 ]', 'R{"r"}=? [ F x>0 ]', 'P=? [ F x=1 ]'],
], ids=["singular-then-unbound", "unbound-then-singular", "unknown-reward-first",
        "singular-after-solvable"])
def test_a_batch_raises_what_the_first_failing_property_raises(props):
    """A system that fails in the batch is stored in no memo: its error,
    from that one solve, is raised when its property is judged, in file
    order, before any later property's error."""
    space = build_dtmc(bind_constants(parse_model(ROUNDED_LOOP)))
    parsed = parse_properties("".join(f'"p{i}": {t};\n' for i, t in enumerate(props)),
                              file="s.props")
    with pytest.raises(CassureError) as alone:
        for prop in parsed:
            check_property(replace(space), prop)
    with pytest.raises(CassureError) as batch:
        check_properties(space, parsed)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)
