"""Differential test of the engine against the exact-rational oracle.

Hypothesis draws small chains as hand-built StateSpaces, in two shapes:
dense rows that spread eight eighths of probability over random successors,
and sparse rows of one to three successors, mostly forward, whose unknown
blocks the levels peel whole, in part or not at all.  Each comes with
random phi/psi masks and a reward vector.  The oracle's generic Fraction
functions over `rows` give the exact answers.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from until_vectors import until_vector
from cassure import (
    bind_constants, check_properties, parse_model, parse_properties,
)
from cassure.engine import (
    bounded_eventually_probability, prob0_states, prob1_states,
)
from cassure.statespace import BuildDiagnostics, StateSpace

EIGHTHS = 8
BOUND = bind_constants(parse_model(
    "dtmc\nmodule m\n  s : [0..11] init 0;\n  [] true -> (s'=s);\nendmodule\n"))


@st.composite
def chains(draw):
    n = draw(st.integers(2, 12))
    state = st.integers(0, n - 1)
    rows = []
    for _ in range(n):
        row = {}
        for j in draw(st.lists(state, min_size=EIGHTHS, max_size=EIGHTHS)):
            row[j] = row.get(j, Fraction(0)) + Fraction(1, EIGHTHS)
        rows.append(row)
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    phi, psi = draw(masks), draw(masks)
    reward = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return rows, phi, psi, reward


@st.composite
def sparse_chains(draw):
    """Rows of one to three successors, each given at least one eighth:
    mostly forward (the state itself or one of the next four), and about
    one in four back to an earlier state.  Unknown blocks then come without
    a cycle, with a cycle upstream of acyclic states, or cyclic."""
    n = draw(st.integers(2, 30))
    rows = []
    for i in range(n):
        k = draw(st.integers(1, 3))
        succ = [draw(st.integers(0, i - 1) if i and draw(st.integers(0, 3)) == 0
                     else st.integers(i, min(n - 1, i + 4))) for _ in range(k)]
        cuts = draw(st.lists(st.integers(1, EIGHTHS - 1), min_size=k - 1,
                             max_size=k - 1, unique=True))
        shares = np.diff([0, *sorted(cuts), EIGHTHS])
        row = {}
        for j, share in zip(succ, shares.tolist()):
            row[j] = row.get(j, Fraction(0)) + Fraction(share, EIGHTHS)
        rows.append(row)
    phi = draw(st.lists(st.integers(0, 6).map(bool), min_size=n, max_size=n))
    psi = draw(st.lists(st.integers(0, 4).map(lambda v: v == 0), min_size=n,
                        max_size=n))
    reward = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return rows, phi, psi, reward


def as_space(rows, reward):
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, data = [], []
    for i, row in enumerate(rows):
        for j in sorted(row):
            indices.append(j)
            data.append(float(row[j]))
        indptr[i + 1] = len(indices)
    return StateSpace(BOUND, np.arange(n).reshape(n, 1), 0, indptr,
                      np.array(indices, dtype=np.int64),
                      np.array(data, dtype=np.float64),
                      {"r": np.array(reward, dtype=np.float64)},
                      BuildDiagnostics())


def assert_close(vec, exact):
    for v, e in zip(vec, exact):
        if e is None:
            assert v == np.inf
        else:
            assert abs(v - float(e)) <= 1e-9 * max(1.0, abs(float(e))), (v, e)


def agrees_with_exact_oracle(chain, k):
    rows, phi, psi, reward = chain
    n = len(rows)
    space = as_space(rows, reward)
    phi_m, psi_m = np.array(phi), np.array(psi)
    phi_f, psi_f = phi.__getitem__, psi.__getitem__

    def as_set(mask):
        return set(np.flatnonzero(mask).tolist())

    assert as_set(prob0_states(space, phi_m, psi_m)) == oracle.prob0(rows, n, phi_f, psi_f)
    assert as_set(prob1_states(space, phi_m, psi_m)) == oracle.prob1(rows, n, phi_f, psi_f)
    assert_close(until_vector(space, phi_m, psi_m)[0],
                 oracle.until_probability(rows, n, phi_f, psi_f))
    assert_close(reward_until(space, psi_m),
                 oracle.reach_reward(rows, n, reward.__getitem__, psi_f))
    assert_close(bounded_eventually_probability(space, psi_m, k)[0],
                 oracle.bounded_eventually(rows, n, psi_f, k))


@settings(max_examples=150, deadline=None)
@given(chains(), st.integers(0, 6))
def test_engine_agrees_with_exact_oracle(chain, k):
    agrees_with_exact_oracle(chain, k)


@settings(max_examples=100, deadline=None)
@given(sparse_chains(), st.integers(0, 6))
def test_engine_agrees_with_exact_oracle_on_sparse_chains(chain, k):
    agrees_with_exact_oracle(chain, k)


def reward_until(space, psi_m):
    """Expected reward "r" until psi_m per state, as check_properties solves it."""
    everywhere = np.ones(space.n_states, dtype=bool)
    return until_vector(space, everywhere, psi_m, "r")[0]


def predicate(mask):
    """The states of a mask as a formula over BOUND's variable s."""
    return " | ".join(f"s = {i}" for i in np.flatnonzero(mask)) or "false"


def path_forms_agree_with_exact_oracle(chain, k):
    """P=?, P>=1 and P<=0 over F, U and G, P=? over F<=k and R=? over F,
    all in one check_properties call, the path the CLI takes; a verdict on
    a bound of 0 or 1 must equal the exact value being exactly 1 or 0."""
    rows, phi, psi, reward = chain
    n = len(rows)
    space = as_space(rows, reward)
    true = lambda i: True
    phi_f, psi_f = phi.__getitem__, psi.__getitem__
    target = f"({predicate(psi)})"
    exact = {
        f"F {target}": oracle.until_probability(rows, n, true, psi_f)[0],
        f"({predicate(phi)}) U {target}":
            oracle.until_probability(rows, n, phi_f, psi_f)[0],
        f"G ({predicate(phi)})":
            1 - oracle.until_probability(rows, n, true, lambda i: not phi[i])[0],
    }
    texts = [f"P{b} [ {path} ]" for path in exact for b in ("=?", ">=1", "<=0")]
    texts += [f"P=? [ F<={k} {target} ]", f'R{{"r"}}=? [ F {target} ]']
    results = check_properties(space, parse_properties("".join(f"{t};\n" for t in texts)))
    for i, (path, e) in enumerate(exact.items()):
        query, at_one, at_zero = results[3 * i:3 * i + 3]
        assert abs(query.value - float(e)) <= 1e-9, (path, query.value, e)
        assert at_one.verdict is (e == 1), (path, e)
        assert at_zero.verdict is (e == 0), (path, e)
    bounded, expected = results[-2], oracle.bounded_eventually(rows, n, psi_f, k)[0]
    assert abs(bounded.value - float(expected)) <= 1e-9, (bounded.value, expected)
    cumulated = results[-1]
    expected = oracle.reach_reward(rows, n, reward.__getitem__, psi_f)[0]
    assert cumulated.infinite is (expected is None), (cumulated, expected)
    if expected is None:
        assert cumulated.value is None
    else:
        assert_close([cumulated.value], [expected])


@settings(max_examples=150, deadline=None)
@given(chains(), st.integers(0, 6))
def test_every_path_form_agrees_with_exact_oracle(chain, k):
    path_forms_agree_with_exact_oracle(chain, k)


@settings(max_examples=100, deadline=None)
@given(sparse_chains(), st.integers(0, 6))
def test_every_path_form_agrees_with_exact_oracle_on_sparse_chains(chain, k):
    path_forms_agree_with_exact_oracle(chain, k)


@pytest.mark.parametrize("n", [2, 12])
def test_escape_chain_reward(n):
    # From state i, 1/8 moves on to i+1 and 7/8 falls back to 0; the last
    # state is the target.  The expected step count grows like 8^n, the
    # worst-conditioned system the strategy above can draw.
    rows = [{0: Fraction(7, 8), i + 1: Fraction(1, 8)} for i in range(n - 1)]
    rows.append({n - 1: Fraction(1)})
    psi = [i == n - 1 for i in range(n)]
    space = as_space(rows, [1] * n)
    exact = oracle.reach_reward(rows, n, lambda i: 1, psi.__getitem__)
    assert_close(reward_until(space, np.array(psi)), exact)
