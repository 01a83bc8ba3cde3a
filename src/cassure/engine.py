"""PCTL and expected-reward checking over the explicit DTMC.

Every path that is not step-bounded is put in one until normal form
(phi, psi, negate): F psi is true U psi, G phi is 1 - P(true U !phi), and a
reward query accumulates until true U psi.  "Everywhere" is an all-true mask.

Qualitative probability-0/1 sets come from graph fixpoints.  The remaining
states are solved exactly: the states without a cycle by levels in numpy,
back-substitution in dependency order, and what lies on or upstream of a
cycle by one sparse LU factorization of its linear system.  Step-bounded
reachability takes repeated matrix-vector products.  One rule decides a
bound of exactly P>=1 or P<=0: the initial state's membership in prob1 or
prob0 of the until, the two swapped under negate.  Such bounds are never
decided by comparing floats against 0.0/1.0.

Every label, 0/1 set and solution goes through one of the space's two
memos, so each is computed once per space.  `space.memo` holds what depends
on the constants and probabilities: a label per distinct state formula, a
probability vector per (prob0, prob1) mask pair (the 0/1 sets alone fix the
linear system), a reward vector per (phi, psi) mask pair and reward name,
and an F<=k vector per target mask and step bound.  `space.graph_memo`
holds the 0/1 sets per (phi, psi) mask pair, which depend on the transition
pattern alone; a space that `build_dtmc` re-evaluated from an earlier one
shares that space's graph memo.  `check_properties` then keeps only the
entries its properties used.  No key holds the SolverConfig: a solve returns
its vector and stats, and `check_property` alone judges them, after the
lookup, by comparing the residual with epsilon.

A result record depends only on the model, its constants and the property
(no clock), and `parse_results` accepts exactly the records that
`check_property` writes.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    BuildError, CassureError, EvalError, SolverError, malformed, read_record,
)
from .parsing import render_expr
from .statespace import StateSpace, by_target, label_states, run_heads

BOUND_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """A direct solve is accepted when its residual max|A x - b|, scaled by
    max(1, max|x|), is at most epsilon."""
    epsilon: float = 1e-9

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class VerificationResult:
    property: str
    kind: str                  # "probability" | "boolean" | "reward"
    value: float | None = None
    infinite: bool = False     # distinct +infinity variant for rewards
    verdict: bool | None = None
    marginal: bool = False     # numeric bound comparison within tolerance of b
    stats: dict = field(default_factory=dict)
    model_fingerprint: str = ""


# --------------------------------------------------------------------------
# Qualitative graph precomputation
# --------------------------------------------------------------------------

def _row_positions(indptr, rows):
    """Positions of the entries of the given CSR rows, concatenated, and
    each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = counts.cumsum()
    return (starts - ends + counts).repeat(counts) + np.arange(ends[-1]), counts


def _backward_reach(space, seeds_mask, allowed_mask):
    """States that reach a seed via allowed states (seeds always included)."""
    indptr, preds = space.predecessors
    reached = seeds_mask.copy()
    frontier = np.flatnonzero(seeds_mask)
    while frontier.size:
        cand = preds[_row_positions(indptr, frontier)[0]]
        # Sorted, first of each run: np.unique would import numpy.ma.
        cand = np.sort(cand[allowed_mask[cand] & ~reached[cand]])
        cand = cand[run_heads(cand)]
        reached[cand] = True
        frontier = cand
    return reached


def prob0_states(space: StateSpace, phi, psi) -> np.ndarray:
    """Mask of states satisfying phi U psi with probability exactly 0, for
    the state masks phi and psi."""
    return ~_backward_reach(space, psi, phi & ~psi)


def prob1_states(space: StateSpace, phi, psi) -> np.ndarray:
    """Mask of states satisfying phi U psi with probability exactly 1, for
    the state masks phi and psi."""
    return _prob1(space, phi, psi, prob0_states(space, phi, psi))


def _prob1(space, phi_m, psi_m, zero):
    """The prob1 mask of phi U psi from its prob0 mask `zero`: the states
    that cannot reach `zero` through phi & !psi states."""
    return ~_backward_reach(space, zero, phi_m & ~psi_m)


# --------------------------------------------------------------------------
# Numeric solving
# --------------------------------------------------------------------------

# The stats of a result that the graph alone decides: nothing was solved.
_GRAPH_STATS = {"iterations": 0, "residual": 0.0, "engine": "graph"}


def _solve_unknown(space, x, unknown, add):
    """Solve (I - P_UU) x_U = add_U + P_UK x_K over the unknown states U,
    with the known values x_K read from x, and write x_U into x.

    Levels are peeled first, in numpy: a state is ready when every successor
    other than itself is known, and one level solves all its ready states at
    once, x_i = (b_i + sum_j p_ij x_j) / (1 - p_ii).  A level reads only the
    in-edges of the states it solves, so peeling costs O(edges + levels).
    The states it leaves lie on or upstream of a cycle; one sparse LU
    factorization solves them, and only then is scipy imported.

    The 0/1 precompute leaves every unknown state a path out of U, which
    makes I - P_UU nonsingular.  Returns the stats of the solve: the engine
    that ran (`levels`, `sparse-lu` or `levels+sparse-lu`) and the scaled
    residual max|A x_U - b| / max(1, max|x_U|), which `check_property`
    judges.  Raises SolverError when the system is singular.
    """
    m = unknown.size
    if m == 0:
        return dict(_GRAPH_STATS)
    pos = np.full(space.n_states, -1, dtype=np.int64)
    pos[unknown] = np.arange(m)
    src = pos[space.row_ids]
    edges = src >= 0
    r, c, p = src[edges], space.indices[edges], space.data[edges]
    rc = pos[c]
    inner = rc >= 0
    b = add[unknown] + np.bincount(r[~inner], weights=p[~inner] * x[c[~inner]],
                                   minlength=m)
    r, rc, p = r[inner], rc[inner], p[inner]
    loop = r == rc
    off = ~loop
    pending = np.bincount(r[off], minlength=m)  # successors not yet solved
    level = np.flatnonzero(pending == 0)
    sol = np.zeros(m)
    rhs = b.copy()  # b plus the terms of the successors solved so far
    if level.size:
        engine = "levels"
        stay = np.zeros(m)
        stay[r[loop]] = p[loop]  # a CSR row holds each column once
        if np.any(stay >= 1.0):
            i = unknown[np.argmax(stay)]
            raise SolverError(f"singular system over {m} unknown states: "
                              f"state {i} keeps itself with probability 1")
        leave = 1.0 - stay
        indptr, order = by_target(rc[off], m)  # the in-edges of each state
        preds, weight = r[off][order], p[off][order]
        while level.size:
            sol[level] = rhs[level] / leave[level]
            at, counts = _row_positions(indptr, level)
            up = preds[at]
            np.add.at(rhs, up, weight[at] * sol[level].repeat(counts))
            np.subtract.at(pending, up, 1)
            up = up[pending[up] == 0]
            up.sort()
            level = up[run_heads(up)]
    rest = np.flatnonzero(pending)
    if rest.size:
        engine = "sparse-lu" if rest.size == m else "levels+sparse-lu"
        sol[rest] = _sparse_lu(r, rc, p, rhs, rest)
    residual = float(np.max(np.abs(
        sol - np.bincount(r, weights=p * sol[rc], minlength=m) - b))
        / max(1.0, np.max(np.abs(sol))))
    x[unknown] = sol
    return dict(_GRAPH_STATS, residual=residual, engine=engine)


def _sparse_lu(r, c, p, rhs, rest):
    """x_R of (I - P_RR) x_R = rhs_R, by sparse LU, over the states `rest`
    of the block whose inner edges are (r, c, p)."""
    # Imported here, not at module level: scipy roughly doubles the start-up
    # time of the `cassure` command, and a block without a cycle never needs it.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    k, m = rest.size, rhs.size
    sub = np.full(m, -1, dtype=np.int64)
    sub[rest] = np.arange(k)
    keep = (sub[r] >= 0) & (sub[c] >= 0)
    r, c, p = sub[r[keep]], sub[c[keep]], p[keep]
    diag = np.arange(k)
    a = csc_matrix((np.concatenate([np.ones(k), -p]),
                    (np.concatenate([diag, r]), np.concatenate([diag, c]))),
                   shape=(k, k))
    try:
        return splu(a).solve(rhs[rest])
    except RuntimeError as e:  # SuperLU reports an exactly singular factor
        raise SolverError(f"singular system over {m} unknown states: {e}")


def _until_vector(space, zero, one):
    """Per-state P(phi U psi) from its 0/1 masks; returns (vector, stats)."""
    x = np.zeros(space.n_states, dtype=np.float64)
    x[one] = 1.0
    unknown = np.flatnonzero(~zero & ~one)
    stats = _solve_unknown(space, x, unknown, np.zeros(space.n_states))
    np.clip(x, 0.0, 1.0, out=x)
    return x, stats


def bounded_eventually_probability(space, psi, k):
    """k backward steps from the indicator of the target mask psi, targets
    absorbing: a step recomputes the rows outside psi only, each summed in
    its CSR order."""
    if k < 0:
        raise ValueError("step bound must be >= 0")
    x = psi.astype(np.float64)
    rest = np.flatnonzero(~psi)
    if k and rest.size:
        pos, counts = _row_positions(space.indptr, rest)
        cols, probs = space.indices[pos], space.data[pos]
        rows = np.repeat(np.arange(rest.size), counts)
        for _ in range(k):
            x[rest] = np.bincount(rows, weights=probs * x[cols], minlength=rest.size)
    np.clip(x, 0.0, 1.0, out=x)
    return x, {"iterations": k, "residual": 0.0, "engine": "matvec"}


def _reward_vector(space, reward_name):
    if reward_name not in space.rewards:
        raise SolverError(f"unknown reward structure '{reward_name}'")
    return space.rewards[reward_name]


def _reach_reward(space, rew, psi_m, one):
    """Expected cumulated reward until psi, given the prob1 mask `one` of
    F psi; +inf where P(F psi) < 1.  Every successor of a state in `one`
    lies in `one`, so the infinities are set after the solve."""
    r = np.zeros(space.n_states, dtype=np.float64)
    stats = _solve_unknown(space, r, np.flatnonzero(one & ~psi_m), rew)
    r[~one] = np.inf
    return r, stats


# --------------------------------------------------------------------------
# Property checking
# --------------------------------------------------------------------------

@contextmanager
def _located(prop, *errors):
    """Re-raise one of ``errors`` with the place of ``prop`` in front."""
    try:
        yield
    except errors as e:
        if prop.span is None:
            raise
        raise type(e)(f"{prop.span}: {e}") from None


def _label(space, phi):
    """The memoized mask of a state formula, keyed by its rendered text:
    unlike Expr equality, the text tells 1, 1.0 and true apart."""
    return space.memo.get(("label", render_expr(phi)), lambda: label_states(space, phi))


def _mask_key(mask):
    return np.packbits(mask).tobytes()


def _until_form(space, prop):
    """(phi, psi, negate) masks with P(path) = P(phi U psi), or 1 minus it
    when negate: F psi is true U psi, and G phi is 1 - P(true U !phi)."""
    path = prop.path
    if path.kind == "U":
        return _label(space, path.constraint), _label(space, path.target), False
    target = _label(space, path.target)
    everywhere = np.ones(space.n_states, dtype=bool)
    if path.kind == "G":
        return everywhere, ~target, True
    return everywhere, target, False


class _Until:
    """The until problem phi U psi on one space.  Its 0/1 sets go through
    the space's graph memo, keyed by the two masks; its probabilities through
    the space's memo, keyed by the 0/1 sets, which alone fix the linear
    system.  So the properties that reduce to one problem, or to one system,
    share them."""

    def __init__(self, space, phi, psi):
        self.space, self.phi, self.psi = space, phi, psi
        self.key = (_mask_key(phi), _mask_key(psi))

    def prob0(self):
        return self.space.graph_memo.get(
            ("prob0", *self.key), lambda: prob0_states(self.space, self.phi, self.psi))

    def prob1(self):
        return self.space.graph_memo.get(("prob1", *self.key), lambda: _prob1(
            self.space, self.phi, self.psi, self.prob0()))

    def probability(self):
        zero, one = self.prob0(), self.prob1()
        return self.space.memo.get(("P", _mask_key(zero), _mask_key(one)),
                                   lambda: _until_vector(self.space, zero, one))

    def reward(self, name):
        return self.space.memo.get(("R", *self.key, name), lambda: _reach_reward(
            self.space, _reward_vector(self.space, name), self.psi, self.prob1()))


def model_fingerprint(space: StateSpace, prop) -> str:
    """Content hash of (model text, bound constants, property text)."""
    h = space.model_digest.copy()
    h.update(prop.source_text.encode())
    return h.hexdigest()


_RESULT_KIND = {"P_query": "probability", "P_bound": "boolean", "R_query": "reward"}
# Bounds decided on the graph alone, by the initial state's 0/1 membership.
_QUALITATIVE = ((">=", 1.0), ("<=", 0.0))


def check_property(space: StateSpace, prop, cfg=SolverConfig()) -> VerificationResult:
    """Check one property; queries return the initial-state value.  The one
    place that judges a solve: it is accepted when its residual is at most
    cfg.epsilon.  Every error names the property's place."""
    init, path = space.initial, prop.path
    value = verdict = None
    infinite = marginal = False
    stats = _GRAPH_STATS
    with _located(prop, BuildError, EvalError, SolverError):
        if path.kind == "F<=":  # step-bounded: no graph characterization
            psi = _label(space, path.target)
            vec, stats = space.memo.get(
                ("F<=", _mask_key(psi), path.bound),
                lambda: bounded_eventually_probability(space, psi, path.bound))
            value = float(vec[init])
        else:
            phi, psi, negate = _until_form(space, prop)
            until = _Until(space, phi, psi)
            if prop.kind == "R_query":
                _reward_vector(space, prop.reward)  # an unknown name is an error first
                infinite = not until.prob1()[init]  # psi missed with P > 0
                if not infinite:
                    vec, stats = until.reward(prop.reward)
                    value = float(vec[init])
            elif prop.kind == "P_bound" and (prop.bound_op, prop.bound) in _QUALITATIVE:
                # P >= 1 holds on prob1 and P <= 0 on prob0; the complement swaps them.
                at_one = (prop.bound_op == ">=") != negate
                verdict = bool((until.prob1() if at_one else until.prob0())[init])
            else:
                vec, stats = until.probability()
                value = float(1.0 - vec[init] if negate else vec[init])
        # Graph and F<=k results have residual 0.0 and always pass.
        if not stats["residual"] <= cfg.epsilon:
            raise SolverError(f"{stats['engine']} solve missed the residual bound "
                              f"({stats['residual']:.3e} > {cfg.epsilon:g})")
    if prop.kind == "P_bound" and verdict is None:
        # Bounds of 0 or 1 on a numeric value allow for rounding.
        tol = BOUND_TOL if prop.bound in (0.0, 1.0) else 0.0
        verdict = (value >= prop.bound - tol if prop.bound_op == ">="
                   else value <= prop.bound + tol)
        marginal = abs(value - prop.bound) <= BOUND_TOL
    return VerificationResult(prop.name, _RESULT_KIND[prop.kind], value, infinite,
                              verdict, marginal, dict(stats),
                              model_fingerprint(space, prop))


def check_properties(space, props, cfg=SolverConfig()):
    """Check each property; then the space's two memos keep only the
    entries that these checks used."""
    results = [check_property(space, p, cfg) for p in props]
    space.memo.keep_used()
    space.graph_memo.keep_used()
    return results


# --------------------------------------------------------------------------
# Result records
# --------------------------------------------------------------------------

def render_value(res: VerificationResult) -> str:
    """Fixed rendering used in argument solutions and result fingerprints:
    6 significant digits, booleans as holds/violated, +infinity spelled out."""
    if res.kind == "boolean":
        return "holds" if res.verdict else "violated"
    if res.infinite:
        return "+∞"
    return f"{res.value:.6g}"


@dataclass(frozen=True)
class Evidence:
    """What the argument states of a result: property, kind, rendered value
    (so the verdict and +∞ too) and `marginal`; a result changed exactly when
    this statement did.  `deferred`: its goal holds DeferredEvidence."""
    statement: str
    deferred: bool

    @property
    def fingerprint(self):
        return hashlib.sha256(self.statement.encode()).hexdigest()


def evidence(res: VerificationResult) -> Evidence:
    """The one rule: a violated or marginal result defers its goal."""
    statement = f"{res.property}|{res.kind}|{render_value(res)}"
    return Evidence(statement + "|marginal" if res.marginal else statement,
                    res.verdict is False or res.marginal)


def result_fingerprint(res: VerificationResult) -> str:
    """The sha256 of the result's evidence statement."""
    return evidence(res).fingerprint


def serialize_results(results) -> str:
    """One JSON object per line, its keys the fields of VerificationResult."""
    return "\n".join(json.dumps(vars(r)) for r in results) + "\n"


def _check_result(res):
    """Raise ValueError unless check_property could have written `res`."""
    kind, value = res.kind, res.value
    if kind not in _RESULT_KIND.values():
        raise ValueError(f"unknown 'kind': {kind!r}")
    if res.infinite and (kind != "reward" or value is not None):
        raise ValueError(f"an infinite {kind} result with 'value' {value!r}")
    if kind == "boolean" and res.verdict is None:
        raise ValueError("'verdict' of a boolean result is null")
    if kind != "boolean" and (res.verdict is not None or res.marginal):
        raise ValueError(f"a {kind} result with a verdict or 'marginal': true")
    if value is None and kind != "boolean" and not res.infinite:
        raise ValueError(f"'value' of a {kind} result is null")
    high = np.inf if kind == "reward" else 1.0
    if value is not None and not 0.0 <= value <= high:
        raise ValueError(f"'value' of a {kind} result is outside [0, {high:g}]: "
                         f"{value!r}")


def parse_results(text: str):
    """The records that serialize_results wrote.  A malformed record, or one
    that check_property never writes, raises CassureError."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            res = read_record(VerificationResult, json.loads(line))
            _check_result(res)
            out.append(res)
        except (KeyError, TypeError, ValueError) as e:
            raise CassureError(
                malformed(f"result record on line {lineno}", e)) from None
    return out
