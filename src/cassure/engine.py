"""PCTL and expected-reward checking over the explicit DTMC.

Every path that is not step-bounded is put in one until normal form
(phi, psi, negate): F psi is true U psi, G phi is 1 - P(true U !phi), and a
reward query accumulates until true U psi.  "Everywhere" is an all-true mask.

Qualitative probability-0/1 sets come from graph fixpoints; the remaining
states are solved exactly by one sparse LU factorization of their linear
system, and step-bounded reachability by repeated matrix-vector products.
One rule decides a bound of exactly P>=1 or P<=0: the initial state's
membership in prob1 or prob0 of the until, the two swapped under negate.
Such bounds are never decided by comparing floats against 0.0/1.0.

Every label, 0/1 set and solution goes through the space's memo, so each is
computed once per space: a label per distinct state formula, the 0/1 sets
per distinct (phi, psi) mask pair, and a solution per mask pair and
SolverConfig (and reward name, for a reward), or per target mask and step
bound for F<=k, whose result does not depend on the SolverConfig.
`check_properties` then keeps only the entries its properties used.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import NoneType

import numpy as np

from .diagnostics import (
    BuildError, CassureError, EvalError, SolverError, json_field, malformed,
)
from .parsing import render_expr
from .statespace import StateSpace, label_states, run_heads

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

def _rows_of(indptr, indices, rows):
    """Concatenated column indices of the given CSR rows."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[offsets + np.arange(offsets.size)]


def _backward_reach(space, seeds_mask, allowed_mask):
    """States that reach a seed via allowed states (seeds always included)."""
    indptr, preds = space.predecessors
    reached = seeds_mask.copy()
    frontier = np.flatnonzero(seeds_mask)
    while frontier.size:
        cand = _rows_of(indptr, preds, frontier)
        # Sorted, first of each run: np.unique would import numpy.ma.
        cand = np.sort(cand[allowed_mask[cand] & ~reached[cand]])
        cand = cand[run_heads(cand)]
        reached[cand] = True
        frontier = cand
    return reached


def _as_mask(space, phi):
    if isinstance(phi, np.ndarray):
        return phi
    return label_states(space, phi)


def prob0_states(space: StateSpace, phi, psi) -> np.ndarray:
    """Mask of states satisfying phi U psi with probability exactly 0."""
    phi_m = _as_mask(space, phi)
    psi_m = _as_mask(space, psi)
    can = _backward_reach(space, psi_m, phi_m & ~psi_m)
    return ~can


def prob1_states(space: StateSpace, phi, psi) -> np.ndarray:
    """Mask of states satisfying phi U psi with probability exactly 1."""
    phi_m, psi_m = _as_mask(space, phi), _as_mask(space, psi)
    return _prob1(space, phi_m, psi_m, prob0_states(space, phi_m, psi_m))


def _prob1(space, phi_m, psi_m, zero):
    """The prob1 mask of phi U psi from its prob0 mask `zero`: the states
    that cannot reach `zero` through phi & !psi states."""
    return ~_backward_reach(space, zero, phi_m & ~psi_m)


# --------------------------------------------------------------------------
# Numeric solving
# --------------------------------------------------------------------------

def _solve_unknown(space, x, unknown, add, cfg):
    """Solve (I - P_UU) x_U = add_U + P_UK x_K over the unknown states U,
    with the known values x_K read from x, and write x_U into x.

    The 0/1 precompute leaves every unknown state a path out of U, which
    makes I - P_UU nonsingular.  Returns the scaled residual
    max|A x_U - b| / max(1, max|x_U|); raises SolverError when the
    factorization is singular or the residual exceeds cfg.epsilon.
    """
    m = unknown.size
    if m == 0:
        return 0.0
    # Imported here, not at module level: scipy roughly doubles the start-up
    # time of the `cassure` command, and the lifecycle commands never solve.
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    pos = np.full(space.n_states, -1, dtype=np.int64)
    pos[unknown] = np.arange(m)
    src = pos[space.row_ids]
    edges = src >= 0
    r, c, p = src[edges], space.indices[edges], space.data[edges]
    rc = pos[c]
    inner = rc >= 0
    b = add[unknown] + np.bincount(r[~inner], weights=p[~inner] * x[c[~inner]],
                                   minlength=m)
    diag = np.arange(m)
    a = csc_matrix((np.concatenate([np.ones(m), -p[inner]]),
                    (np.concatenate([diag, r[inner]]),
                     np.concatenate([diag, rc[inner]]))), shape=(m, m))
    try:
        sol = splu(a).solve(b)
    except RuntimeError as e:  # SuperLU reports an exactly singular factor
        raise SolverError(f"singular system over {m} unknown states: {e}")
    residual = float(np.max(np.abs(a @ sol - b)) / max(1.0, np.max(np.abs(sol))))
    if not residual <= cfg.epsilon:
        raise SolverError(f"direct solve over {m} unknown states missed the "
                          f"residual bound ({residual:.3e} > {cfg.epsilon:g})")
    x[unknown] = sol
    return residual


# The stats of a result that the graph alone decides: nothing was solved.
_GRAPH_STATS = {"iterations": 0, "residual": 0.0, "engine": "graph"}


def _numeric_stats(unknown, residual):
    if not unknown.size:
        return dict(_GRAPH_STATS)
    return dict(_GRAPH_STATS, residual=residual, engine="sparse-lu")


def _until_vector(space, zero, one, cfg):
    """Per-state P(phi U psi) from its 0/1 masks; returns (vector, stats)."""
    x = np.zeros(space.n_states, dtype=np.float64)
    x[one] = 1.0
    unknown = np.flatnonzero(~zero & ~one)
    residual = _solve_unknown(space, x, unknown, np.zeros(space.n_states), cfg)
    np.clip(x, 0.0, 1.0, out=x)
    return x, _numeric_stats(unknown, residual)


def bounded_eventually_probability(space, psi, k):
    """k backward steps from the target indicator, targets absorbing."""
    if k < 0:
        raise ValueError("step bound must be >= 0")
    psi_m = _as_mask(space, psi)
    x = psi_m.astype(np.float64)
    for _ in range(k):
        x = np.bincount(space.row_ids, weights=space.data * x[space.indices],
                        minlength=space.n_states)
        x[psi_m] = 1.0
    np.clip(x, 0.0, 1.0, out=x)
    return x, {"iterations": k, "residual": 0.0, "engine": "matvec"}


def _reward_vector(space, reward_name):
    if reward_name not in space.rewards:
        raise SolverError(f"unknown reward structure '{reward_name}'")
    return space.rewards[reward_name]


def _reach_reward(space, rew, psi_m, one, cfg):
    """Expected cumulated reward until psi, given the prob1 mask `one` of
    F psi; +inf where P(F psi) < 1."""
    r = np.zeros(space.n_states, dtype=np.float64)
    r[~one] = np.inf
    r[psi_m] = 0.0
    unknown = np.flatnonzero(one & ~psi_m)
    # Every successor of an unknown state lies in `one`, so the infinities
    # never enter the system; mask them out of the known values anyway.
    x = np.where(np.isinf(r), 0.0, r)
    residual = _solve_unknown(space, x, unknown, rew, cfg)
    r[unknown] = x[unknown]
    return r, _numeric_stats(unknown, residual)


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


def _label(space, phi, prop):
    """The memoized mask of a state formula of ``prop``, keyed by its
    rendered text: unlike Expr equality, the text tells 1, 1.0 and true
    apart.  An error in the formula names the property's place."""
    with _located(prop, BuildError, EvalError):
        return space.memo.get(("label", render_expr(phi)),
                              lambda: label_states(space, phi))


def _mask_key(mask):
    return np.packbits(mask).tobytes()


def _until_form(space, prop):
    """(phi, psi, negate) masks with P(path) = P(phi U psi), or 1 minus it
    when negate: F psi is true U psi, and G phi is 1 - P(true U !phi)."""
    path = prop.path
    if path.kind == "U":
        return (_label(space, path.constraint, prop), _label(space, path.target, prop),
                False)
    target = _label(space, path.target, prop)
    everywhere = np.ones(space.n_states, dtype=bool)
    if path.kind == "G":
        return everywhere, ~target, True
    return everywhere, target, False


class _Until:
    """The until problem phi U psi on one space.  Its 0/1 sets and
    solutions go through the space's memo, keyed by the two masks, so the
    properties that reduce to one problem share them."""

    def __init__(self, space, phi, psi):
        self.space, self.phi, self.psi = space, phi, psi
        self.key = (_mask_key(phi), _mask_key(psi))

    def _memo(self, kind, compute, *extra):
        return self.space.memo.get((kind, *self.key, *extra), compute)

    def prob0(self):
        return self._memo("prob0", lambda: prob0_states(self.space, self.phi, self.psi))

    def prob1(self):
        return self._memo("prob1", lambda: _prob1(
            self.space, self.phi, self.psi, self.prob0()))

    def probability(self, cfg):
        return self._memo("P", lambda: _until_vector(
            self.space, self.prob0(), self.prob1(), cfg), cfg)

    def reward(self, name, cfg):
        return self._memo("R", lambda: _reach_reward(
            self.space, _reward_vector(self.space, name), self.psi, self.prob1(),
            cfg), name, cfg)


def model_fingerprint(space: StateSpace, prop) -> str:
    """Content hash of (model text, bound constants, property text)."""
    h = space.model_digest.copy()
    h.update(prop.source_text.encode())
    return h.hexdigest()


_RESULT_KIND = {"P_query": "probability", "P_bound": "boolean", "R_query": "reward"}
# Bounds decided on the graph alone, by the initial state's 0/1 membership.
_QUALITATIVE = ((">=", 1.0), ("<=", 0.0))


def check_property(space: StateSpace, prop, cfg=SolverConfig()) -> VerificationResult:
    """Check one property; queries return the initial-state value."""
    t0 = time.perf_counter()
    init, path = space.initial, prop.path
    value = verdict = None
    infinite = marginal = False
    stats = _GRAPH_STATS
    if path.kind == "F<=":  # step-bounded: no graph characterization
        psi = _label(space, path.target, prop)
        vec, stats = space.memo.get(
            ("F<=", _mask_key(psi), path.bound),
            lambda: bounded_eventually_probability(space, psi, path.bound))
        value = float(vec[init])
    else:
        phi, psi, negate = _until_form(space, prop)
        until = _Until(space, phi, psi)
        if prop.kind == "R_query":
            with _located(prop, SolverError):  # an unknown name is an error first
                _reward_vector(space, prop.reward)
            infinite = not until.prob1()[init]  # psi is missed with positive probability
            if not infinite:
                vec, stats = until.reward(prop.reward, cfg)
                value = float(vec[init])
        elif prop.kind == "P_bound" and (prop.bound_op, prop.bound) in _QUALITATIVE:
            # P >= 1 holds on prob1 and P <= 0 on prob0; the complement swaps them.
            at_one = (prop.bound_op == ">=") != negate
            verdict = bool((until.prob1() if at_one else until.prob0())[init])
        else:
            vec, stats = until.probability(cfg)
            value = float(1.0 - vec[init] if negate else vec[init])
    if prop.kind == "P_bound" and verdict is None:
        # Bounds of 0 or 1 on a numeric value allow for rounding.
        tol = BOUND_TOL if prop.bound in (0.0, 1.0) else 0.0
        verdict = (value >= prop.bound - tol if prop.bound_op == ">="
                   else value <= prop.bound + tol)
        marginal = abs(value - prop.bound) <= BOUND_TOL
    return VerificationResult(prop.name, _RESULT_KIND[prop.kind], value, infinite,
                              verdict, marginal, dict(stats, wall_ms=_ms(t0)),
                              model_fingerprint(space, prop))


def check_properties(space, props, cfg=SolverConfig()):
    """Check each property; then the space's memo keeps only the entries
    that these checks used."""
    results = [check_property(space, p, cfg) for p in props]
    space.memo.keep_used()
    return results


def _ms(t0):
    return round((time.perf_counter() - t0) * 1000.0, 3)


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


def result_fingerprint(res: VerificationResult) -> str:
    """Hash of the result content (name, kind, rendered outcome)."""
    h = hashlib.sha256()
    h.update(f"{res.property}|{res.kind}|{render_value(res)}".encode())
    return h.hexdigest()


# One JSON object per line, fixed key order.
_RECORD_KEYS = ("property", "kind", "value", "infinite", "verdict", "marginal",
                "stats", "model_fingerprint")


def serialize_results(results) -> str:
    lines = []
    for r in results:
        rec = {k: getattr(r, k) for k in _RECORD_KEYS}
        lines.append(json.dumps(rec, sort_keys=False))
    return "\n".join(lines) + "\n"


def parse_results(text: str):
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            res = VerificationResult(
                json_field(rec, "property", str), json_field(rec, "kind", str),
                json_field(rec, "value", (int, float, NoneType), None),
                json_field(rec, "infinite", bool, False),
                json_field(rec, "verdict", (bool, NoneType), None),
                json_field(rec, "marginal", bool, False),
                json_field(rec, "stats", dict, {}),
                json_field(rec, "model_fingerprint", str, ""))
            if res.value is None and res.kind != "boolean" and not res.infinite:
                raise TypeError(f"'value' of a {res.kind} result is null")
            out.append(res)
        except (KeyError, TypeError, ValueError) as e:
            raise CassureError(
                malformed(f"result record on line {lineno}", e)) from None
    return out
