"""PCTL and expected-reward checking over the explicit DTMC.

Qualitative probability-0/1 sets come from graph fixpoints; the remaining
states are solved exactly by one sparse LU factorization of their linear
system, and step-bounded reachability by repeated matrix-vector products.
Bounds of exactly 0 or 1 are always decided qualitatively, never by comparing
floats against 0.0/1.0.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import SolverError
from .model import Lit
from .statespace import StateSpace, label_states

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
        first = np.ones(cand.size, dtype=bool)
        first[1:] = cand[1:] != cand[:-1]
        cand = cand[first]
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
    return _prob01(space, _as_mask(space, phi), _as_mask(space, psi))[1]


def _prob01(space, phi_m, psi_m):
    """The (prob0, prob1) masks of phi U psi, from one prob0 search."""
    zero = prob0_states(space, phi_m, psi_m)
    return zero, ~_backward_reach(space, zero, phi_m & ~psi_m)


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


def _numeric_stats(unknown, residual):
    return {"iterations": 0, "residual": residual,
            "engine": "sparse-lu" if unknown.size else "graph"}


def until_probability(space: StateSpace, phi, psi, cfg=SolverConfig()):
    """Per-state P(phi U psi); returns (vector, stats dict)."""
    phi_m = _as_mask(space, phi)
    psi_m = _as_mask(space, psi)
    zero, one = _prob01(space, phi_m, psi_m)
    x = np.zeros(space.n_states, dtype=np.float64)
    x[one] = 1.0
    unknown = np.flatnonzero(~zero & ~one)
    residual = _solve_unknown(space, x, unknown, np.zeros(space.n_states), cfg)
    np.clip(x, 0.0, 1.0, out=x)
    return x, _numeric_stats(unknown, residual)


def eventually_probability(space, psi, cfg=SolverConfig()):
    return until_probability(space, Lit(True), psi, cfg)


def globally_probability(space, phi, cfg=SolverConfig()):
    """1 - P(F not phi) per state."""
    phi_m = _as_mask(space, phi)
    x, stats = until_probability(space, Lit(True), ~phi_m, cfg)
    return 1.0 - x, stats


def bounded_eventually_probability(space, psi, k, cfg=SolverConfig()):
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


def reach_reward(space: StateSpace, reward_name, psi, cfg=SolverConfig()):
    """Expected cumulated reward until psi; +inf where P(F psi) < 1."""
    rew = _reward_vector(space, reward_name)
    psi_m = _as_mask(space, psi)
    return _reach_reward(space, rew, psi_m, prob1_states(space, Lit(True), psi_m),
                         cfg)


def _reward_vector(space, reward_name):
    if reward_name not in space.rewards:
        raise SolverError(f"unknown reward structure '{reward_name}'")
    return space.rewards[reward_name]


def _reach_reward(space, rew, psi_m, one, cfg):
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
# Property dispatch
# --------------------------------------------------------------------------

def _path_vector(space, path, cfg):
    if path.kind == "F":
        return eventually_probability(space, path.target, cfg)
    if path.kind == "F<=":
        return bounded_eventually_probability(space, path.target, path.bound, cfg)
    if path.kind == "G":
        return globally_probability(space, path.target, cfg)
    return until_probability(space, path.constraint, path.target, cfg)


def _qualitative_verdict(space, path, bound_op, bound):
    """Decide P>=1 / P<=0 by graph fixpoints; None if not decidable this way."""
    if path.kind == "F<=":
        return None  # step-bounded: no graph characterization
    if path.kind == "G":
        # P(G phi) = 1 - P(F !phi)
        not_phi = ~_as_mask(space, path.target)
        if bound_op == ">=" and bound == 1.0:
            return bool(prob0_states(space, Lit(True), not_phi)[space.initial])
        if bound_op == "<=" and bound == 0.0:
            return bool(prob1_states(space, Lit(True), not_phi)[space.initial])
        return None
    phi = Lit(True) if path.kind == "F" else path.constraint
    if bound_op == ">=" and bound == 1.0:
        return bool(prob1_states(space, phi, path.target)[space.initial])
    if bound_op == "<=" and bound == 0.0:
        return bool(prob0_states(space, phi, path.target)[space.initial])
    return None


def model_fingerprint(space: StateSpace, prop) -> str:
    """Content hash of (model text, bound constants, property text)."""
    h = hashlib.sha256()
    h.update(space.bound.ast.source.encode())
    h.update(json.dumps(space.bound.constants, sort_keys=True).encode())
    h.update(prop.source_text.encode())
    return h.hexdigest()


def check_property(space: StateSpace, prop, cfg=SolverConfig()) -> VerificationResult:
    """Check one property; queries return the initial-state value."""
    t0 = time.perf_counter()
    fingerprint = model_fingerprint(space, prop)

    if prop.kind == "R_query":
        rew = _reward_vector(space, prop.reward)
        psi_m = _as_mask(space, prop.path.target)
        one = prob1_states(space, Lit(True), psi_m)
        if one[space.initial]:
            vec, stats = _reach_reward(space, rew, psi_m, one, cfg)
            v = vec[space.initial]
        else:  # psi is missed with positive probability: +inf, nothing to solve
            v, stats = math.inf, {"iterations": 0, "residual": 0.0, "engine": "graph"}
        stats = dict(stats, wall_ms=_ms(t0))
        if math.isinf(v):
            return VerificationResult(prop.name, "reward", None, True,
                                      stats=stats, model_fingerprint=fingerprint)
        return VerificationResult(prop.name, "reward", float(v),
                                  stats=stats, model_fingerprint=fingerprint)

    if prop.kind == "P_query":
        vec, stats = _path_vector(space, prop.path, cfg)
        stats = dict(stats, wall_ms=_ms(t0))
        return VerificationResult(prop.name, "probability", float(vec[space.initial]),
                                  stats=stats, model_fingerprint=fingerprint)

    # Bound property: qualitative where the bound is exactly 0 or 1.
    verdict = None
    marginal = False
    value = None
    if prop.bound in (0.0, 1.0):
        verdict = _qualitative_verdict(space, prop.path, prop.bound_op, prop.bound)
        stats = {"iterations": 0, "residual": 0.0, "engine": "graph"}
    if verdict is None:
        vec, stats = _path_vector(space, prop.path, cfg)
        value = float(vec[space.initial])
        if prop.bound_op == ">=":
            verdict = value >= prop.bound - BOUND_TOL if prop.bound in (0.0, 1.0) \
                else value >= prop.bound
        else:
            verdict = value <= prop.bound + BOUND_TOL if prop.bound in (0.0, 1.0) \
                else value <= prop.bound
        marginal = abs(value - prop.bound) <= BOUND_TOL
    stats = dict(stats, wall_ms=_ms(t0))
    return VerificationResult(prop.name, "boolean", value, verdict=bool(verdict),
                              marginal=marginal, stats=stats,
                              model_fingerprint=fingerprint)


def check_properties(space, props, cfg=SolverConfig()):
    return [check_property(space, p, cfg) for p in props]


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
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        out.append(VerificationResult(
            rec["property"], rec["kind"], rec.get("value"),
            rec.get("infinite", False), rec.get("verdict"),
            rec.get("marginal", False), rec.get("stats", {}),
            rec.get("model_fingerprint", "")))
    return out
