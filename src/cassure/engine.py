"""PCTL and expected-reward checking over the explicit DTMC.

Every path that is not step-bounded is put in one until normal form
(phi, psi, negate): F psi is true U psi, G phi is 1 - P(true U !phi), and a
reward query accumulates until true U psi.  "Everywhere" is an all-true mask.

Qualitative probability-0/1 sets come from graph fixpoints.  The remaining
states are solved exactly: the states without a cycle by levels in numpy,
back-substitution in dependency order, and what lies on or upstream of a
cycle by one sparse LU factorization of its linear system.  Step-bounded
reachability takes repeated matrix-vector steps.  One rule decides a bound
of exactly P>=1 or P<=0: the initial state's membership in prob1 or prob0
of the until, the two swapped under negate.  Such bounds are never decided
by comparing floats against 0.0/1.0.

Each kernel serves a batch of K problems over the pairs k*n + s (problem k,
state s): the backward search of the 0/1 sets keeps one frontier of pairs,
the step-bounded sweep runs up to the largest bound and stops each problem
at its own, and the linear systems share one level pass, after which each
system's cyclic rest gets its own LU; `engine` and `residual` stay per
system.  Each sum runs in the order it runs for a problem alone, so a
batch gives the bits that K single problems give.  A batch holds at most
2**16 pairs (or one problem), so a large space takes its problems a few at
a time and a batch's temporary arrays stay bounded.

`check_properties` makes one planning pass: it labels each property in
file order and records what its check reads.  Then `_fill`, the one place
that computes a 0/1 set, an F<=k vector or a solution, runs the batches of
each kernel over what the memos lack, and each property is judged from the
memos.  `check_property` is the same path with a batch of one.  A system
that fails in its batch is stored nowhere: its error, from that one solve,
is raised at each property that reads it.

Every atom mask, 0/1 set and solution goes through one of the space's two
memos, so each is computed once per space.  `space.memo` holds what depends
on the constants and probabilities: the type and mask of each distinct atom
of the state formulas (`label_states` combines a formula's label from them
at each occurrence), a probability vector per (prob0, prob1) mask pair (the
0/1 sets alone fix the linear system), a reward vector per (phi, psi) mask
pair and reward name, and an F<=k vector per target mask and step bound.
`space.graph_memo` holds the 0/1 sets per (phi, psi) mask pair, which
depend on the transition pattern alone; a space that `build_dtmc`
re-evaluated from an earlier one shares that space's graph memo, and takes
the atoms of its memo that read no changed constant.  `check_properties`
then keeps only the entries its properties used.  No key holds the
SolverConfig: a solve returns its vector and stats, and `_judge` alone
judges them, after the lookup, by comparing the residual with epsilon.

A result record depends only on the model, its constants and the property
(no clock), and `parse_results` accepts exactly the records that
`check_property` writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diagnostics import (
    BuildError, EvalError, SolverError, read_json_lines,
)
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


def _pair_entries(indptr, columns, pairs, n):
    """The entries of the CSR rows of the sorted pairs k*n + s, whose rows
    are those of their states s: their positions, each pair's entry count,
    and their columns as pairs, in the problem k of their row."""
    if pairs[-1] < n:  # all in problem 0: a pair is its state
        at, counts = _row_positions(indptr, pairs)
        return at, counts, columns[at]
    state = pairs % n
    at, counts = _row_positions(indptr, state)
    return at, counts, columns[at] + (pairs - state).repeat(counts)


def _backward_reach(space, seeds_mask, allowed_mask):
    """States that reach a seed via allowed states (seeds always included).

    The masks are one problem's, or (K, n) stacks of K problems.  A problem
    without a seed reaches nothing; the others are searched as one frontier
    of pairs k*n + s, numbered without the seedless ones, so that a single
    problem takes the one-problem path of `_pair_entries`.  A pair's
    predecessors are its state's predecessors in the same problem, so the
    search takes as many rounds as its deepest problem."""
    n = space.n_states
    indptr, preds = space.predecessors
    seeds = seeds_mask.reshape(-1, n)
    live = np.flatnonzero(seeds.any(axis=1))
    reached = seeds[live]
    flat, allowed = reached.reshape(-1), allowed_mask.reshape(-1, n)[live].reshape(-1)
    frontier = np.flatnonzero(flat)
    while frontier.size:
        cand = _pair_entries(indptr, preds, frontier, n)[2]
        # Sorted, first of each run: np.unique would import numpy.ma.
        cand = np.sort(cand[allowed[cand] & ~flat[cand]])
        cand = cand[run_heads(cand)]
        flat[cand] = True
        frontier = cand
    out = seeds.copy()
    out[live] = reached
    return out.reshape(seeds_mask.shape)


def prob0_states(space: StateSpace, phi, psi) -> np.ndarray:
    """Mask of states satisfying phi U psi with probability exactly 0, for
    the state masks phi and psi (or for each row of two (K, n) stacks)."""
    return ~_backward_reach(space, psi, phi & ~psi)


def prob1_states(space: StateSpace, phi, psi) -> np.ndarray:
    """Mask of states satisfying phi U psi with probability exactly 1, for
    the state masks phi and psi (or for each row of two (K, n) stacks)."""
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


def _solve_unknown(space, systems):
    """Solve each system (x, unknown, add), that is (I - P_UU) x_U = add_U +
    P_UK x_K over its unknown states U, with the known values x_K read from
    x, and write x_U into x.

    The systems are solved together over pairs k*n + s, system k's state s.
    Levels are peeled first, in numpy: a pair is ready when every successor
    other than itself is known, and one level solves all its ready pairs at
    once, x_i = (b_i + sum_j p_ij x_j) / (1 - p_ii).  A level reads only the
    in-edges of the pairs it solves, so peeling costs O(edges + levels) for
    all the systems at once.  What a system's levels leave lies on or
    upstream of a cycle; one sparse LU factorization per system solves it,
    and only then is scipy imported.  Each pair's sums run in the order of
    its row, as a system solved alone would run them.  Some arrays span all
    K*n pairs, which `_fill` bounds by its batch size.

    The 0/1 precompute leaves every unknown state a path out of U, which
    makes I - P_UU nonsingular.  Returns, for each system in order, the
    stats of its solve: the engine that ran (`levels`, `sparse-lu` or
    `levels+sparse-lu`) and the scaled residual max|A x_U - b| / max(1,
    max|x_U|), which `_judge` judges.  A singular system gets the
    SolverError that says so in place of its stats, and its x is left as
    it was.
    """
    out = [dict(_GRAPH_STATS) for _ in systems]
    live = [i for i, (_, unknown, _) in enumerate(systems) if unknown.size]
    if not live:
        return out
    n = space.n_states
    sizes = [systems[i][1].size for i in live]
    first = np.cumsum([0] + sizes)  # where each system's pairs start in U
    known = np.concatenate([systems[i][0] for i in live])
    pairs = np.concatenate([systems[i][1] + k * n for k, i in enumerate(live)])
    add = np.concatenate([systems[i][2][systems[i][1]] for i in live])
    m = pairs.size
    pos = np.full(known.size, -1, dtype=np.int64)
    pos[pairs] = np.arange(m)
    at, counts, c = _pair_entries(space.indptr, space.indices, pairs, n)
    r, p = np.arange(m).repeat(counts), space.data[at]
    rc = pos[c]
    inner = rc >= 0
    b = add + np.bincount(r[~inner], weights=p[~inner] * known[c[~inner]],
                           minlength=m)
    r, rc, p = r[inner], rc[inner], p[inner]
    loop = r == rc
    off = ~loop
    pending = np.bincount(r[off], minlength=m)  # successors not yet solved
    system = np.repeat(np.arange(len(live)), sizes)
    stay = np.zeros(m)
    stay[r[loop]] = p[loop]  # a CSR row holds each column once
    level = np.flatnonzero(pending == 0)
    # A system with a ready pair would divide by 1 - 1 at a pair that keeps
    # itself with probability 1: it is singular, and takes no part.
    singular = np.zeros(len(live), dtype=bool)
    singular[system[stay >= 1.0]] = True
    singular &= np.bincount(system[level], minlength=len(live)) > 0
    for k in np.flatnonzero(singular):
        lo, hi = first[k], first[k + 1]
        i = systems[live[k]][1][np.argmax(stay[lo:hi])]
        out[live[k]] = SolverError(f"singular system over {hi - lo} unknown "
                                   f"states: state {i} keeps itself with "
                                   f"probability 1")
    level = level[~singular[system[level]]]
    sol = np.zeros(m)
    rhs = b.copy()  # b plus the terms of the successors solved so far
    if level.size:
        leave = 1.0 - stay
        indptr, order = by_target(rc[off], m)  # the in-edges of each pair
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
    # r and rest are sorted, so a system's inner edges, and the pairs that
    # its levels leave, are one run of each.
    edges, left = np.searchsorted(r, first), np.searchsorted(rest, first)
    for k in np.flatnonzero((left[1:] > left[:-1]) & ~singular):
        lo, hi, e = first[k], first[k + 1], slice(edges[k], edges[k + 1])
        mine = rest[left[k]:left[k + 1]]
        try:
            sol[mine] = _sparse_lu(r[e] - lo, rc[e] - lo, p[e], rhs[lo:hi], mine - lo)
        except SolverError as err:
            out[live[k]] = err
    dev = np.abs(sol - np.bincount(r, weights=p * sol[rc], minlength=m) - b)
    worst = np.maximum.reduceat(dev, first[:-1])
    scale = np.maximum.reduceat(np.abs(sol), first[:-1])
    for k, i in enumerate(live):
        if isinstance(out[i], SolverError):
            continue
        lu = left[k + 1] - left[k]
        x, unknown, _ = systems[i]
        x[unknown] = sol[first[k]:first[k + 1]]
        out[i] = dict(_GRAPH_STATS, residual=float(worst[k] / max(1.0, scale[k])),
                      engine="levels" if lu == 0 else "sparse-lu" if lu == sizes[k]
                      else "levels+sparse-lu")
    return out


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


def _until_system(space, zero, one):
    """The system of P(phi U psi) from its 0/1 masks, for _solve_unknown."""
    x = np.zeros(space.n_states, dtype=np.float64)
    x[one] = 1.0
    return x, np.flatnonzero(~zero & ~one), np.zeros(space.n_states)


def _reward_system(space, rew, psi_m, one):
    """The system of the expected reward cumulated until psi, given the
    prob1 mask `one` of F psi: +inf where P(F psi) < 1.  Every successor of
    a state in `one` lies in `one`, so the solve reads no infinity."""
    return np.where(one, 0.0, np.inf), np.flatnonzero(one & ~psi_m), rew


def _solved(space, systems):
    """Solve the systems {memo key: system} in one batch.  Returns {key:
    (vector, stats)}, a probability vector (key "P") clipped to [0, 1], or
    {key: SolverError} for a system that failed."""
    outcomes = _solve_unknown(space, list(systems.values()))
    out = {}
    for (key, (x, _, _)), stats in zip(systems.items(), outcomes):
        if isinstance(stats, SolverError):
            out[key] = stats
            continue
        if key[0] == "P":
            np.clip(x, 0.0, 1.0, out=x)
        out[key] = x, stats
    return out


def _matvec_stats(k):
    return {"iterations": k, "residual": 0.0, "engine": "matvec"}


def _step_bounded(space, psi, ks):
    """P(F<=k psi) per state for the target mask psi, or for each row of a
    (K, n) stack of them, k its bound in the non-increasing ks: one sweep
    over pairs j*n + s up to the largest k, targets absorbing.  A step
    recomputes the pairs outside their target, each row summed in its CSR
    order.  The problems still stepping hold a prefix of the pairs, so each
    problem stops at its own k."""
    n = space.n_states
    x = psi.astype(np.float64).ravel()
    rest = np.flatnonzero(~psi.ravel())
    if rest.size and ks[0]:
        pos, counts, cols = _pair_entries(space.indptr, space.indices, rest, n)
        probs, rows = space.data[pos], np.repeat(np.arange(rest.size), counts)
        stepping, done = len(ks), 0
        for k in sorted(set(ks) - {0}):
            if ks[stepping - 1] < k:  # drop the problems whose bound is below k
                stepping = sum(b >= k for b in ks)
                a = np.searchsorted(rest, n * stepping)
                e = counts[:a].sum()
                rest, rows, probs, cols = rest[:a], rows[:e], probs[:e], cols[:e]
            for _ in range(k - done):
                x[rest] = np.bincount(rows, weights=probs * x[cols], minlength=rest.size)
            done = k
    return np.clip(x, 0.0, 1.0, out=x).reshape(psi.shape)


def bounded_eventually_probability(space, psi, k):
    """k backward steps from the indicator of the target mask psi, targets
    absorbing: _step_bounded's sweep for one problem."""
    if k < 0:
        raise ValueError("step bound must be >= 0")
    return _step_bounded(space, psi, [k]), _matvec_stats(k)


def _reward_vector(space, reward_name):
    if reward_name not in space.rewards:
        raise SolverError(f"unknown reward structure '{reward_name}'")
    return space.rewards[reward_name]


# --------------------------------------------------------------------------
# Property checking
# --------------------------------------------------------------------------

# The errors of a check, which name the property's place.
_CHECK_ERRORS = (BuildError, EvalError, SolverError)


def _located(prop, e):
    """The error `e` with the place of `prop` in front."""
    return e if prop.span is None else type(e)(f"{prop.span}: {e}")


def _mask_key(mask):
    return np.packbits(mask).tobytes()


def _bounded_key(psi, k):
    return "F<=", _mask_key(psi), k


def _until_form(space, prop):
    """(phi, psi, negate) masks with P(path) = P(phi U psi), or 1 minus it
    when negate: F psi is true U psi, and G phi is 1 - P(true U !phi)."""
    path = prop.path
    if path.kind == "U":
        return (label_states(space, path.constraint), label_states(space, path.target),
                False)
    target = label_states(space, path.target)
    everywhere = np.ones(space.n_states, dtype=bool)
    if path.kind == "G":
        return everywhere, ~target, True
    return everywhere, target, False


def model_fingerprint(space: StateSpace, prop) -> str:
    """Content hash of (model text, bound constants, property text)."""
    h = space.model_digest.copy()
    h.update(prop.source_text.encode())
    return h.hexdigest()


_RESULT_KIND = {"P_query": "probability", "P_bound": "boolean", "R_query": "reward"}
# Bounds decided on the graph alone, by the initial state's 0/1 membership.
_QUALITATIVE = ((">=", 1.0), ("<=", 0.0))


def _deciding_set(prop, negate):
    """The 0/1 set, "prob0" or "prob1", that decides a bound in _QUALITATIVE;
    None for any other property.  P >= 1 holds on prob1 and P <= 0 on
    prob0; the complement swaps them."""
    if prop.kind != "P_bound" or (prop.bound_op, prop.bound) not in _QUALITATIVE:
        return None
    return "prob1" if (prop.bound_op == ">=") != negate else "prob0"


class _Plan(NamedTuple):
    """What checking one property reads.  An until plan reads the 0/1 sets
    `sets` of phi U psi, under the mask key `key` in the graph memo, then,
    if `reads_vector`, the vector that `_vector` names.  An F<=k plan (phi
    None) reads the F<=k vector of its target mask psi.  `negate`: the
    value is 1 minus the vector's."""
    prop: object
    phi: np.ndarray | None
    psi: np.ndarray
    key: tuple = ()
    negate: bool = False
    sets: tuple = ()
    reads_vector: bool = True


def _plan(space, prop):
    """Label the state formulas of `prop` and find what its check reads: a
    bound that the graph decides reads one 0/1 set and no vector; a reward
    query reads prob1, which says whether it is finite; any other until
    reads prob0 and prob1, which fix its linear system."""
    path = prop.path
    if path.kind == "F<=":  # step-bounded: no graph characterization
        return _Plan(prop, None, label_states(space, path.target))
    phi, psi, negate = _until_form(space, prop)
    until = prop, phi, psi, (_mask_key(phi), _mask_key(psi)), negate
    if prop.kind == "R_query":
        _reward_vector(space, prop.reward)  # an unknown name is an error first
        return _Plan(*until, ("prob1",))
    decided = _deciding_set(prop, negate)
    if decided:
        return _Plan(*until, (decided,), reads_vector=False)
    return _Plan(*until, ("prob0", "prob1"))


def _vector(space, plan):
    """The memo key of the vector that `plan` reads and a function that
    builds its linear system (None for an F<=k vector), or None when it
    reads no vector: a bound that the graph decides, or a reward query whose
    target is missed with P > 0 (its value is +inf).  Reads the plan's 0/1
    sets from the graph memo.  A probability vector is keyed by the 0/1
    sets, which alone fix its system, and a reward vector by the masks."""
    prop, graph = plan.prop, space.graph_memo
    if plan.phi is None:
        return _bounded_key(plan.psi, prop.path.bound), None
    if not plan.reads_vector:
        return None
    one = graph[("prob1", *plan.key)]
    if prop.kind == "R_query":
        if not one[space.initial]:
            return None
        return (("R", *plan.key, prop.reward), lambda: _reward_system(
            space, _reward_vector(space, prop.reward), plan.psi, one))
    zero = graph[("prob0", *plan.key)]
    return ("P", _mask_key(zero), _mask_key(one)), lambda: _until_system(space, zero, one)


# A batch holds at most this many pairs: its temporary arrays take a few
# dozen bytes per transition of a pair, so a batch of large problems holds
# about what one problem of 2**16 states holds, while a small space still
# checks all its problems in one batch.
_BATCH_PAIRS = 1 << 16


def _batches(space, problems):
    """The list `problems` in runs of at most _BATCH_PAIRS pairs, and of at
    least one problem."""
    per = max(1, _BATCH_PAIRS // space.n_states)
    return [problems[i:i + per] for i in range(0, len(problems), per)]


def _fill(space, plans):
    """Compute, in batches per kernel, what the plans read and the memos
    lack: the prob0 sets, the prob1 sets, the F<=k vectors and the linear
    systems.  Each entry goes under its own key, as its own array.  Returns
    the `_vector` of each plan and {memo key: SolverError} for the systems
    that failed in their batch, which are not stored."""
    graph, memo = space.graph_memo, space.memo
    sets = {}
    for plan in plans:
        for name in plan.sets:
            sets.setdefault((name, *plan.key), plan)
    one = [p for key, p in sets.items() if key[0] == "prob1" and key not in graph]
    for p in one:  # a prob1 set is computed from its prob0 set
        sets.setdefault(("prob0", *p.key), p)
    zero = [p for key, p in sets.items() if key[0] == "prob0" and key not in graph]
    for batch in _batches(space, zero):
        phi, psi = np.stack([p.phi for p in batch]), np.stack([p.psi for p in batch])
        for p, mask in zip(batch, prob0_states(space, phi, psi)):
            graph.put(("prob0", *p.key), mask.copy())
    for batch in _batches(space, one):
        phi, psi = np.stack([p.phi for p in batch]), np.stack([p.psi for p in batch])
        zeros = np.stack([graph[("prob0", *p.key)] for p in batch])
        for p, mask in zip(batch, _prob1(space, phi, psi, zeros)):
            graph.put(("prob1", *p.key), mask.copy())
    vectors = [_vector(space, plan) for plan in plans]
    bounded, systems, failed = {}, {}, {}
    for plan, vector in zip(plans, vectors):
        if vector is None or vector[0] in memo:
            continue
        key, system = vector
        if system is None:
            bounded[key] = plan.psi
        else:
            systems[key] = system
    for batch in _batches(space, sorted(bounded, key=lambda key: -key[2])):
        xs = _step_bounded(space, np.stack([bounded[key] for key in batch]),
                           [key[2] for key in batch])
        for key, x in zip(batch, xs):
            memo.put(key, (x.copy(), _matvec_stats(key[2])))
    for batch in _batches(space, list(systems)):
        for key, outcome in _solved(space, {key: systems[key]() for key in batch}).items():
            if isinstance(outcome, SolverError):
                failed[key] = outcome
            else:
                memo.put(key, outcome)
    return vectors, failed


def _judge(space, plan, vector, failed, cfg):
    """The result of a planned property, read from the memos that `_fill`
    filled, `vector` the plan's `_vector` and `failed` the errors of the
    systems that failed in their batch; queries return the initial-state
    value.  The one place that judges a solve: it is accepted when its
    residual is at most cfg.epsilon."""
    prop, init = plan.prop, space.initial
    value = verdict = None
    infinite = marginal = False
    stats = _GRAPH_STATS
    try:
        if vector:
            if vector[0] in failed:
                raise failed[vector[0]]
            vec, stats = space.memo[vector[0]]
            value = float(1.0 - vec[init] if plan.negate else vec[init])
        elif prop.kind == "R_query":
            infinite = True
        else:
            [decided] = plan.sets
            verdict = bool(space.graph_memo[(decided, *plan.key)][init])
        # Graph and F<=k results have residual 0.0 and always pass.
        if not stats["residual"] <= cfg.epsilon:
            raise SolverError(f"{stats['engine']} solve missed the residual bound "
                              f"({stats['residual']:.3e} > {cfg.epsilon:g})")
    except _CHECK_ERRORS as e:
        raise _located(prop, e) from None
    if prop.kind == "P_bound" and verdict is None:
        # Bounds of 0 or 1 on a numeric value allow for rounding.
        tol = BOUND_TOL if prop.bound in (0.0, 1.0) else 0.0
        verdict = (value >= prop.bound - tol if prop.bound_op == ">="
                   else value <= prop.bound + tol)
        marginal = abs(value - prop.bound) <= BOUND_TOL
    return VerificationResult(prop.name, _RESULT_KIND[prop.kind], value, infinite,
                              verdict, marginal, dict(stats),
                              model_fingerprint(space, prop))


def _check(space, props, cfg):
    """Plan each property in file order, fill the memos in batches, then
    judge each property.  Planning stops at the first property that raises:
    the properties before it are judged, and may raise first, then its error
    is raised.  So the errors come as checking one property at a time in
    file order gives them.  Every error names the property's place."""
    plans, error = [], None
    for prop in props:
        try:
            plans.append(_plan(space, prop))
        except _CHECK_ERRORS as e:
            error = _located(prop, e)
            break
    vectors, failed = _fill(space, plans)
    results = [_judge(space, plan, vector, failed, cfg)
               for plan, vector in zip(plans, vectors)]
    if error:
        raise error from None
    return results


def check_property(space: StateSpace, prop, cfg=SolverConfig()) -> VerificationResult:
    """Check one property: a batch of one."""
    return _check(space, [prop], cfg)[0]


def check_properties(space, props, cfg=SolverConfig()):
    """Check each property, with one batch per kernel for all of them; then
    the space's two memos keep only the entries that these checks used."""
    results = _check(space, props, cfg)
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
    return read_json_lines(text, VerificationResult, "result record",
                           check=_check_result)
