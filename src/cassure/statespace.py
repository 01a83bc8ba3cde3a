"""Explicit-state construction of the DTMC from a bound model.

Breadth-first reachability from the declared initial valuation.  A transition
unit is either a single unlabeled command of one module, or the synchronized
product of same-labeled commands across every module that mentions the label
(probabilities multiply, assignments merge).  When m > 1 units are enabled in
a state they are resolved by uniform probabilistic choice: each unit fires
with probability 1/m.  Duplicate successors are merged by summing, in the
order the units and their outcomes are listed.  A state with no enabled unit
(a deadlock) gets a probability-1 self-loop, PRISM's default, and is counted
in `BuildDiagnostics.deadlock_states_fixed`.

State order is canonical: BFS layers, with newly discovered successors of a
state indexed in lexicographic valuation order, so two builds of the same
bound model are identical.

Exploration goes one BFS layer at a time.  Every guard, probability,
assignment and reward is compiled once (`model.compile_expr`) and evaluated
over all states of the layer at once, on the states where the per-state
semantics evaluates it: a module's guards for a label only where every
earlier module has an enabled command with that label, probabilities where
their unit is enabled, assignments where their outcome has nonzero
probability.  A probability or an integer assignment that folds to a
constant is kept as one Python number and range-checked once per layer, and
an outcome with a nonzero constant probability is live on every enabled
row, so a layer's fixed cost does not grow with such expressions.
Successors are deduplicated by packing each valuation into a mixed-radix key
over the variable ranges.  The ids of the states found so far are kept by
key in `_RunsIndex`: sorted runs whose sizes more than double toward the
oldest, one `searchsorted` per run for a lookup and a merge only when a new
run grows to half the size of the one before it, so that a layer costs time
in its own size and the logarithm of the states, not in all the states
found.  `build_dtmc` compiles the units and the key packer once and
assembles the matrix once per build: one stable sort of the pair keys
`source * n + target` puts the transitions in CSR order, and a weighted
`bincount` over the runs of equal keys sums duplicates in listed order.

`build_dtmc` may be given the space of an earlier model with the same
variables (`previous`).  Its states are then evaluated as one layer of the
new model, and the result is kept if every successor is a cached state and
the (source, target) pairs are `previous`'s transition pattern.  BFS over the
same pattern from the same initial state visits the same states in the same
order, and each row sums its duplicate successors in the same order, so the
arrays are those of a fresh build.  Anything else -- a successor outside the
cached states, a different pattern, or an error in the batch -- runs the
full exploration, which decides every structural change and names every
error at its canonical state.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .diagnostics import BuildError, EvalError
from .model import PROB_TOL, BoundModel, Expr, compile_expr

ROW_SUM_TOL = 1e-9
DEFAULT_STATE_CAP = 10_000_000


@dataclass
class BuildDiagnostics:
    deadlock_states_fixed: int = 0
    nondeterministic_states: int = 0


class Memo:
    """Results computed on one state space, by key.

    `get` computes a missing entry once and returns the stored one from then
    on; a computation that raises stores nothing.  Stored arrays are made
    read-only, since every caller shares them.  `keep_used` drops every
    entry that no `get` asked for since its previous call.
    """

    def __init__(self):
        self.entries = {}
        self._used = set()

    def get(self, key, compute):
        if key not in self.entries:
            value = compute()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self.entries[key] = value
        self._used.add(key)
        return self.entries[key]

    def keep_used(self):
        self.entries = {k: v for k, v in self.entries.items() if k in self._used}
        self._used = set()


@dataclass
class StateSpace:
    """The arrays are immutable once built; `memo` caches what is computed
    from them, so checks on one space run one at a time."""
    bound: BoundModel
    states: np.ndarray        # int matrix, one row per state in index order
    initial: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rewards: dict             # reward name -> per-state float vector
    diagnostics: BuildDiagnostics

    @property
    def n_states(self):
        return len(self.states)

    def valuation(self, i):
        return _valuation(self.bound.variables, self.states[i])

    def row(self, i):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    @cached_property
    def memo(self):
        """Labels, 0/1 sets and solutions computed on this space."""
        return Memo()

    @cached_property
    def model_digest(self):
        """sha256 state after the model text and the bound constants."""
        h = hashlib.sha256()
        h.update(self.bound.ast.source.encode())
        h.update(json.dumps(self.bound.constants, sort_keys=True).encode())
        return h

    @cached_property
    def columns(self):
        """One column per variable, as `compile_expr` evaluators read them."""
        return _columns(self.bound.variables, self.states)

    @cached_property
    def row_ids(self):
        """Source state of every stored transition, aligned with `indices`."""
        return np.repeat(np.arange(self.n_states), np.diff(self.indptr))

    @cached_property
    def predecessors(self):
        """The transpose pattern as CSR (indptr, indices): row j lists the
        states with a transition into j, in ascending order."""
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.n_states)
        indptr = np.zeros(self.n_states + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, self.row_ids[order]


def _valuation(variables, row):
    return {v.name: bool(x) if v.is_bool else int(x)
            for v, x in zip(variables, row.tolist())}


def _columns(variables, states):
    return tuple(np.ascontiguousarray(states[:, j], dtype=bool if v.is_bool else None)
                 for j, v in enumerate(variables))


def _where(variables, states, rows, span):
    """Names row r of an evaluation over states[rows]: valuation and span."""
    return lambda r: f"{_valuation(variables, states[rows[r]])} [{span}]"


def _evaluate(fn, cols, n, where):
    """Run a compiled evaluator; a failing row is reported as where(row)."""
    try:
        return fn(cols, n)
    except EvalError as e:
        if e.row is None:
            raise
        raise EvalError(f"{e} at state {where(e.row)}") from None


# --------------------------------------------------------------------------
# Transition units, compiled once per build
# --------------------------------------------------------------------------

class _Outcome(NamedTuple):
    factors: tuple      # per command: compiled probability, or None for 1
    assignments: tuple  # of (slot, name, compiled right-hand side)


class _Unit(NamedTuple):
    members: tuple      # indices of the commands that fire together
    spans: str
    outcomes: tuple     # of _Outcome, in product order


def _compile_units(bound):
    """(compiled guard, span) of every command, the chains in which guards
    are evaluated, and the static list of transition units, in the order the
    uniform choice lists them: unlabeled commands by module and command, then
    each label (sorted) as the product of its modules' same-labeled commands.

    A chain lists command indices per module: an unlabeled command is a chain
    of its own, and a label's chain has its commands in each module that
    mentions it, in module order."""
    slots = {v.name: j for j, v in enumerate(bound.variables)}
    guards, commands, updates, labels = [], [], [], {}
    for mod in bound.ast.modules:
        for cmd in mod.commands:
            guards.append((compile_expr(cmd.guard, bound), cmd.span))
            commands.append(cmd)
            updates.append([
                (None if upd.probability is None else compile_expr(upd.probability, bound),
                 tuple((slots[name], name, compile_expr(rhs, bound))
                       for name, rhs in upd.assignments))
                for upd in cmd.updates])
            if cmd.label:
                per_module = labels.setdefault(cmd.label, {})
                per_module.setdefault(mod.name, []).append(len(commands) - 1)

    def unit(members):
        outcomes = [_Outcome(tuple(p for p, _ in combo),
                             tuple(a for _, assigns in combo for a in assigns))
                    for combo in itertools.product(*(updates[k] for k in members))]
        return _Unit(tuple(members), ", ".join(str(commands[k].span) for k in members),
                     tuple(outcomes))

    single = [k for k, cmd in enumerate(commands) if cmd.label is None]
    chains = [[[k]] for k in single]
    units = [unit((k,)) for k in single]
    for lab in sorted(labels):
        chains.append(list(labels[lab].values()))
        units.extend(unit(members)
                     for members in itertools.product(*labels[lab].values()))
    return guards, chains, units


# --------------------------------------------------------------------------
# Mixed-radix keys
# --------------------------------------------------------------------------

def _key_packer(variables):
    """A function packing state rows into keys whose order is the
    lexicographic valuation order.  Variables fill 63-bit words from the
    first one on; a key is one int64 when one word suffices, else a record
    of words compared in order."""
    words, size = [[]], 1
    for j, v in enumerate(variables):
        low, radix = (0, 2) if v.is_bool else (v.low, v.high - v.low + 1)
        if radix >= 2 ** 63:
            raise BuildError(f"range of '{v.name}' is too wide to pack")
        if size * radix >= 2 ** 63:
            words.append([])
            size = 1
        words[-1].append((j, low, radix))
        size *= radix
    record = np.dtype([(f"w{i}", np.int64) for i in range(len(words))])

    def pack(states):
        keys = []
        for word in words:
            key = np.zeros(len(states), dtype=np.int64)
            for j, low, radix in word:
                key *= radix
                key += states[:, j] - low
            keys.append(key)
        if len(keys) == 1:
            return keys[0]
        packed = np.empty(len(states), dtype=record)
        for name, key in zip(record.names, keys):
            packed[name] = key
        return packed

    return pack


# --------------------------------------------------------------------------
# Exploration and assembly
# --------------------------------------------------------------------------

def _layer_transitions(variables, compiled, frontier, first, diags):
    """All transitions out of one BFS layer (states first, first+1, ...):
    source ids, successor valuations and probabilities, in the order the
    uniform choice lists units and outcomes.  A row with no enabled unit (a
    deadlock) has its self-loop, listed after every unit's transitions.

    A probability that folded to a constant stays one Python float: its
    outcome is live on every row where the unit is enabled, or on none."""
    guards, chains, units = compiled
    f = len(frontier)
    cols = _columns(variables, frontier)
    everyone = np.arange(f)
    enabled = [None] * len(guards)
    for chain in chains:
        rows = everyone  # where every earlier module of the chain can fire
        for module in chain:
            sub = cols if rows is everyone else tuple(c[rows] for c in cols)
            fires = None  # rows where this module can fire, for the next one
            for k in module:
                g, span = guards[k]
                on = _evaluate(g, sub, rows.size, _where(variables, frontier, rows, span))
                if rows is everyone:
                    enabled[k] = on
                else:
                    enabled[k] = np.zeros(f, dtype=bool)
                    enabled[k][rows] = on
                if module is not chain[-1]:
                    fires = on if fires is None else fires | on
            if fires is not None:
                rows = rows[fires]
    masks = [enabled[u.members[0]] if len(u.members) == 1
             else np.logical_and.reduce([enabled[k] for k in u.members]) for u in units]
    m = np.add.reduce(masks, dtype=np.int64) if masks else np.zeros(f, np.int64)
    counts = np.bincount(m, minlength=2)  # rows with 0, 1, ... enabled units
    diags.nondeterministic_states += f - int(counts[0]) - int(counts[1])
    diags.deadlock_states_fixed += int(counts[0])

    src, succ, prob = [], [], []
    for u, mask in zip(units, masks):
        rows = mask.nonzero()[0]
        if not rows.size:
            continue
        sub = cols if rows.size == f else tuple(c[rows] for c in cols)
        where = _where(variables, frontier, rows, u.spans)
        values = {}  # each command's update probabilities, evaluated once
        probs = []
        for outcome in u.outcomes:
            p = 1.0
            for factor in outcome.factors:
                if factor is not None:
                    if factor not in values:
                        values[factor] = _probability(factor, sub, rows.size, where)
                    p = p * values[factor]
            probs.append(p)
        total = sum(probs)
        if isinstance(total, float):  # every probability folded
            off = None if abs(total - 1.0) <= PROB_TOL else 0
        else:
            off = _first(~(np.abs(total - 1.0) <= PROB_TOL))
        if off is not None:
            raise BuildError(f"unit outcome probabilities sum to "
                             f"{float(np.ravel(total)[off])} (not 1) at state "
                             f"{where(off)}")
        states, shares = frontier[rows], m[rows]
        for outcome, p in zip(u.outcomes, probs):
            if isinstance(p, float):  # folded: live on every row, or on none
                if p == 0.0:
                    continue
                here, vals, nxt, p = rows, sub, states.copy(), p / shares
            else:
                live = (p != 0.0).nonzero()[0]
                if not live.size:
                    continue
                here, vals, nxt = rows[live], tuple(c[live] for c in sub), states[live]
                p = p[live] / shares[live]
            where_live = _where(variables, frontier, here, u.spans)
            for slot, name, rhs in outcome.assignments:
                var, v = variables[slot], rhs.folded
                if var.is_bool:
                    nxt[:, slot] = (bool(v) if v is not None else
                                    _evaluate(rhs, vals, here.size, where_live).astype(bool))
                    continue
                if type(v) is int:  # folded: one check for every row
                    out = None if var.low <= v <= var.high else 0
                else:
                    v = _truncate(_evaluate(rhs, vals, here.size, where_live))
                    out = _first(~((v >= var.low) & (v <= var.high)))  # NaN fails
                if out is not None:
                    raise BuildError(
                        f"assignment drives '{name}' to {_integral(np.ravel(v)[out])}, "
                        f"outside [{var.low}..{var.high}], at state {where_live(out)}")
                nxt[:, slot] = v
            src.append(here)
            succ.append(nxt)
            prob.append(p)
    if counts[0]:
        dead = (m == 0).nonzero()[0]
        src.append(dead)
        succ.append(frontier[dead])
        prob.append(np.ones(dead.size))
    src = np.concatenate(src)
    src += first
    return src, np.concatenate(succ), np.concatenate(prob)


def _first(bad):
    """The first row where the bool array `bad` holds, or None."""
    rows = bad.nonzero()[0]
    return int(rows[0]) if rows.size else None


def _probability(factor, cols, n, where):
    """A compiled update probability over n states, each in [0, 1] up to
    PROB_TOL; the comparison is written so that NaN fails it too.  A folded
    probability is one float, checked once for every row."""
    if factor.folded is not None:
        p = float(factor.folded)
        bad = None if -PROB_TOL <= p <= 1 + PROB_TOL else 0
    else:
        p = _evaluate(factor, cols, n, where).astype(np.float64)
        bad = _first(~((p >= -PROB_TOL) & (p <= 1 + PROB_TOL)))
    if bad is not None:
        raise BuildError(f"update probability {float(np.ravel(p)[bad])} outside [0,1] "
                         f"at state {where(bad)}")
    return p


def _truncate(v):
    """Integer values, truncated toward zero as `int` does; NaN and ±inf
    are kept, for the range check to reject."""
    if v.dtype == object:  # Python numbers from an exact evaluation
        return np.frompyfunc(_integral, 1, 1)(v)
    return np.trunc(v) if v.dtype.kind == "f" else v


def _integral(x):
    """int(x) for a finite x; NaN and ±inf as they are."""
    return int(x) if abs(x) < math.inf else x


def run_heads(keys):
    """Mask of the first of each run of equal keys in the sorted `keys`."""
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    head[1:] = keys[1:] != keys[:-1]
    return head


def _assemble(n, src, dst, val):
    """CSR arrays from transition triples: rows by source, columns ascending,
    duplicate (source, target) pairs summed in their listed order."""
    pairs = src * n + dst  # no overflow: n * n < 2**63 for any n below 3e9
    order = pairs.argsort(kind="stable")  # equal pairs keep listed order
    pairs = pairs[order]
    head = run_heads(pairs)
    # bincount adds the weights one by one, in input order.
    data = np.bincount(np.cumsum(head) - 1, weights=val[order])
    rows, cols = np.divmod(pairs[head], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols, data


class _RunsIndex:
    """State ids by packed key, for keys added in batches: sorted runs of
    (keys, ids) whose sizes at least double toward the oldest run (the
    logarithmic method of Bentley and Saxe).  A lookup searches each run; a
    new run is merged with the one before it while that one is at most
    twice its size, so there are at most log2(n) runs and each key takes part
    in at most log2(n) merges."""

    def __init__(self):
        self.runs = []

    def find(self, keys):
        """Ids of the sorted keys `keys`, -1 where a key is in no run."""
        ids = np.empty(len(keys), dtype=np.int64)
        ids.fill(-1)
        for run_keys, run_ids in self.runs:
            pos = run_keys.searchsorted(keys)
            hit = run_keys.take(pos, mode="clip") == keys
            np.copyto(ids, run_ids.take(pos, mode="clip"), where=hit)
        return ids

    def add(self, keys, ids):
        """Add sorted keys, none of them in a run yet, with their ids."""
        merged, size = [(keys, ids)], len(keys)
        while self.runs and len(self.runs[-1][0]) <= 2 * size:
            merged.append(self.runs.pop())
            size += len(merged[-1][0])
        if len(merged) > 1:
            # A stable sort merges the sorted runs in linear time.
            keys = np.concatenate([k for k, _ in merged])
            order = keys.argsort(kind="stable")
            keys, ids = keys[order], np.concatenate([i for _, i in merged])[order]
        self.runs.append((keys, ids))


def _explore(variables, compiled, pack, max_states):
    """The reachable states by BFS from the initial valuation, with their
    transitions (source ids, target ids, probabilities) and diagnostics."""
    diags = BuildDiagnostics()
    frontier = np.array([[int(v.init) for v in variables]], dtype=np.int64)
    layers = [frontier]
    index = _RunsIndex()
    index.add(pack(frontier), np.zeros(1, dtype=np.int64))
    n, first = 1, 0
    src_all, dst_all, prob_all = [], [], []
    while len(frontier):
        src, succ, prob = _layer_transitions(variables, compiled, frontier,
                                             first, diags)
        # Group the transitions by successor key.
        keys = pack(succ)
        by_key = keys.argsort(kind="stable")
        keys = keys[by_key]
        head = run_heads(keys)
        starts = head.nonzero()[0]
        keys = keys[starts]
        ids = index.find(keys)
        fresh = (ids < 0).nonzero()[0]
        if n + fresh.size > max_states:
            raise BuildError(f"state cap exceeded ({max_states})")
        # New states: by discovering state (the least source of the key),
        # then by valuation (keys ascend).
        discoverer = np.minimum.reduceat(src[by_key], starts)[fresh]
        new = fresh[np.argsort(discoverer, kind="stable")]
        ids[new] = np.arange(n, n + new.size)
        dst = np.empty(src.size, dtype=np.int64)
        dst[by_key] = ids[np.cumsum(head) - 1]
        src_all.append(src)
        dst_all.append(dst)
        prob_all.append(prob)

        index.add(keys[fresh], ids[fresh])
        first += len(frontier)
        frontier = succ[by_key[starts[new]]]
        layers.append(frontier)
        n += new.size

    return (np.concatenate(layers), np.concatenate(src_all),
            np.concatenate(dst_all), np.concatenate(prob_all), diags)


def _reward_vectors(bound, states):
    n = len(states)
    cols = _columns(bound.variables, states)
    rewards = {}
    everyone = np.arange(n)
    for rs in bound.ast.rewards:
        vec = np.zeros(n, dtype=np.float64)
        for item in rs.items:
            hit = _evaluate(compile_expr(item.guard, bound), cols, n,
                            _where(bound.variables, states, everyone, item.span))
            rows = np.flatnonzero(hit)
            where = _where(bound.variables, states, rows, item.span)
            r = _evaluate(compile_expr(item.value, bound),
                          tuple(c[rows] for c in cols), rows.size,
                          where).astype(np.float64)
            bad = np.flatnonzero(~(r >= 0))  # NaN fails the comparison too
            if bad.size:
                raise BuildError(f'reward {r[bad[0]]} in "{rs.name}" is not >= 0 '
                                 f"at state {where(bad[0])}")
            vec[rows] += r
        rewards[rs.name] = vec
    return rewards


def _reevaluate(bound, previous, compiled, pack):
    """What _explore returns for ``bound``, from the states of ``previous``
    evaluated as one layer, or None when it may differ from what _explore
    returns (see the module docstring)."""
    states = previous.states
    diags = BuildDiagnostics()
    try:
        src, succ, prob = _layer_transitions(bound.variables, compiled, states,
                                             0, diags)
    except (BuildError, EvalError):
        return None
    keys, succ_keys = pack(states), pack(succ)
    order = np.argsort(keys)
    dst = order.take(np.searchsorted(keys, succ_keys, sorter=order), mode="clip")
    if not np.array_equal(keys[dst], succ_keys):
        return None  # a successor outside the cached states
    n = len(states)
    pairs = np.sort(src * n + dst)
    if not np.array_equal(pairs[run_heads(pairs)],
                          previous.row_ids * n + previous.indices):
        return None  # a different transition pattern
    return states, src, dst, prob, diags


# A build rejects NaN in a probability, an assignment or a reward by a
# located check, and a comparison with NaN is false, so numpy's warning that
# an evaluation made NaN would only name internal lines.  It is silenced once
# per call, not per evaluation.
@np.errstate(invalid="ignore")
def build_dtmc(bound: BoundModel, max_states=DEFAULT_STATE_CAP,
               previous: StateSpace | None = None) -> StateSpace:
    """The DTMC of ``bound``: reachable states, transition matrix, rewards
    and build diagnostics; validates row sums.

    With ``previous`` (a space built from a model with the same variables),
    its states are re-evaluated in one batch first; the full exploration runs
    when that may not give its result (see _reevaluate)."""
    compiled = _compile_units(bound)
    pack = _key_packer(bound.variables)
    built = None
    if (previous is not None and previous.bound.variables == bound.variables
            and previous.n_states <= max_states):
        built = _reevaluate(bound, previous, compiled, pack)
    if built is None:
        built = _explore(bound.variables, compiled, pack, max_states)
    states, src, dst, prob, diags = built
    space = StateSpace(bound, states, 0, *_assemble(len(states), src, dst, prob),
                       _reward_vectors(bound, states), diags)
    sums = np.add.reduceat(space.data, space.indptr[:-1])
    if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise BuildError(
            f"row {worst} sums to {sums[worst]}, violating stochasticity")
    return space


@np.errstate(invalid="ignore")
def label_states(space: StateSpace, phi: Expr) -> np.ndarray:
    """Boolean mask over state indices for a boolean state expression."""
    mask = _evaluate(compile_expr(phi, space.bound), space.columns,
                     space.n_states, lambda r: space.valuation(r))
    if mask.dtype != bool:
        raise BuildError("labeling expression is not boolean "
                         f"(got {mask[0].item()!r})")
    return mask
