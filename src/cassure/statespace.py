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
key, in the index that `_state_index` chooses.  When the key is one int64
and the variable ranges span at most `TABLE_BUDGET` keys, `_KeyTable` keeps
them in a zeroed array indexed by key, so a layer finds its successors by
one `take` and registers its new states by one scatter; the pages of the
array that no state's key falls in are never touched.  Wider key spaces go
to `_KeyDict`, a dict from each key (a Python int, or the bytes of a
record of words) to its id, which a layer reads in one pass over its keys.
Either way a layer costs time in its own size, not in all the states
found, and only the transitions to new states are sorted, to number those
states canonically.
`build_dtmc` compiles the units and the key packer once and
assembles the matrix once per build: one stable sort of the pair keys
`source * n + target` puts the transitions in CSR order, and a weighted
`bincount` over the runs of equal keys sums duplicates in listed order.

`build_dtmc` may be given the space of an earlier model with the same
variables (`previous`).  Its states are then evaluated as one layer of the
new model, its successors are looked up in an index of those states (the
same choice as `_explore`'s), and the result is kept if every successor is
a cached state and the (source, target) pairs are `previous`'s transition
pattern.  BFS over the same pattern from the same initial state visits the
same states in the same order, and each row sums its duplicate successors
in the same order, so the arrays are those of a fresh build, and the new
space takes over from `previous` what depends on the states and the
pattern alone: the variable columns, the source and predecessor lists and
the graph memo of 0/1 sets.  If the two models have the same formulas, it
also takes each atom (below) that reads no constant whose value changed.
Anything else -- a successor outside the cached states, a different
pattern, or an error in the batch -- runs the full exploration, which
decides every structural change and names every error at its canonical
state.

`label_states` labels a state formula from its atoms, the maximal
subformulas whose root is not '&', '|', '->' or '!'.  Each distinct atom,
keyed in the space's memo by its rendered text, is type-checked by the
model's rules, compiled and evaluated over all states once per space; its
entry keeps its value and the states where it divides by zero.  A formula
walks its skeleton of logic operators over those entries: first the type
rules, in the order that checking the whole formula finds errors, then the
numpy '&', '|' and '!' of the masks, where the right operand of '&', '|'
and '->' counts its failing states only where the left one does not
decide.  So every label, error text and failing state is the one a single
evaluation of the whole formula gives.
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
from .model import (
    BOOL, DEEP_EXPRESSION, LOGIC, MAX_EXPR_DEPTH, NOT_BOOLEAN, PROB_TOL, Binary,
    BoundModel, Expr, Unary, compile_expr, logic_type,
)
from .parsing import render_expr

ROW_SUM_TOL = 1e-9
DEFAULT_STATE_CAP = 10_000_000
# The most keys a one-word key space may span for its state ids to be kept
# in a table indexed by key: 2**22 int64 ids, 32 MiB of address space.
TABLE_BUDGET = 2 ** 22


@dataclass
class BuildDiagnostics:
    deadlock_states_fixed: int = 0
    nondeterministic_states: int = 0


class Memo:
    """Results computed on one state space, by key.

    `get` computes a missing entry once, or takes the one that `put`
    stored, and returns the stored one from then on; a computation that
    raises stores nothing.  Stored arrays are made read-only, since every
    caller shares them.  `keep_used` drops every entry that no `get` or
    `memo[key]` asked for since its previous call.
    """

    def __init__(self):
        self.entries = {}
        self._used = set()

    def __contains__(self, key):
        return key in self.entries

    def __getitem__(self, key):
        """A stored entry, which `keep_used` then keeps."""
        self._used.add(key)
        return self.entries[key]

    def get(self, key, compute):
        if key not in self.entries:
            self.put(key, compute())
        return self[key]

    def put(self, key, value):
        """Store an entry computed elsewhere; `get` then returns it."""
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        self.entries[key] = value

    def keep_used(self):
        self.entries = {k: v for k, v in self.entries.items() if k in self._used}
        self._used = set()


# The cached properties of a StateSpace that depend on its states and its
# transition pattern alone, not on the constants or the probabilities.
_PATTERN_ONLY = ("columns", "row_ids", "predecessors", "graph_memo")


@dataclass
class StateSpace:
    """The arrays are immutable once built; `memo` and `graph_memo` cache
    what is computed from them, so checks on one space run one at a time."""
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
        """Atoms of state formulas and solutions computed on this space."""
        return Memo()

    @cached_property
    def graph_memo(self):
        """The 0/1 sets computed on this space: they depend on its
        transition pattern alone."""
        return Memo()

    def share_pattern(self, other):
        """Take over what ``other`` has computed from its states and its
        transition pattern alone; both must equal this space's."""
        vars(self).update({k: v for k, v in vars(other).items()
                           if k in _PATTERN_ONLY})

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
        indptr, order = by_target(self.indices, self.n_states)
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
    """(pack, span): a function packing state rows into keys whose order is
    the lexicographic valuation order, and the number of keys the variable
    ranges span when a key is one word (None otherwise).  Variables fill
    63-bit words from the first one on; a key is one int64 when one word
    suffices, else a record of words compared in order."""
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

    return pack, (size if len(words) == 1 else None)


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


def by_target(targets, n):
    """(indptr, order) of the transpose of edges into the states 0..n-1:
    `order` sorts the edges stably by target, and the edges into j are
    order[indptr[j]:indptr[j + 1]]."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=indptr[1:])
    return indptr, np.argsort(targets, kind="stable")


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


class _KeyTable:
    """State ids by one-word key, in an array over the whole key space that
    stores id + 1, so that 0 (what `np.zeros` maps lazily) means absent."""

    def __init__(self, span):
        self.ids = np.zeros(span, dtype=np.int64)

    def find(self, keys):
        """Ids of `keys`, -1 where a key has no state yet."""
        return self.ids.take(keys) - 1

    def add(self, keys, ids):
        """Add distinct keys, none of them in the table yet, with their ids."""
        self.ids[keys] = ids + 1


class _KeyDict:
    """State ids by packed key in a dict: a one-word key as its Python int,
    a record key as the bytes of its words."""

    def __init__(self):
        self.ids = {}

    def find(self, keys):
        """Ids of `keys`, -1 where a key has no state yet."""
        found = map(self.ids.get, self._hashable(keys), itertools.repeat(-1))
        return np.fromiter(found, np.int64, len(keys))

    def add(self, keys, ids):
        """Add distinct keys, none of them in the dict yet, with their ids."""
        self.ids.update(zip(self._hashable(keys), ids.tolist()))

    @staticmethod
    def _hashable(keys):
        if keys.dtype.names:
            keys = keys.view((np.void, keys.itemsize))
        return keys.tolist()


def _state_index(span):
    """An empty index of state ids by packed key: the table when the key is
    one word spanning at most TABLE_BUDGET keys, else the dict."""
    return (_KeyTable(span) if span is not None and span <= TABLE_BUDGET
            else _KeyDict())


def _explore(variables, compiled, pack, span, max_states):
    """The reachable states by BFS from the initial valuation, with their
    transitions (source ids, target ids, probabilities) and diagnostics."""
    diags = BuildDiagnostics()
    frontier = np.array([[int(v.init) for v in variables]], dtype=np.int64)
    layers = [frontier]
    index = _state_index(span)
    index.add(pack(frontier), np.zeros(1, dtype=np.int64))
    n, first = 1, 0
    src_all, dst_all, prob_all = [], [], []
    while len(frontier):
        src, succ, prob = _layer_transitions(variables, compiled, frontier,
                                             first, diags)
        keys = pack(succ)
        dst = index.find(keys)
        # Group the transitions to states not found yet by successor key.
        fresh = (dst < 0).nonzero()[0]
        keys = keys[fresh]
        by_key = keys.argsort(kind="stable")
        fresh, keys = fresh[by_key], keys[by_key]
        head = run_heads(keys)
        starts = head.nonzero()[0]
        if n + starts.size > max_states:
            raise BuildError(f"state cap exceeded ({max_states})")
        # New states: by discovering state (the least source of the key),
        # then by valuation (keys ascend).
        discoverer = np.minimum.reduceat(src[fresh], starts)
        new = np.argsort(discoverer, kind="stable")
        ids = np.empty(starts.size, dtype=np.int64)
        ids[new] = np.arange(n, n + new.size)
        dst[fresh] = ids[np.cumsum(head) - 1]
        src_all.append(src)
        dst_all.append(dst)
        prob_all.append(prob)

        index.add(keys[starts], ids)
        first += len(frontier)
        frontier = succ[fresh[starts[new]]]
        layers.append(frontier)
        n += new.size

    # Free the ids, and each list of layer arrays once it is joined, so the
    # arrays are held twice over one list at a time.
    del index, src, dst, prob, succ
    joined = []
    for parts in (layers, src_all, dst_all, prob_all):
        joined.append(np.concatenate(parts))
        parts.clear()
    return (*joined, diags)


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


def _reevaluate(bound, previous, compiled, pack, span):
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
    n = len(states)
    index = _state_index(span)
    index.add(pack(states), np.arange(n))
    dst = index.find(pack(succ))
    if (dst < 0).any():
        return None  # a successor outside the cached states
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
    when that may not give its result (see _reevaluate).  A re-evaluated
    space shares with ``previous`` what depends on the states and the
    transition pattern alone, its 0/1 sets among them."""
    compiled = _compile_units(bound)
    pack, span = _key_packer(bound.variables)
    built = None
    if (previous is not None and previous.bound.variables == bound.variables
            and previous.n_states <= max_states):
        built = _reevaluate(bound, previous, compiled, pack, span)
    reevaluated = built is not None
    if not reevaluated:
        built = _explore(bound.variables, compiled, pack, span, max_states)
    states, src, dst, prob, diags = built
    space = StateSpace(bound, states, 0, *_assemble(len(states), src, dst, prob),
                       _reward_vectors(bound, states), diags)
    if reevaluated:
        space.share_pattern(previous)
        _keep_atoms(space, previous)
    sums = np.add.reduceat(space.data, space.indptr[:-1])
    if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise BuildError(
            f"row {worst} sums to {sums[worst]}, violating stochasticity")
    return space


class _Atom:
    """An atom of the state formulas checked on one space: a maximal
    subformula whose root is not '&', '|', '->' or '!'.  `type`, `error`
    and `depth` are what the model's type rules give for it alone
    (`BoundModel.typed`).  `masks` is (its value on every state, the mask
    of the states where it fails or None), evaluated when a well-typed
    formula first reads it."""
    __slots__ = ("expr", "type", "error", "depth", "masks")

    def __init__(self, expr, bound):
        self.expr = expr
        self.type, self.error, self.depth = bound.typed(expr)
        self.masks = None


def _atom(space, e):
    """The atom `e` of `space`, from its memo, keyed by the rendered text,
    which tells 1, 1.0 and true apart."""
    return space.memo.get(("atom", render_expr(e)), lambda: _Atom(e, space.bound))


def _typed(space, e, level):
    """(skeleton, type, first error, depth) of the state formula `e` at tree
    level `level`, its depth with formulas expanded.  The skeleton has an
    _Atom at each leaf and (op, operands...) above them for '!', '&', '|'
    and '->'.  The type rules of a logic operator are the model's
    (`logic_type`); the first error is the first in the order the model's
    type check finds them."""
    if isinstance(e, Binary) and e.op in LOGIC:
        operands = (e.left, e.right)
    elif isinstance(e, Unary) and e.op == "!":
        operands = (e.operand,)
    else:
        atom = _atom(space, e)
        return atom, atom.type, atom.error, level - 1 + atom.depth
    if level > MAX_EXPR_DEPTH:  # too deep, whatever lies below: stop here
        return None, None, None, level
    parts = [_typed(space, x, level + 1) for x in operands]
    t, error = logic_type(e.op, [p[1] for p in parts])
    error = next((p[2] for p in parts if p[2]), error)
    return (e.op, *(p[0] for p in parts)), t, error, max(p[3] for p in parts)


def _masks(space, node):
    """(value, failing states or None) of a skeleton from `_typed`.  '&' and
    '->' count the failing states of their right operand only where the
    left one is true, and '|' where it is false, as `compile_expr` does for
    a whole formula."""
    if isinstance(node, _Atom):
        if node.masks is None:
            with np.errstate(invalid="ignore"):  # NaN is compared as false
                node.masks = compile_expr(node.expr, space.bound).masked(
                    space.columns, space.n_states)
            for mask in node.masks:
                if mask is not None:
                    mask.flags.writeable = False
        return node.masks
    if node[0] == "!":
        value, failing = _masks(space, node[1])
        return np.logical_not(value), failing
    op, left, right = node
    l, failing = _masks(space, left)
    r, right_failing = _masks(space, right)
    if right_failing is not None:
        on = np.logical_not(l) if op == "|" else np.asarray(l, dtype=bool)
        right_failing = right_failing & on
        failing = right_failing if failing is None else failing | right_failing
    if op == "&":
        return np.logical_and(l, r), failing
    if op == "|":
        return np.logical_or(l, r), failing
    return np.logical_or(np.logical_not(l), r), failing


def _keep_atoms(space, previous):
    """Give the memo of `space`, which has the states of `previous`, each
    atom of `previous`'s memo whose mask holds on it too: the two models
    have the same formulas, and the atom reads no constant whose value, or
    whose type, differs between them."""
    old, new = previous.bound, space.bound
    if ({name: render_expr(e) for name, e in old.formulas.items()}
            != {name: render_expr(e) for name, e in new.formulas.items()}):
        return

    def value(bound, name):
        v = bound.constants.get(name)
        return type(v), v

    changed = {name for name in old.constants.keys() | new.constants.keys()
               if value(old, name) != value(new, name)}
    for key, atom in previous.memo.entries.items():
        if key[0] == "atom" and new.reads(atom.expr).isdisjoint(changed):
            space.memo.put(key, atom)


def label_states(space: StateSpace, phi: Expr) -> np.ndarray:
    """Boolean mask over state indices for a state formula, from the masks
    of its atoms, each typed and evaluated once per space.  A formula that
    the model's type rules reject is a BuildError, with the error that
    checking it whole gives; a division by zero on a state where the
    formula reads it is an EvalError that names the first such state."""
    skeleton, t, error, depth = _typed(space, phi, 1)
    if depth > MAX_EXPR_DEPTH:
        error = DEEP_EXPRESSION
    elif error is None and t != BOOL:
        error = NOT_BOOLEAN
    if error:
        raise BuildError(error)
    value, failing = _masks(space, skeleton)
    if failing is not None and failing.any():
        row = int(np.flatnonzero(failing)[0])
        raise EvalError(f"division by zero at state {space.valuation(row)}")
    return value
