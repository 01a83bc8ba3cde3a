"""Explicit-state construction of the DTMC from a bound model.

Breadth-first reachability from the declared initial valuation.  A transition
unit is either a single unlabeled command of one module, or the synchronized
product of same-labeled commands across every module that mentions the label
(probabilities multiply, assignments merge).  When m > 1 units are enabled in
a state they are resolved by uniform probabilistic choice: each unit fires
with probability 1/m.  Duplicate successors are merged by summing.

State order is canonical: BFS layers, with newly discovered successors of a
state indexed in lexicographic valuation order, so two builds of the same
bound model are identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .diagnostics import BuildError
from .model import BoundModel, Expr, eval_expr

UNIT_PROB_TOL = 1e-10
ROW_SUM_TOL = 1e-9
DEFAULT_STATE_CAP = 10_000_000


@dataclass
class BuildDiagnostics:
    deadlock_states_fixed: int = 0
    deadlock_samples: list = field(default_factory=list)
    nondeterministic_states: int = 0


@dataclass
class StateSpace:
    """Immutable once built; shareable across concurrent property checks."""
    bound: BoundModel
    var_names: tuple
    states: list              # of valuation tuples, index order
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
        return dict(zip(self.var_names, self.states[i]))

    def row(self, i):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

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


def _enabled_units(bound, valuation):
    """All enabled transition units; each is a list of enabled commands that
    fire together (singleton for unlabeled commands)."""
    units = []
    labels = {}
    for mod in bound.ast.modules:
        mod_labels = {c.label for c in mod.commands if c.label}
        for lab in mod_labels:
            labels.setdefault(lab, []).append(mod)
        for cmd in mod.commands:
            if cmd.label is None and eval_expr(cmd.guard, valuation, bound):
                units.append([cmd])
    for lab, mods in sorted(labels.items()):
        per_module = []
        for mod in mods:
            enabled = [c for c in mod.commands
                       if c.label == lab and eval_expr(c.guard, valuation, bound)]
            if not enabled:
                per_module = None
                break
            per_module.append(enabled)
        if per_module is None:
            continue
        combos = [[]]
        for choices in per_module:
            combos = [prev + [c] for prev in combos for c in choices]
        units.extend(combos)
    return units


def _unit_outcomes(bound, valuation, commands):
    """Outcome distribution of one unit: list of (prob, assignment pairs)."""
    outcomes = [(1.0, [])]
    for cmd in commands:
        step = []
        for upd in cmd.updates:
            p = 1.0 if upd.probability is None else float(
                eval_expr(upd.probability, valuation, bound))
            step.append((p, upd.assignments))
        outcomes = [(p0 * p1, a0 + list(a1)) for p0, a0 in outcomes
                    for p1, a1 in step]
    total = sum(p for p, _ in outcomes)
    if abs(total - 1.0) > UNIT_PROB_TOL:
        spans = ", ".join(str(c.span) for c in commands)
        raise BuildError(
            f"unit outcome probabilities sum to {total} (not 1) at state "
            f"{valuation} [{spans}]")
    return outcomes


def _apply(bound, valuation, assignments, cmd_spans, var_index, ranges, state):
    new = list(state)
    for name, rhs in assignments:
        v = eval_expr(rhs, valuation, bound)
        idx = var_index[name]
        low, high, is_bool = ranges[idx]
        if is_bool:
            new[idx] = bool(v)
            continue
        v = int(v)
        if not low <= v <= high:
            raise BuildError(
                f"assignment drives '{name}' to {v}, outside [{low}..{high}], "
                f"at state {valuation} [{cmd_spans}]")
        new[idx] = v
    return tuple(new)


def build_state_space(bound: BoundModel, max_states=DEFAULT_STATE_CAP) -> StateSpace:
    """Explore the reachable state space and assemble the sparse matrix.

    Deadlock states get an empty row here; see fix_deadlocks.
    """
    var_names = bound.var_names()
    var_index = {n: i for i, n in enumerate(var_names)}
    ranges = [(v.low, v.high, v.is_bool) for v in bound.variables]
    init = tuple(v.init for v in bound.variables)
    diags = BuildDiagnostics()

    index = {init: 0}
    states = [init]
    rows = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        state = states[i]
        valuation = dict(zip(var_names, state))
        units = _enabled_units(bound, valuation)
        m = len(units)
        if m == 0:
            rows[i] = {}
            continue
        if m > 1:
            diags.nondeterministic_states += 1
        dist = {}
        for unit in units:
            spans = ", ".join(str(c.span) for c in unit)
            for p, assignments in _unit_outcomes(bound, valuation, unit):
                if p == 0.0:
                    continue
                succ = _apply(bound, valuation, assignments, spans, var_index,
                              ranges, state)
                dist[succ] = dist.get(succ, 0.0) + p / m
        for succ in sorted(dist):
            if succ not in index:
                if len(states) >= max_states:
                    raise BuildError(f"state cap exceeded ({max_states})")
                index[succ] = len(states)
                states.append(succ)
                queue.append(index[succ])
        rows[i] = {index[s]: p for s, p in dist.items()}

    n = len(states)
    indptr = np.zeros(n + 1, dtype=np.int64)
    nnz = sum(len(rows[i]) for i in range(n))
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=np.float64)
    k = 0
    for i in range(n):
        for j in sorted(rows[i]):
            indices[k] = j
            data[k] = rows[i][j]
            k += 1
        indptr[i + 1] = k

    rewards = {}
    for rs in bound.ast.rewards:
        vec = np.zeros(n, dtype=np.float64)
        for i in range(n):
            valuation = dict(zip(var_names, states[i]))
            total = 0.0
            for item in rs.items:
                if eval_expr(item.guard, valuation, bound):
                    r = float(eval_expr(item.value, valuation, bound))
                    if r < 0:
                        raise BuildError(
                            f'negative reward {r} in "{rs.name}" at state {valuation}')
                    total += r
            vec[i] = total
        rewards[rs.name] = vec

    return StateSpace(bound, var_names, states, 0, indptr, indices, data,
                      rewards, diags)


def fix_deadlocks(space: StateSpace) -> StateSpace:
    """Give every deadlocked state a probability-1 self-loop. Idempotent."""
    n = space.n_states
    dead = [i for i in range(n)
            if space.indptr[i] == space.indptr[i + 1]]
    if not dead:
        return space
    extra = len(dead)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(space.indices.size + extra, dtype=np.int64)
    data = np.empty(space.data.size + extra, dtype=np.float64)
    dead_set = set(dead)
    k = 0
    for i in range(n):
        lo, hi = space.indptr[i], space.indptr[i + 1]
        if i in dead_set:
            indices[k] = i
            data[k] = 1.0
            k += 1
        else:
            count = hi - lo
            indices[k:k + count] = space.indices[lo:hi]
            data[k:k + count] = space.data[lo:hi]
            k += count
        indptr[i + 1] = k
    diags = replace(space.diagnostics)
    diags.deadlock_states_fixed = space.diagnostics.deadlock_states_fixed + extra
    diags.deadlock_samples = (space.diagnostics.deadlock_samples +
                              [space.states[i] for i in dead[:10]])
    return StateSpace(space.bound, space.var_names, space.states, space.initial,
                      indptr, indices, data, space.rewards, diags)


def build_dtmc(bound: BoundModel, max_states=DEFAULT_STATE_CAP) -> StateSpace:
    """build_state_space followed by fix_deadlocks; validates row sums."""
    space = fix_deadlocks(build_state_space(bound, max_states))
    sums = np.add.reduceat(space.data, space.indptr[:-1]) if space.data.size else np.array([])
    if space.data.size and np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise BuildError(
            f"row {worst} sums to {sums[worst]}, violating stochasticity")
    return space


def label_states(space: StateSpace, phi: Expr) -> np.ndarray:
    """Boolean mask over state indices for a boolean state expression."""
    out = np.zeros(space.n_states, dtype=bool)
    for i in range(space.n_states):
        v = eval_expr(phi, space.valuation(i), space.bound)
        if not isinstance(v, bool):
            raise BuildError(f"labeling expression is not boolean (got {v!r})")
        out[i] = v
    return out


def export_transitions(space: StateSpace) -> str:
    """Plain-text 'src dst prob' triples, one per line, for oracle checks."""
    lines = []
    for i in range(space.n_states):
        cols, probs = space.row(i)
        for j, p in zip(cols, probs):
            lines.append(f"{i} {j} {p!r}")
    return "\n".join(lines) + "\n"


def export_states(space: StateSpace) -> str:
    """State-valuation table: index then one value per variable."""
    header = "state " + " ".join(space.var_names)
    lines = [header]
    for i, s in enumerate(space.states):
        vals = " ".join(str(int(v)) if not isinstance(v, bool) else str(int(v))
                        for v in s)
        lines.append(f"{i} {vals}")
    return "\n".join(lines) + "\n"
