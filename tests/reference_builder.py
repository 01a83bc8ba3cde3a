"""A reference builder for the DTMC of a bound model, for differential tests.

It shares no code with `cassure.statespace`: a breadth-first search that
takes one state at a time, held as a tuple of Python values, and a small
interpreter over the AST.  It follows the semantics that `statespace`
documents:

* a transition unit is an unlabeled command, or one product of the
  same-labeled commands of every module that mentions the label; units are
  listed unlabeled commands first (by module and command), then by label;
* m > 1 enabled units each fire with probability 1/m; a state with none
  gets a probability-1 self-loop;
* an outcome's probability is 1.0 times each update probability, in order;
  duplicate successors are summed in the order units and outcomes list them;
* states are numbered in BFS order, the new successors of a state in
  lexicographic valuation order.

An assignment outside its variable's range raises `ReferenceBuildError`
with the message `build_dtmc` gives.  The state it names is the one the
layer-at-a-time builder meets first: the first state of the layer in the
order (unit, outcome, assignment, state).  Probabilities and guards are
assumed to be valid; the tests draw only such models.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from cassure.model import Binary, Lit, Name, Unary


class ReferenceBuildError(Exception):
    pass


class Reference(NamedTuple):
    states: list        # valuation tuples, in index order
    indptr: list
    indices: list
    data: list          # floats
    rewards: dict       # name -> list of floats
    deadlocks: int
    nondeterministic: int


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "=": operator.eq, "!=": operator.ne,
             "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def evaluate(e, valuation, constants, formulas):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Name):
        for scope in (valuation, constants):
            if e.ident in scope:
                return scope[e.ident]
        return evaluate(formulas[e.ident], valuation, constants, formulas)
    if isinstance(e, Unary):
        v = evaluate(e.operand, valuation, constants, formulas)
        return -v if e.op == "-" else not v
    left = evaluate(e.left, valuation, constants, formulas)
    if e.op == "&" and not left or e.op == "|" and left or e.op == "->" and not left:
        return e.op != "&"  # the right operand is not evaluated
    right = evaluate(e.right, valuation, constants, formulas)
    if e.op in ("&", "|", "->"):
        return bool(right)
    return OPERATORS[e.op](left, right)


def reference_build(bound):
    """The Reference of ``bound`` (a `cassure.model.BoundModel`)."""
    ast, constants = bound.ast, bound.constants
    formulas = {f.name: f.expr for f in ast.formulas}

    def ev(e, valuation=None):
        return evaluate(e, valuation or {}, constants, formulas)

    decls = ast.all_variables()
    names = [v.name for v in decls]
    ranges = {v.name: None if v.is_bool else (int(ev(v.low)), int(ev(v.high)))
              for v in decls}
    initial = tuple(bool(ev(v.init)) if v.is_bool else int(ev(v.init)) for v in decls)

    # Units: lists of (module name, command), in the documented order.
    units = [[(mod.name, cmd)] for mod in ast.modules for cmd in mod.commands
             if cmd.label is None]
    labels = sorted({cmd.label for mod in ast.modules for cmd in mod.commands
                     if cmd.label is not None})
    for label in labels:
        per_module = [[(mod.name, cmd) for cmd in mod.commands if cmd.label == label]
                      for mod in ast.modules]
        units += [list(combo) for combo in
                  itertools.product(*(cmds for cmds in per_module if cmds))]

    def transitions(state):
        """(listed (successor, probability) pairs, enabled unit count, the
        first out-of-range assignment as ((unit, outcome, assignment),
        message) or None)."""
        val = dict(zip(names, state))
        enabled = [(u, members) for u, members in enumerate(units)
                   if all(ev(cmd.guard, val) for _, cmd in members)]
        out, error = [], None
        for u, members in enabled:
            spans = ", ".join(str(cmd.span) for _, cmd in members)
            for o, updates in enumerate(itertools.product(
                    *(cmd.updates for _, cmd in members))):
                p = 1.0
                for upd in updates:
                    if upd.probability is not None:
                        p = p * float(ev(upd.probability, val))
                if p == 0.0:
                    continue
                nxt = dict(val)
                assignments = [a for upd in updates for a in upd.assignments]
                for a, (name, rhs) in enumerate(assignments):
                    v = ev(rhs, val)
                    if ranges[name] is None:
                        nxt[name] = bool(v)
                        continue
                    v = int(v)  # truncates toward zero
                    low, high = ranges[name]
                    if not low <= v <= high and error is None:
                        error = ((u, o, a), f"assignment drives '{name}' to {v}, "
                                 f"outside [{low}..{high}], at state {val} [{spans}]")
                    nxt[name] = v
                out.append((tuple(nxt[n] for n in names), p / len(enabled)))
        if not enabled:
            out.append((state, 1.0))
        return out, len(enabled), error

    index, states = {initial: 0}, [initial]
    rows, deadlocks, nondeterministic = [], 0, 0
    layer = [0]
    while layer:
        found = [(i, *transitions(states[i])) for i in layer]
        errors = [(error[0], pos, error[1]) for pos, (_, _, _, error) in enumerate(found)
                  if error is not None]
        if errors:
            raise ReferenceBuildError(min(errors)[2])
        layer = []
        for i, out, m, _ in found:
            deadlocks += m == 0
            nondeterministic += m > 1
            for succ in sorted({s for s, _ in out if s not in index}):
                index[succ] = len(states)
                states.append(succ)
                layer.append(index[succ])
            row = {}
            for succ, p in out:
                j = index[succ]
                row[j] = row.get(j, 0.0) + p
            rows.append(row)

    indptr, indices, data = [0], [], []
    for row in rows:
        for j in sorted(row):
            indices.append(j)
            data.append(row[j])
        indptr.append(len(indices))
    rewards = {}
    for rs in ast.rewards:
        vec = []
        for state in states:
            val, r = dict(zip(names, state)), 0.0
            for item in rs.items:
                if ev(item.guard, val):
                    r = r + float(ev(item.value, val))
            vec.append(r)
        rewards[rs.name] = vec
    return Reference(states, indptr, indices, data, rewards, deadlocks,
                     nondeterministic)
