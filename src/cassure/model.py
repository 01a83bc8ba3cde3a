"""Typed abstract syntax and evaluation semantics for the modeling language.

Covers the DTMC subset used by the toolkit: integer/real/boolean expressions,
named constants (possibly defined in terms of each other), macro-style
formulas, module-local variables with bounded integer or boolean ranges,
probabilistic guarded commands, state-reward structures, and the property
forms P=?/P>=b/P<=b over F, bounded F, G and U paths plus R{"name"}=? over F.

All AST values are immutable; evaluation is pure.  `compile_expr` turns a
bound expression into one numpy evaluation over many states at once, and
folds every subexpression that names no variable; constants, variable
ranges and inits are evaluated by that folding too.  The per-state
semantics it follows is written out, one state at a time, in
`tests/reference_builder.py`.  The type check and the binding of constants
follow one order of the definitions, `_dependency_order`, which also finds
the cycles among them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diagnostics import BindError, Diagnostic, EvalError, SourceSpan

INT = "int"
REAL = "real"
BOOL = "bool"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: object  # int | float | bool


@dataclass(frozen=True)
class Name(Expr):
    """Reference to a variable, constant or formula (resolved contextually)."""
    ident: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" | "!"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / = != < <= > >= & | ->
    left: Expr
    right: Expr


TRUE = Lit(True)

COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
ARITH = {"+", "-", "*", "/"}
LOGIC = {"&", "|", "->"}

# The deepest expression accepted: both its tree and its nesting of
# parentheses, '!', unary '-' and '->' have at most this many levels, and so
# has every expression of a model once its formulas are expanded.  The
# passes over an expression (parse, type check, compile, hashing) recurse
# once or twice per tree level and the parser
# three times per parenthesis (eight when operators of every precedence
# stand before it), so each stays well inside Python's default limit of
# 1000 frames.
MAX_EXPR_DEPTH = 50


def expr_depth(e, formula_depths=None):
    """The number of levels of an expression tree, counted without recursion.

    A name in ``formula_depths`` counts its level plus the depth given
    there, as passes that expand the formula recurse into its body."""
    formula_depths = formula_depths or {}
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        if isinstance(node, Unary):
            stack.append((node.operand, level + 1))
        elif isinstance(node, Binary):
            stack += ((node.left, level + 1), (node.right, level + 1))
        else:
            if isinstance(node, Name):
                level += formula_depths.get(node.ident, 0)
            deepest = max(deepest, level)
    return deepest


def _references(e):
    """The Name nodes of an expression, left to right, without recursion."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            yield node
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack += (node.right, node.left)


def _names(e, formulas=()):
    """The identifiers an expression names.  The body of a name in
    `formulas` (name -> Expr) is searched in place of the name, once per
    name."""
    pending, expanded = [e], set()
    while pending:
        for ref in _references(pending.pop()):
            if ref.ident not in formulas:
                yield ref.ident
            elif ref.ident not in expanded:
                expanded.add(ref.ident)
                pending.append(formulas[ref.ident])


def _dependency_order(defs):
    """(order, closing) for definitions `defs` (name -> Expr), found by one
    depth-first search without recursion that follows references left to
    right.  `order` lists the names, each after the names of `defs` that
    its expression refers to; `closing` holds the references (Name nodes)
    that close a cycle, where the search met a name still open."""
    order, closing, state = [], [], {}
    for root in defs:
        if root in state:
            continue
        state[root] = "open"
        stack = [(root, _references(defs[root]))]
        while stack:
            name, refs = stack[-1]
            for ref in refs:
                if ref.ident not in defs:
                    continue
                if ref.ident not in state:
                    state[ref.ident] = "open"
                    stack.append((ref.ident, _references(defs[ref.ident])))
                    break
                if state[ref.ident] == "open":
                    closing.append(ref)
            else:
                stack.pop()
                state[name] = "done"
                order.append(name)
    return order, closing


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantDecl:
    name: str
    kind: str  # "int" | "double"
    value: Expr | None  # None when undefined: an override must give it
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class FormulaDecl:
    name: str
    expr: Expr
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class VarDecl:
    name: str
    low: Expr | None   # None for booleans
    high: Expr | None
    init: Expr
    is_bool: bool = False
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Update:
    probability: Expr | None  # None means probability 1
    assignments: tuple  # of (var name, Expr)


@dataclass(frozen=True)
class Command:
    label: str | None
    guard: Expr
    updates: tuple  # of Update
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    variables: tuple  # of VarDecl
    commands: tuple   # of Command
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class RewardItem:
    guard: Expr
    value: Expr
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class RewardStructureDecl:
    name: str
    items: tuple  # of RewardItem
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ModelAst:
    constants: tuple   # of ConstantDecl
    formulas: tuple    # of FormulaDecl
    modules: tuple     # of ModuleDecl
    rewards: tuple     # of RewardStructureDecl
    source: str = field(default="", compare=False)

    def all_variables(self):
        """Variable declarations across modules, in declaration order."""
        out = []
        for m in self.modules:
            out.extend(m.variables)
        return out


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PathFormula:
    kind: str            # "F" | "F<=" | "G" | "U"
    target: Expr         # psi (or the G body)
    constraint: Expr | None = None  # phi for U
    bound: int | None = None        # k for bounded F


@dataclass(frozen=True)
class PropertySpec:
    name: str
    kind: str            # "P_query" | "P_bound" | "R_query"
    path: PathFormula
    bound_op: str | None = None   # ">=" | "<=" for P_bound
    bound: float | None = None
    reward: str | None = None     # reward structure name for R_query
    source_text: str = field(default="", compare=False)
    span: SourceSpan | None = field(default=None, compare=False)


# --------------------------------------------------------------------------
# Type checking
# --------------------------------------------------------------------------

def _join_numeric(a, b):
    return INT if a == INT and b == INT else REAL


class _TypeChecker:
    def __init__(self, model: ModelAst):
        self.model = model
        self.diags = []
        self.consts = {c.name: c for c in model.constants}
        self.formulas = {f.name: f for f in model.formulas}
        self.vars = {v.name: v for v in model.all_variables()}
        # name -> depth with formulas expanded; inf once reported too deep
        self.depths = {}
        self.formula_types = {}  # name -> type, or None once reported
        self.bodies = {}  # name -> Expr of each formula that a reference may name

    def error(self, msg, span=None):
        self.diags.append(Diagnostic("error", msg, span))

    def run(self):
        self._check_duplicates()
        self._check_formulas()
        for c in self.model.constants:
            if c.value is not None:
                self._check_constant(c.value, c.span, f"value of constant '{c.name}'")
        for m in self.model.modules:
            declared = {v.name for v in m.variables}
            for v in m.variables:
                self._check_vardecl(v)
            for cmd in m.commands:
                self._check_command(cmd, declared)
        for rs in self.model.rewards:
            for item in rs.items:
                if self.infer(item.guard, item.span) not in (BOOL, None):
                    self.error(f'reward guard in "{rs.name}" is not boolean', item.span)
                t = self.infer(item.value, item.span)
                if t not in (INT, REAL, None):
                    self.error(f'reward value in "{rs.name}" is not numeric', item.span)
        return self.diags

    def _check_duplicates(self):
        seen = {}
        for group in (self.model.constants, self.model.formulas,
                      self.model.all_variables(), self.model.modules):
            for d in group:
                if d.name in seen:
                    self.error(f"duplicate identifier '{d.name}'", d.span)
                seen[d.name] = d

    def _check_vardecl(self, v):
        if v.is_bool:
            t = self._check_constant(v.init, v.span, f"init of '{v.name}'")
            if t not in (BOOL, None):
                self.error(f"init of boolean variable '{v.name}' is not boolean", v.span)
            return
        for e, what in ((v.low, "lower bound"), (v.high, "upper bound"), (v.init, "init")):
            if self._check_constant(e, v.span, f"{what} of '{v.name}'") not in (INT, None):
                self.error(f"{what} of '{v.name}' is not an integer expression", v.span)

    def _check_constant(self, e, span, what):
        """Type of `e`, which must not name a variable, not even through
        formulas; None if a diagnostic was emitted."""
        t = self.infer(e, span)
        named = next((n for n in _names(e, self.bodies) if n in self.vars), None)
        if named is not None:
            self.error(f"{what} refers to variable '{named}'; it must be constant", span)
            return None
        return t

    def _check_command(self, cmd, declared):
        if self.infer(cmd.guard, cmd.span) not in (BOOL, None):
            self.error("command guard is not boolean", cmd.span)
        for upd in cmd.updates:
            if upd.probability is not None:
                if self.infer(upd.probability, cmd.span) not in (INT, REAL, None):
                    self.error("update probability is not numeric", cmd.span)
            for name, rhs in upd.assignments:
                var = self.vars.get(name)
                if var is None or name not in declared:
                    self.error(
                        f"assignment target '{name}' is not a variable of this module",
                        cmd.span)
                    continue
                t = self.infer(rhs, cmd.span)
                if t is None:
                    continue
                if var.is_bool and t != BOOL:
                    self.error(f"assignment to boolean '{name}' is not boolean", cmd.span)
                if not var.is_bool and t not in (INT, REAL):
                    self.error(f"assignment to '{name}' is not numeric", cmd.span)

    def _check_formulas(self):
        """Depth, cycles and type of each formula, in dependency order.  A
        formula deeper than MAX_EXPR_DEPTH with its formulas expanded is
        reported where the chain crosses the limit, and is left untyped, as
        is any formula or expression that names it.  A reference that closes
        a cycle is reported unless its formula is already too deep."""
        # A name that is also a variable or a constant means that one, as in
        # _infer: nothing refers to a formula of that name, so it comes last
        # and its depth is not recorded.
        hidden = [name for name in self.formulas if name in self.vars or name in self.consts]
        self.bodies = {name: f.expr for name, f in self.formulas.items()
                       if name not in hidden}
        order, closing = _dependency_order(self.bodies)
        order += hidden
        too_deep = set()
        for name in order:
            f = self.formulas[name]
            depth = expr_depth(f.expr, self.depths)
            if depth > MAX_EXPR_DEPTH:
                if depth != math.inf:
                    self.error(f"formula '{name}' is deeper than {MAX_EXPR_DEPTH} "
                               "levels with formulas expanded", f.span)
                too_deep.add(name)
                depth = math.inf
            if name not in hidden:
                self.depths[name] = depth
        for ref in closing:
            if ref.ident not in too_deep:
                self.error(f"recursive formula '{ref.ident}'", ref.span)
        for name in order:
            if name not in too_deep:
                f = self.formulas[name]
                self.formula_types[name] = self._infer(f.expr, f.span)

    def infer(self, e, span):
        """Type of a whole expression, or None if a diagnostic was already
        emitted.  The expression may be at most MAX_EXPR_DEPTH deep with its
        formulas expanded."""
        depth = expr_depth(e, self.depths)
        if depth > MAX_EXPR_DEPTH:
            if depth != math.inf:
                self.error(f"expression deeper than {MAX_EXPR_DEPTH} levels "
                           "with formulas expanded", span)
            return None
        return self._infer(e, span)

    def _infer(self, e, span):
        if isinstance(e, Lit):
            if isinstance(e.value, bool):
                return BOOL
            return INT if isinstance(e.value, int) else REAL
        if isinstance(e, Name):
            if e.ident in self.vars:
                return BOOL if self.vars[e.ident].is_bool else INT
            if e.ident in self.consts:
                return INT if self.consts[e.ident].kind == "int" else REAL
            if e.ident in self.formulas:
                return self.formula_types.get(e.ident)
            self.error(f"unknown identifier '{e.ident}'", e.span)
            return None
        if isinstance(e, Unary):
            t = self._infer(e.operand, span)
            if t is None:
                return None
            if e.op == "-":
                if t not in (INT, REAL):
                    self.error("operand of unary '-' is not numeric", span)
                    return None
                return t
            if t != BOOL:
                self.error("operand of '!' is not boolean", span)
                return None
            return BOOL
        if isinstance(e, Binary):
            lt = self._infer(e.left, span)
            rt = self._infer(e.right, span)
            if lt is None or rt is None:
                return None
            if e.op in ARITH:
                if lt == BOOL or rt == BOOL:
                    self.error(f"operands of '{e.op}' are not numeric", span)
                    return None
                return REAL if e.op == "/" else _join_numeric(lt, rt)
            if e.op in ("=", "!="):
                if (lt == BOOL) != (rt == BOOL):
                    self.error(f"operands of '{e.op}' have incompatible types", span)
                    return None
                return BOOL
            if e.op in COMPARISONS:
                if lt == BOOL or rt == BOOL:
                    self.error(f"operands of '{e.op}' are not numeric", span)
                    return None
                return BOOL
            if e.op in LOGIC:
                if lt != BOOL or rt != BOOL:
                    self.error(f"operands of '{e.op}' are not boolean", span)
                    return None
                return BOOL
        raise TypeError(f"not an expression: {e!r}")


def type_check(model: ModelAst):
    """Check the model; returns a list of diagnostics (empty when clean)."""
    return _TypeChecker(model).run()


# --------------------------------------------------------------------------
# Constant binding
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VarInfo:
    name: str
    low: int | None
    high: int | None
    init: object
    is_bool: bool


@dataclass(frozen=True)
class BoundModel:
    """A type-checked model with every constant resolved to a value."""
    ast: ModelAst
    constants: dict        # name -> int | float
    formulas: dict         # name -> Expr
    variables: tuple       # of VarInfo, declaration order


# How far an update probability may lie outside [0, 1], and the
# probabilities of a command (or a synchronized unit) from summing to 1.
PROB_TOL = 1e-10


def bind_constants(model: ModelAst, overrides=None) -> BoundModel:
    """Resolve all constants, applying overrides, and evaluate derived ones.

    Overrides replace a constant's defining expression; derived constants are
    then re-evaluated, so overriding e.g. one branch probability flows into
    constants defined in terms of it.  Constants are evaluated in dependency
    order; a cycle among constants and formulas is a BindError, and so is an
    undefined constant (``const int N;``) that no override gives a value.
    """
    decls = {c.name: c for c in model.constants}
    defs = {name: decl.value for name, decl in decls.items()}
    for name, value in (overrides or {}).items():
        decl = decls.get(name)
        if decl is None:
            raise BindError(f"unknown constant '{name}'")
        if decl.kind == "int" and (isinstance(value, bool)
                                   or not float(value).is_integer()):
            raise BindError(f"constant '{name}' is int but override is {value!r}")
        # An overridden constant depends on nothing.
        defs[name] = Lit(int(value) if decl.kind == "int" else float(value))
    for name, e in defs.items():
        if e is None:
            raise BindError(f"undefined constant '{name}': no override gives it a value")

    formulas = {f.name: f.expr for f in model.formulas}
    # A constant hides a formula of the same name, as in _compile.
    defs.update((name, e) for name, e in formulas.items() if name not in defs)
    order, closing = _dependency_order(defs)
    if closing:
        name = closing[0].ident
        raise BindError(f"cyclic constant definition involving '{name}'"
                        if name in decls else f"recursive formula '{name}'")
    # The formulas that constants reach are evaluated in this order too, so
    # that no evaluation expands a formula.
    reached = set()
    for name in reversed(order):
        if name in decls or name in reached:
            reached.update(ref.ident for ref in _references(defs[name])
                           if ref.ident in defs and ref.ident not in decls)
    values, known = {}, {}  # constants; constants and reached formulas
    scope = BoundModel(model, known, formulas, ())
    for name in order:
        if name not in decls:
            if name in reached:
                known[name] = _constant(defs[name], scope)
            continue
        v = _constant(defs[name], scope)
        if decls[name].kind != "int":
            v = float(v)
        elif isinstance(v, float):
            if not v.is_integer():
                raise BindError(f"constant '{name}' is int but evaluates to {v}")
            v = int(v)
        values[name] = known[name] = v

    variables = []
    env = BoundModel(model, values, formulas, ())
    for v in model.all_variables():
        if v.is_bool:
            init = _constant(v.init, env)
            variables.append(VarInfo(v.name, None, None, bool(init), True))
            continue
        low = int(_constant(v.low, env))
        high = int(_constant(v.high, env))
        init = int(_constant(v.init, env))
        if low > high:
            raise BindError(f"variable '{v.name}' has empty range [{low}..{high}]")
        if not low <= init <= high:
            raise BindError(f"init of '{v.name}' ({init}) outside [{low}..{high}]")
        variables.append(VarInfo(v.name, low, high, init, False))

    bound = BoundModel(model, values, formulas, tuple(variables))
    _check_closed_probabilities(bound)
    return bound


def _check_closed_probabilities(bound):
    """Validate the update probabilities of a command up to the first one
    that reads a state variable, with formulas expanded; their sum too if
    none does."""
    variables = {v.name for v in bound.variables}
    for mod in bound.ast.modules:
        for cmd in mod.commands:
            probs = []
            for upd in cmd.updates:
                if upd.probability is None:
                    probs.append(1.0)
                    continue
                if not variables.isdisjoint(_names(upd.probability, bound.formulas)):
                    break
                p = float(_constant(upd.probability, bound))
                if not -PROB_TOL <= p <= 1 + PROB_TOL:
                    raise BindError(
                        f"update probability {p} outside [0,1] in module "
                        f"'{mod.name}' ({cmd.span})")
                probs.append(p)
            else:
                if abs(sum(probs) - 1.0) > PROB_TOL:
                    raise BindError(
                        f"update probabilities sum to {sum(probs)} (not 1) in "
                        f"module '{mod.name}' ({cmd.span})")


# --------------------------------------------------------------------------
# Compiled evaluation over state columns
# --------------------------------------------------------------------------

def _quotient(l, r):
    """l / r, real-valued, for two folded values."""
    if r == 0:
        raise EvalError("division by zero")
    return l / r


# The binary operators other than &, | and ->, on Python numbers and, but for
# `/` (see _divide), on the numpy arrays of a compiled evaluation.
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _quotient,
        "=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def compile_expr(e: Expr, env: BoundModel):
    """Compile an expression once into a vectorized evaluator.

    The evaluator is called as ``f(cols, n)``.  `cols` holds one length-n
    column per variable of `env`, in declaration order, with booleans as
    bool arrays; the result is the length-n array of the expression's value
    in each row.  Constants and formulas are folded in here.  `&`, `|` and
    `->` evaluate their right operand only on the rows where the left one
    does not decide the result, so a division by zero counts only there; the
    EvalError it raises has `row` set to the first row where it counts.
    Integers are int64 unless some integer subexpression can leave
    [-2**53, 2**53] over the variable ranges, where int64 arithmetic would
    wrap and comparisons with floats would round; such an expression is
    evaluated on Python ints, in object arrays, and its numeric result is an
    object array.  The walk that compiles the expression also finds each
    subexpression's interval, by interval arithmetic over the variable
    ranges and the constants.

    ``evaluate.folded`` is the expression's value when it folded to a
    constant, so that a caller may use it without evaluating; else None.
    """
    slots = {v.name: (j, None if v.is_bool else (v.low, v.high))
             for j, v in enumerate(env.variables)}
    wide = []
    node = _compile(e, env, slots, wide)
    exact = bool(wide)

    def evaluate(cols, n):
        if exact:
            cols = tuple(c if c.dtype == bool else c.astype(object) for c in cols)
        errors = []
        value = node.fn(cols, None, errors) if node.fn else node.value
        if errors:
            bad = np.zeros(n, dtype=bool)
            for rows in errors:
                bad |= True if rows is None else rows
            failing = np.flatnonzero(bad)
            if failing.size:
                raise EvalError("division by zero", row=int(failing[0]))
        return value if isinstance(value, np.ndarray) else np.full(n, value)

    evaluate.folded = node.value if node.fn is None else None
    return evaluate


def _constant(e, env):
    """The value of `e`, which names constants and formulas of `env` but no
    variable.  `_compile` folds such an expression completely unless it
    divides by zero."""
    node = _compile(e, env, {}, [])
    if node.fn is not None:
        raise EvalError("division by zero")
    return node.value


class _Node(NamedTuple):
    """A compiled subexpression: either a folded `value` (fn is None) or
    fn(cols, live, errors), where `live` masks the rows on which the
    per-state semantics (tests/reference_builder.py) evaluates this node
    (None: every row) and failing rows are appended to `errors`.  `raises`
    says whether fn can append anything.  `bounds` is the (low, high)
    interval of an integer subexpression, else None."""
    value: object = None
    fn: object = None
    raises: bool = False
    bounds: tuple | None = None

    def call(self):
        if self.fn is not None:
            return self.fn
        value = self.value
        return lambda cols, live, errors: value


_EXACT_INT = 2 ** 53


def _point(value):
    """The interval of a folded value: (value, value) for an int, else None."""
    return None if isinstance(value, bool) or not isinstance(value, int) else (value, value)


def _arithmetic_bounds(op, l, r):
    """The interval of `l op r` from the operands' intervals; None unless
    both are integers and `op` is +, - or *."""
    if l is None or r is None:
        return None
    if op == "+":
        return l[0] + r[0], l[1] + r[1]
    if op == "-":
        return l[0] - r[1], l[1] - r[0]
    if op == "*":
        corners = [x * y for x in l for y in r]
        return min(corners), max(corners)
    return None


def _fold(op, l, r, bounds):
    try:
        return _Node(_OPS[op](l, r), bounds=bounds)
    except EvalError:  # a constant division by zero fails every live row
        def fail(cols, live, errors):
            errors.append(live)
            return np.nan
        return _Node(fn=fail, raises=True)


def _compile(e, env, slots, wide):
    """The node of `e`; `e` is appended to `wide` if its interval leaves
    [-2**53, 2**53].  `slots` maps each variable to its column and range."""
    node = _compile_node(e, env, slots, wide)
    if node.bounds is not None and max(-node.bounds[0], node.bounds[1]) > _EXACT_INT:
        wide.append(e)
    return node


def _compile_node(e, env, slots, wide):
    if isinstance(e, Lit):
        return _Node(e.value, bounds=_point(e.value))
    if isinstance(e, Name):
        if e.ident in slots:
            j, bounds = slots[e.ident]
            return _Node(fn=lambda cols, live, errors: cols[j], bounds=bounds)
        if e.ident in env.constants:
            value = env.constants[e.ident]
            return _Node(value, bounds=_point(value))
        if e.ident in env.formulas:
            return _compile(env.formulas[e.ident], env, slots, wide)
        raise EvalError(f"unbound identifier '{e.ident}'")
    if isinstance(e, Unary):
        arg = _compile(e.operand, env, slots, wide)
        bounds = (-arg.bounds[1], -arg.bounds[0]) if arg.bounds and e.op == "-" else None
        if arg.fn is None:
            return _Node(-arg.value if e.op == "-" else not arg.value, bounds=bounds)
        ufunc, f = (np.negative if e.op == "-" else np.logical_not), arg.fn
        return _Node(fn=lambda cols, live, errors: ufunc(f(cols, live, errors)),
                     raises=arg.raises, bounds=bounds)
    if isinstance(e, Binary):
        left = _compile(e.left, env, slots, wide)
        right = _compile(e.right, env, slots, wide)
        if e.op in LOGIC:
            return _logic(e.op, left, right)
        bounds = _arithmetic_bounds(e.op, left.bounds, right.bounds)
        if left.fn is None and right.fn is None:
            return _fold(e.op, left.value, right.value, bounds)
        if e.op == "/":
            return _divide(left, right)
        lf, rf = left.call(), right.call()
        op = _OPS[e.op]
        return _Node(fn=lambda cols, live, errors: op(lf(cols, live, errors),
                                                      rf(cols, live, errors)),
                     raises=left.raises or right.raises, bounds=bounds)
    raise TypeError(f"not an expression: {e!r}")


def _divide(left, right):
    lf, rf = left.call(), right.call()
    if right.fn is None and right.value != 0:
        den = right.value
        return _Node(fn=lambda cols, live, errors: np.true_divide(
            lf(cols, live, errors), den), raises=left.raises)

    def divide(cols, live, errors):
        num, den = lf(cols, live, errors), rf(cols, live, errors)
        zero = np.equal(den, 0)
        if np.any(zero):
            # Python ints in object arrays raise on a zero divisor; the
            # quotient on those rows is never read.
            den = np.where(zero, 1, den)
            if live is not None:
                zero = zero & live
            if np.any(zero):
                errors.append(None if np.ndim(zero) == 0 else zero)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.true_divide(num, den)

    return _Node(fn=divide, raises=True)


def _as_bool(node):
    f = node.fn
    return _Node(fn=lambda cols, live, errors: np.asarray(f(cols, live, errors),
                                                          dtype=bool),
                 raises=node.raises)


def _logic(op, left, right):
    if left.fn is None:  # a folded left operand short-circuits for every row
        if bool(left.value) == (op == "|"):
            return _Node(op != "&")
        return _Node(bool(right.value)) if right.fn is None else _as_bool(right)
    lf, rf = left.fn, right.call()
    guarded = right.raises

    def logic(cols, live, errors):
        l = lf(cols, live, errors)
        if guarded:
            # The right operand runs where the left is true (& and ->) or
            # false (|).
            on = np.logical_not(l) if op == "|" else np.asarray(l, dtype=bool)
            r = rf(cols, on if live is None else live & on, errors)
        else:
            r = rf(cols, live, errors)
        if op == "&":
            return np.logical_and(l, r)
        if op == "|":
            return np.logical_or(l, r)
        return np.logical_or(np.logical_not(l), r)

    return _Node(fn=logic, raises=left.raises or right.raises)
