"""Text parsers for `.prism`-style models and `.props`-style property files.

The tokenizer is one compiled pattern that skips whitespace and comments
inside each match; a token keeps its start offset, and its line and column
are looked up in the text's newline offsets only when its span is read.
Declarations and properties are parsed by recursive descent.  Expressions
are parsed by precedence climbing over one table, `_PREC`, from '->'
(loosest, right-associative) through '|', '&', the non-associative
comparisons, '+ -' and '* /'; the prefix '!' takes a comparison and unary
'-' an atom.  Every diagnostic names its `file:line:col`.  A pretty-printer
writes text that re-parses to a structurally identical AST.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right

from .diagnostics import Diagnostic, ParseError, SourceSpan
from .model import (
    COMPARISONS, MAX_EXPR_DEPTH, Binary, Command, ConstantDecl, Expr,
    FormulaDecl, Lit, ModelAst, ModuleDecl, Name, PathFormula, PropertySpec,
    RewardItem, RewardStructureDecl, Unary, Update, VarDecl, expr_depth,
)

KEYWORDS = {
    "dtmc", "const", "int", "double", "bool", "formula", "module", "endmodule",
    "rewards", "endrewards", "init", "true", "false",
}

# Recognized upstream constructs outside our subset; reported explicitly.
UNSUPPORTED = {
    "mdp", "ctmc", "pta", "nondeterministic", "stochastic", "probabilistic",
    "label", "system", "endsystem", "global", "player", "endplayer",
    "observables", "endinit", "invariant",
}

_PREC = {
    "->": 1, "|": 2, "&": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6,
}
_TIGHTEST = max(_PREC.values())
# Per binary operator: its precedence, its right operand's, and the ceiling
# for the operators after it.  '->' is right-associative: its right operand
# starts over at its own level, which nests.  A comparison is
# non-associative: no comparison may follow it.
_BINARY = {op: (p, p, p - 1) if op == "->" else
           (p, p + 1, p - 1 if op in COMPARISONS else p)
           for op, p in _PREC.items()}
# Per prefix operator: the level of its operand, which is also the tightest
# level it may stand at.  '!' takes a comparison, so it binds looser than
# one and is no operand of a comparison or of arithmetic; unary '-' takes an
# atom or another '-'.
_PREFIX = {"!": _PREC["="], "-": _TIGHTEST + 1}


# One match per token: whitespace and comments are skipped inside the match,
# ahead of the token's own group.  The empty `eof` group always matches, so a
# match never fails and never backs off into the skipped text; it marks the
# end of the text, or a character that starts no token.
_TOKEN_RE = re.compile(r"""(?:\s+|//[^\n]*)*(?:
    (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|->|\.\.|=\?|[-+*/=<>!&|()\[\]{}:;,'?])
  | (?P<real>(?:\d+\.\d+|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<eof>)
)""", re.VERBOSE)
_KINDS = {index: kind for kind, index in _TOKEN_RE.groupindex.items()}


class _Source:
    """A text's file name and newline offsets, to place an offset."""
    __slots__ = ("file", "newlines")

    def __init__(self, text, file):
        self.file = file
        self.newlines = [m.start() for m in re.finditer("\n", text)]

    def span(self, pos, length=1):
        line = bisect_right(self.newlines, pos)
        column = pos - self.newlines[line - 1] if line else pos + 1
        return SourceSpan(self.file, line + 1, column, length)


class Token:
    __slots__ = ("kind", "text", "pos", "source")

    def __init__(self, kind, text, pos, source):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.source = source

    @property
    def span(self):
        return self.source.span(self.pos, len(self.text))

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text, file="<string>"):
    """The tokens of ``text``, ending with one ``eof`` token.  Each keeps its
    start offset; its line and column are found only when its span is read."""
    source = _Source(text, file)
    # Successive anchored matches; the scan ends after the first `eof` match,
    # or after a second, empty one when the first skipped some text.
    tokens = [Token(_KINDS[m.lastindex], m[m.lastindex], m.start(m.lastindex), source)
              for m in iter(_TOKEN_RE.scanner(text).match, None)]
    if len(tokens) > 1 and tokens[-2].kind == "eof":
        tokens.pop()
    end = tokens[-1].pos
    if end < len(text):
        raise ParseError([Diagnostic("error", f"unexpected character {text[end]!r}",
                                     source.span(end))])
    return tokens


class _Parser:
    """Common token-stream machinery for both grammars."""

    def __init__(self, text, file):
        self.tokens = tokenize(text, file)
        self.i = 0
        self.diags = []
        self.nesting = 0

    @property
    def tok(self):
        return self.tokens[self.i]

    def peek(self, ahead=1):
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self):
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text):
        # A keyword or operator: no other kind of token has such a text.
        return self.tokens[self.i].text == text

    def accept(self, text):
        if self.tokens[self.i].text == text:
            return self.advance()
        return None

    def fail(self, message, span=None):
        self.diags.append(Diagnostic("error", message, span or self.tok.span))
        raise ParseError(self.diags)

    def expect(self, text, what=None):
        if not self.at(text):
            self.fail(f"expected {what or text!r}, found {self.tok.text!r}")
        return self.advance()

    def real(self):
        """The float value of the current number token, which is consumed;
        a literal beyond the float range is an error."""
        t = self.advance()
        v = float(t.text)
        if math.isinf(v):
            self.fail(f"number {t.text!r} is out of range", t.span)
        return v

    def expect_ident(self, what="identifier"):
        t = self.tok
        if t.kind != "ident" or t.text in KEYWORDS or t.text in UNSUPPORTED:
            self.fail(f"expected {what}, found {t.text!r}")
        return self.advance()

    # ---- expression grammar (shared by models and properties) ----

    def parse_expr(self, min_prec=1):
        """An expression of operators binding at least as tightly as
        `min_prec` (default: the whole grammar), at most MAX_EXPR_DEPTH
        deep."""
        start = self.i
        e = self._expr(min_prec)
        # A tree of depth d spans at least d tokens.
        if self.i - start > MAX_EXPR_DEPTH and expr_depth(e) > MAX_EXPR_DEPTH:
            self.fail(f"expression deeper than {MAX_EXPR_DEPTH} levels",
                      self.tokens[start].span)
        return e

    def _nested(self, min_prec):
        """_expr(min_prec), one level deeper in the parser's recursion."""
        if self.nesting == MAX_EXPR_DEPTH:
            self.fail(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        self.nesting += 1
        e = self._expr(min_prec)
        self.nesting -= 1
        return e

    def _expr(self, min_prec):
        """Precedence climbing over _BINARY: a prefix operator or an atom,
        then every binary operator in [min_prec, ceiling], where the ceiling
        is lowered by what came before to keep the associativity."""
        op = self.tokens[self.i].text
        prec = _PREFIX.get(op)
        if prec is not None and min_prec <= prec:
            self.i += 1
            left = Unary(op, self._nested(prec))
            ceiling = prec - 1
        else:
            left = self._atom()
            ceiling = _TIGHTEST
        while True:
            op = self.tokens[self.i].text
            rule = _BINARY.get(op)
            if rule is None or not min_prec <= rule[0] <= ceiling:
                return left
            self.i += 1
            prec, right_prec, ceiling = rule
            right = (self._nested(right_prec) if right_prec == prec
                     else self._expr(right_prec))
            left = Binary(op, left, right)

    def _atom(self):
        t = self.tokens[self.i]
        if t.kind == "ident":
            if t.text == "true":
                self.i += 1
                return Lit(True)
            if t.text == "false":
                self.i += 1
                return Lit(False)
            if t.text in UNSUPPORTED:
                self.fail(f"unsupported construct '{t.text}'")
            if t.text in KEYWORDS:
                self.fail(f"unexpected keyword '{t.text}' in expression")
            self.i += 1
            return Name(t.text, t.span)
        if t.kind == "int":
            self.i += 1
            return Lit(int(t.text))
        if t.kind == "real":
            return Lit(self.real())
        if self.accept("("):
            e = self._nested(1)
            self.expect(")")
            return e
        self.fail(f"expected expression, found {t.text!r}")


# --------------------------------------------------------------------------
# Model parser
# --------------------------------------------------------------------------

class _ModelParser(_Parser):
    def parse(self):
        if self.tok.kind == "eof":
            self.fail("expected model type header 'dtmc'")
        if self.tok.text in UNSUPPORTED:
            self.fail(f"unsupported model type '{self.tok.text}' (only dtmc)")
        self.expect("dtmc", "model type header 'dtmc'")
        constants, formulas, modules, rewards = [], [], [], []
        while self.tok.kind != "eof":
            if self.at("const"):
                constants.append(self._const())
            elif self.at("formula"):
                formulas.append(self._formula())
            elif self.at("module"):
                modules.append(self._module())
            elif self.at("rewards"):
                rewards.append(self._rewards())
            elif self.tok.text in UNSUPPORTED:
                self.fail(f"unsupported construct '{self.tok.text}'")
            else:
                self.fail(f"expected declaration, found {self.tok.text!r}")
        ast = ModelAst(tuple(constants), tuple(formulas), tuple(modules),
                       tuple(rewards))
        self._validate(ast)
        return ast

    def _const(self):
        span = self.expect("const").span
        if self.at("int"):
            kind = "int"
        elif self.at("double"):
            kind = "double"
        elif self.at("bool"):
            self.fail("unsupported construct 'const bool'")
        else:
            self.fail("expected 'int' or 'double' after 'const'")
        self.advance()
        name = self.expect_ident("constant name").text
        value = None
        if not self.at(";"):
            self.expect("=")
            value = self.parse_expr()
        self.expect(";")
        return ConstantDecl(name, kind, value, span)

    def _formula(self):
        span = self.expect("formula").span
        name = self.expect_ident("formula name").text
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return FormulaDecl(name, expr, span)

    def _module(self):
        span = self.expect("module").span
        name = self.expect_ident("module name").text
        variables, commands = [], []
        while not self.at("endmodule"):
            if self.tok.kind == "eof":
                self.fail(f"unterminated module '{name}' (missing endmodule)")
            if self.at("["):
                commands.append(self._command())
            else:
                variables.append(self._vardecl())
        self.advance()
        return ModuleDecl(name, tuple(variables), tuple(commands), span)

    def _vardecl(self):
        name_tok = self.expect_ident("variable name")
        self.expect(":")
        if self.accept("bool"):
            low = high = None
            is_bool = True
        else:
            self.expect("[")
            low = self.parse_expr()
            self.expect("..")
            high = self.parse_expr()
            self.expect("]")
            is_bool = False
        self.expect("init")
        init = self.parse_expr()
        self.expect(";")
        return VarDecl(name_tok.text, low, high, init, is_bool, name_tok.span)

    def _command(self):
        span = self.expect("[").span
        label = None
        if not self.at("]"):
            label = self.expect_ident("action label").text
        self.expect("]")
        # Guards stop below the implication level so the command arrow is
        # unambiguous; a parenthesized implication is still fine.
        guard = self.parse_expr(_PREC["|"])
        self.expect("->")
        updates = [self._update()]
        while self.accept("+"):
            updates.append(self._update())
        self.expect(";")
        return Command(label, guard, tuple(updates), span)

    def _is_assignment_start(self):
        # "(" IDENT "'" marks a primed assignment rather than an expression.
        return (self.at("(") and self.peek(1).kind == "ident"
                and self.peek(2).text == "'")

    def _update(self):
        if self._is_assignment_start():
            return Update(None, self._assignments())
        prob = self.parse_expr()
        self.expect(":", "':' after update probability")
        return Update(prob, self._assignments())

    def _assignments(self):
        pairs = [self._assignment()]
        while self.accept("&"):
            pairs.append(self._assignment())
        return tuple(pairs)

    def _assignment(self):
        self.expect("(")
        name = self.expect_ident("variable name").text
        self.expect("'")
        self.expect("=")
        rhs = self.parse_expr()
        self.expect(")")
        return (name, rhs)

    def _rewards(self):
        span = self.expect("rewards").span
        if self.tok.kind != "string":
            self.fail("expected reward structure name string")
        name = _unquote(self.advance().text)
        items = []
        while not self.at("endrewards"):
            if self.tok.kind == "eof":
                self.fail(f'unterminated rewards "{name}" (missing endrewards)')
            if self.at("["):
                self.fail("unsupported construct: transition rewards")
            item_span = self.tok.span
            guard = self.parse_expr()
            self.expect(":")
            value = self.parse_expr()
            self.expect(";")
            items.append(RewardItem(guard, value, item_span))
        self.advance()
        return RewardStructureDecl(name, tuple(items), span)

    def _validate(self, ast):
        declared = {v.name for v in ast.all_variables()}
        for mod in ast.modules:
            local = {v.name for v in mod.variables}
            for cmd in mod.commands:
                for upd in cmd.updates:
                    for name, _ in upd.assignments:
                        if name not in declared:
                            self.fail(
                                f"update references undeclared variable '{name}'",
                                cmd.span)
                        if name not in local:
                            self.fail(
                                f"update assigns '{name}', which is not local to "
                                f"module '{mod.name}'", cmd.span)


def parse_model(text: str, file="<string>") -> ModelAst:
    """Parse a model file; raises ParseError with located diagnostics."""
    ast = _ModelParser(text, file).parse()
    return ModelAst(ast.constants, ast.formulas, ast.modules, ast.rewards,
                    source=text)


# --------------------------------------------------------------------------
# Property parser
# --------------------------------------------------------------------------

class _PropertyParser(_Parser):
    def parse(self):
        props = []
        counter = 0
        while self.tok.kind != "eof":
            start = self.tok.span
            name = None
            if self.tok.kind == "string" and self.peek(1).text == ":":
                name = _unquote(self.advance().text)
                self.advance()
            if name is None:
                counter += 1
                name = f"prop{counter}"
            start_i = self.i
            fields = self._property()
            source = " ".join([t.text for t in self.tokens[start_i:self.i]])
            props.append(PropertySpec(name, **fields, source_text=source, span=start))
            self.accept(";")  # optional terminator, kept out of source_text
        seen = set()
        for p in props:
            if p.name in seen:
                self.fail(f"duplicate property name '{p.name}'", p.span)
            seen.add(p.name)
        return props

    def _property(self):
        """The PropertySpec fields of one property other than its name."""
        if self.accept("P"):
            if self.accept("=?"):
                return dict(kind="P_query", path=self._path())
            for op in ("<=", ">="):
                if self.accept(op):
                    bound = self._number()
                    if not 0.0 <= bound <= 1.0:
                        self.fail(f"probability bound {bound} outside [0,1]")
                    return dict(kind="P_bound", path=self._path(), bound_op=op,
                                bound=bound)
            self.fail("expected '=?', '>=' or '<=' after 'P'")
        if self.accept("R"):
            self.expect("{")
            if self.tok.kind != "string":
                self.fail("expected reward structure name string")
            reward = _unquote(self.advance().text)
            self.expect("}")
            self.expect("=?")
            self.expect("[")
            self.expect("F", "'F' (reward queries pair with an F target)")
            target = self.parse_expr()
            self.expect("]")
            return dict(kind="R_query", path=PathFormula("F", target), reward=reward)
        self.fail(f"expected 'P' or 'R' property, found {self.tok.text!r}")

    def _number(self):
        neg = bool(self.accept("-"))
        t = self.tok
        if t.kind not in ("int", "real"):
            self.fail(f"expected number, found {t.text!r}")
        v = self.real()
        return -v if neg else v

    def _path(self):
        self.expect("[")
        if self.accept("F"):
            bound = None
            if self.accept("<="):
                t = self.tok
                if t.kind != "int":
                    self.fail("expected integer step bound after 'F<='")
                bound = int(self.advance().text)
            target = self.parse_expr()
            self.expect("]")
            if bound is None:
                return PathFormula("F", target)
            return PathFormula("F<=", target, bound=bound)
        if self.accept("G"):
            body = self.parse_expr()
            self.expect("]")
            return PathFormula("G", body)
        if self.at("X"):
            self.fail("unsupported construct: 'X' (next) path operator")
        left = self.parse_expr()
        self.expect("U", "'U' (until) between path operands")
        right = self.parse_expr()
        self.expect("]")
        return PathFormula("U", right, constraint=left)


def parse_properties(text: str, file="<string>"):
    """Parse a property file into a list of PropertySpec."""
    return _PropertyParser(text, file).parse()


def _unquote(s):
    return s[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _quote(s):
    """The string literal that _unquote reads back as `s`."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def render_expr(e: Expr, parent_prec=0) -> str:
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return repr(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Unary):
        if e.op == "!":
            # '!' sits between '&' and the comparisons in the grammar, so it
            # needs parentheses anywhere tighter than an '&' operand.
            s = "!" + render_expr(e.operand, 4)
            return f"({s})" if parent_prec > 3 else s
        inner = render_expr(e.operand, 7)
        return f"{e.op}{inner}"
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        # Right operand of -, / and chained comparisons must keep grouping.
        left_prec, right_prec = prec, prec + 1
        if prec == 4:
            # comparisons are non-associative: both operands need grouping
            left_prec = prec + 1
        elif e.op == "->":
            # right-associative
            left_prec, right_prec = prec + 1, prec
        s = f"{render_expr(e.left, left_prec)} {e.op} {render_expr(e.right, right_prec)}"
        if prec < parent_prec:
            return f"({s})"
        return s
    raise TypeError(f"not an expression: {e!r}")


def render_model(ast: ModelAst) -> str:
    """Pretty-print a model; parse(render(ast)) is structurally equal to ast."""
    out = ["dtmc", ""]
    for c in ast.constants:
        value = "" if c.value is None else f" = {render_expr(c.value)}"
        out.append(f"const {c.kind} {c.name}{value};")
    if ast.constants:
        out.append("")
    for f in ast.formulas:
        out.append(f"formula {f.name} = {render_expr(f.expr)};")
    if ast.formulas:
        out.append("")
    for mod in ast.modules:
        out.append(f"module {mod.name}")
        for v in mod.variables:
            if v.is_bool:
                out.append(f"  {v.name} : bool init {render_expr(v.init)};")
            else:
                out.append(f"  {v.name} : [{render_expr(v.low)}..{render_expr(v.high)}]"
                           f" init {render_expr(v.init)};")
        if mod.variables:
            out.append("")
        for cmd in mod.commands:
            label = cmd.label or ""
            updates = " + ".join(_render_update(u) for u in cmd.updates)
            out.append(f"  [{label}] {render_expr(cmd.guard)} -> {updates};")
        out.append("endmodule")
        out.append("")
    for rs in ast.rewards:
        out.append(f"rewards {_quote(rs.name)}")
        for item in rs.items:
            out.append(f"  {render_expr(item.guard)} : {render_expr(item.value)};")
        out.append("endrewards")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _render_update(u: Update) -> str:
    assigns = " & ".join(f"({name}' = {render_expr(rhs)})" for name, rhs in u.assignments)
    if u.probability is None:
        return assigns
    return f"{render_expr(u.probability)} : {assigns}"


def render_property(p: PropertySpec) -> str:
    path = render_path(p.path)
    if p.kind == "P_query":
        body = f"P=? [ {path} ]"
    elif p.kind == "P_bound":
        bound = f"{p.bound:g}"
        body = f"P{p.bound_op}{bound} [ {path} ]"
    else:
        body = f"R{{{_quote(p.reward)}}}=? [ {path} ]"
    return f"{_quote(p.name)}: {body}"


def render_path(path: PathFormula) -> str:
    if path.kind == "F":
        return f"F {render_expr(path.target)}"
    if path.kind == "F<=":
        return f"F<={path.bound} {render_expr(path.target)}"
    if path.kind == "G":
        return f"G {render_expr(path.target)}"
    return f"{render_expr(path.constraint)} U {render_expr(path.target)}"
