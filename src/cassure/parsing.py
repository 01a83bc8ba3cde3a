"""Text parsers for `.prism`-style models and `.props`-style property files.

The tokenizer is one compiled pattern that skips whitespace and comments
inside each match, run once by `findall` into the list of token texts; a
table by first character gives each token's kind, in a parallel list, and
the parser indexes the two lists.  No object is made per token.  A span is
made only for a name, a declaration or a property, and it is deferred: the
tokens' start offsets come from a second scan, and a line and column from
the text's newline offsets, only when some span is first read, which in a
clean parse is never.  Declarations and properties are parsed by recursive
descent.  Expressions
are parsed by precedence climbing over one table, `_PREC`, from '->'
(loosest, right-associative) through '|', '&', the non-associative
comparisons, '+ -' and '* /'; the prefix '!' takes a comparison and unary
'-' an atom.  Every diagnostic names its `file:line:col`.  A pretty-printer
writes text that re-parses to a structurally identical AST.
"""

from __future__ import annotations

import math
import re
import string
from bisect import bisect_right
from functools import cached_property

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
# ahead of the token.  A character that starts no token is a token of its own
# (`.`), which the kind table rejects; the empty alternative matches only at
# the end of the text.  So a match never fails and never backs off into the
# skipped text.
_TOKEN_RE = re.compile(r"""(?:\s+|//[^\n]*)*(
    [A-Za-z_][A-Za-z0-9_]*
  | <=|>=|!=|->|\.\.|=\?|[-+*/=<>!&|()\[\]{}:;,'?]
  | (?:\d+\.\d+|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+
  | \d+
  | "(?:[^"\\]|\\.)*"
  | .
  |
)""", re.VERBOSE)
# A token's kind by its first character, where that alone decides it.
_KINDS = {**dict.fromkeys(string.ascii_letters + "_", "ident"),
          **dict.fromkeys("-+*/=<>!&|()[]{}:;,'?", "op"), "": "eof"}


def _kind(text):
    """The kind of a token whose first character is no key of _KINDS: a
    number, a string or '..'; None for a character that starts no token."""
    if text == "..":
        return "op"
    if text[0] == '"':
        return "string" if len(text) > 1 else None
    if text[0].isdecimal() or text[0] == "." and len(text) > 1:
        return "int" if text.isdecimal() else "real"
    return None


class Tokens:
    """The tokens of a text, as the parallel lists `texts` and `kinds`,
    ending with one ``eof`` token whose text is "".  Their start offsets
    come from a second scan when first read, and a token's line and column
    only when its span is read."""

    def __init__(self, text, file):
        self.source, self.file = text, file
        texts = _TOKEN_RE.findall(text)
        # One empty match ends the scan, or two when the first skipped text.
        if len(texts) > 1 and texts[-2] == "":
            texts.pop()
        self.texts = texts
        self.kinds = [_KINDS.get(t[:1]) or _kind(t) for t in texts]

    @cached_property
    def offsets(self):
        return [m.start(1) for m in _TOKEN_RE.finditer(self.source)][:len(self.texts)]

    @cached_property
    def _newlines(self):
        return [m.start() for m in re.finditer("\n", self.source)]

    def span(self, i):
        """The span of token i, placed when it is first read."""
        return SourceSpan.deferred(self, i)

    def place(self, i):
        """(file, line, column, length) of token i."""
        pos = self.offsets[i]
        line = bisect_right(self._newlines, pos)
        column = pos - self._newlines[line - 1] if line else pos + 1
        return self.file, line + 1, column, len(self.texts[i])


def tokenize(text, file="<string>"):
    """The Tokens of ``text``; a character that starts no token is a
    ParseError that names its place."""
    tokens = Tokens(text, file)
    if None in tokens.kinds:
        bad = tokens.kinds.index(None)
        raise ParseError([Diagnostic("error", f"unexpected character "
                                     f"{tokens.texts[bad]!r}", tokens.span(bad))])
    return tokens


class _Parser:
    """Common token-stream machinery for both grammars: the parser indexes
    the token lists with `i`."""

    def __init__(self, text, file):
        self.tokens = tokenize(text, file)
        self.texts, self.kinds = self.tokens.texts, self.tokens.kinds
        self.i = 0
        self.diags = []
        self.nesting = 0

    @property
    def text(self):
        return self.texts[self.i]

    @property
    def kind(self):
        return self.kinds[self.i]

    def span(self, i=None):
        return self.tokens.span(self.i if i is None else i)

    def peek(self, ahead=1):
        """The text of the token `ahead` of the current one."""
        return self.texts[min(self.i + ahead, len(self.texts) - 1)]

    def advance(self):
        """Consume the current token, unless it is the end; its index."""
        i = self.i
        if self.kinds[i] != "eof":
            self.i += 1
        return i

    def at(self, text):
        # A keyword or operator: no other kind of token has such a text.
        return self.texts[self.i] == text

    def accept(self, text):
        """Consume the token `text`, never the end, if it is the current one."""
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def fail(self, message, span=None):
        self.diags.append(Diagnostic("error", message, span or self.span()))
        raise ParseError(self.diags)

    def expect(self, text, what=None):
        """Consume the token `text`; its index."""
        i = self.i
        if self.texts[i] != text:
            self.fail(f"expected {what or text!r}, found {self.text!r}")
        self.i += 1
        return i

    def real(self):
        """The float value of the current number token, which is consumed;
        a literal beyond the float range is an error."""
        i = self.advance()
        v = float(self.texts[i])
        if math.isinf(v):
            self.fail(f"number {self.texts[i]!r} is out of range", self.span(i))
        return v

    def expect_ident(self, what="identifier"):
        """Consume an identifier; its text."""
        text = self.text
        if self.kind != "ident" or text in KEYWORDS or text in UNSUPPORTED:
            self.fail(f"expected {what}, found {text!r}")
        self.advance()
        return text

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
                      self.span(start))
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
        op = self.texts[self.i]
        prec = _PREFIX.get(op)
        if prec is not None and min_prec <= prec:
            self.i += 1
            left = Unary(op, self._nested(prec))
            ceiling = prec - 1
        else:
            left = self._atom()
            ceiling = _TIGHTEST
        while True:
            op = self.texts[self.i]
            rule = _BINARY.get(op)
            if rule is None or not min_prec <= rule[0] <= ceiling:
                return left
            self.i += 1
            prec, right_prec, ceiling = rule
            right = (self._nested(right_prec) if right_prec == prec
                     else self._expr(right_prec))
            left = Binary(op, left, right)

    def _atom(self):
        i = self.i
        text, kind = self.texts[i], self.kinds[i]
        if kind == "ident":
            if text == "true":
                self.i += 1
                return Lit(True)
            if text == "false":
                self.i += 1
                return Lit(False)
            if text in UNSUPPORTED:
                self.fail(f"unsupported construct '{text}'")
            if text in KEYWORDS:
                self.fail(f"unexpected keyword '{text}' in expression")
            self.i += 1
            return Name(text, self.tokens.span(i))
        if kind == "int":
            self.i += 1
            return Lit(int(text))
        if kind == "real":
            return Lit(self.real())
        if self.accept("("):
            e = self._nested(1)
            self.expect(")")
            return e
        self.fail(f"expected expression, found {text!r}")


# --------------------------------------------------------------------------
# Model parser
# --------------------------------------------------------------------------

class _ModelParser(_Parser):
    def parse(self):
        if self.kind == "eof":
            self.fail("expected model type header 'dtmc'")
        if self.text in UNSUPPORTED:
            self.fail(f"unsupported model type '{self.text}' (only dtmc)")
        self.expect("dtmc", "model type header 'dtmc'")
        constants, formulas, modules, rewards = [], [], [], []
        while self.kind != "eof":
            if self.at("const"):
                constants.append(self._const())
            elif self.at("formula"):
                formulas.append(self._formula())
            elif self.at("module"):
                modules.append(self._module())
            elif self.at("rewards"):
                rewards.append(self._rewards())
            elif self.text in UNSUPPORTED:
                self.fail(f"unsupported construct '{self.text}'")
            else:
                self.fail(f"expected declaration, found {self.text!r}")
        return ModelAst(tuple(constants), tuple(formulas), tuple(modules),
                        tuple(rewards))

    def _const(self):
        span = self.span(self.expect("const"))
        if self.at("int"):
            kind = "int"
        elif self.at("double"):
            kind = "double"
        elif self.at("bool"):
            self.fail("unsupported construct 'const bool'")
        else:
            self.fail("expected 'int' or 'double' after 'const'")
        self.advance()
        name = self.expect_ident("constant name")
        value = None
        if not self.at(";"):
            self.expect("=")
            value = self.parse_expr()
        self.expect(";")
        return ConstantDecl(name, kind, value, span)

    def _formula(self):
        span = self.span(self.expect("formula"))
        name = self.expect_ident("formula name")
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return FormulaDecl(name, expr, span)

    def _module(self):
        span = self.span(self.expect("module"))
        name = self.expect_ident("module name")
        variables, commands = [], []
        while not self.at("endmodule"):
            if self.kind == "eof":
                self.fail(f"unterminated module '{name}' (missing endmodule)")
            if self.at("["):
                commands.append(self._command())
            else:
                variables.append(self._vardecl())
        self.advance()
        return ModuleDecl(name, tuple(variables), tuple(commands), span)

    def _vardecl(self):
        span = self.span()
        name = self.expect_ident("variable name")
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
        return VarDecl(name, low, high, init, is_bool, span)

    def _command(self):
        span = self.span(self.expect("["))
        label = None
        if not self.at("]"):
            label = self.expect_ident("action label")
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
        return (self.at("(") and self.kinds[self.i + 1] == "ident"
                and self.peek(2) == "'")

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
        name = self.expect_ident("variable name")
        self.expect("'")
        self.expect("=")
        rhs = self.parse_expr()
        self.expect(")")
        return (name, rhs)

    def _rewards(self):
        span = self.span(self.expect("rewards"))
        if self.kind != "string":
            self.fail("expected reward structure name string")
        name = _unquote(self.texts[self.advance()])
        items = []
        while not self.at("endrewards"):
            if self.kind == "eof":
                self.fail(f'unterminated rewards "{name}" (missing endrewards)')
            if self.at("["):
                self.fail("unsupported construct: transition rewards")
            item_span = self.span()
            guard = self.parse_expr()
            self.expect(":")
            value = self.parse_expr()
            self.expect(";")
            items.append(RewardItem(guard, value, item_span))
        self.advance()
        return RewardStructureDecl(name, tuple(items), span)


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
        while self.kind != "eof":
            start = self.span()
            name = None
            if self.kind == "string" and self.peek(1) == ":":
                name = _unquote(self.texts[self.advance()])
                self.advance()
            if name is None:
                counter += 1
                name = f"prop{counter}"
            start_i = self.i
            fields = self._property()
            source = " ".join(self.texts[start_i:self.i])
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
            if self.kind != "string":
                self.fail("expected reward structure name string")
            reward = _unquote(self.texts[self.advance()])
            self.expect("}")
            self.expect("=?")
            self.expect("[")
            self.expect("F", "'F' (reward queries pair with an F target)")
            target = self.parse_expr()
            self.expect("]")
            return dict(kind="R_query", path=PathFormula("F", target), reward=reward)
        self.fail(f"expected 'P' or 'R' property, found {self.text!r}")

    def _number(self):
        neg = bool(self.accept("-"))
        if self.kind not in ("int", "real"):
            self.fail(f"expected number, found {self.text!r}")
        v = self.real()
        return -v if neg else v

    def _path(self):
        self.expect("[")
        if self.accept("F"):
            bound = None
            if self.accept("<="):
                if self.kind != "int":
                    self.fail("expected integer step bound after 'F<='")
                bound = int(self.texts[self.advance()])
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
        s = e.op + render_expr(e.operand, _PREFIX[e.op])
        # '!' binds looser than a comparison, so it is parenthesised anywhere
        # tighter than the level of '&'.
        return f"({s})" if e.op == "!" and parent_prec > _PREFIX["!"] - 1 else s
    if isinstance(e, Binary):
        # Each operand at the level the parser reads it at: the left one is
        # grouped unless the operator may follow it (the ceiling after it).
        prec, right_prec, ceiling = _BINARY[e.op]
        left = render_expr(e.left, prec if ceiling >= prec else prec + 1)
        s = f"{left} {e.op} {render_expr(e.right, right_prec)}"
        return f"({s})" if prec < parent_prec else s
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
