"""Source locations and diagnostics shared by the parsers and checkers;
`read_record`, the one reader of the JSON records, whose schema is each
record's dataclass, read once into one table per class, and
`read_json_lines`, which reads a file of them in one pass, naming the line
of any record that fails; and
`depth_first`, the one graph search of the checks:
the order of a model's constants and formulas and the supported-by cycles of
a GSN argument."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from functools import cache
from itertools import product
from math import isfinite
from types import NoneType


class SourceSpan:
    """A place in a source file: 1-based line and column, and a length.

    `deferred` makes a span whose fields are found only when one is first
    read, so a parser can give every name a span cheaply."""
    __slots__ = ("file", "line", "column", "length", "_source", "_key")

    def __init__(self, file, line, column, length=1):
        self.file, self.line, self.column, self.length = file, line, column, length

    @classmethod
    def deferred(cls, source, key):
        """The span ``source.place(key)`` gives as (file, line, column,
        length), found when the span is first read."""
        span = object.__new__(cls)
        span._source, span._key = source, key
        return span

    def __getattr__(self, name):
        # Only a deferred span lacks a field, until one is read.
        if name not in ("file", "line", "column", "length"):
            raise AttributeError(name)
        self.file, self.line, self.column, self.length = self._source.place(self._key)
        return getattr(self, name)

    def _fields(self):
        return self.file, self.line, self.column, self.length

    def __eq__(self, other):
        if not isinstance(other, SourceSpan):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"SourceSpan(file={self.file!r}, line={self.line!r}, "
                f"column={self.column!r}, length={self.length!r})")

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan | None = None

    def __str__(self):
        loc = f"{self.span}: " if self.span else ""
        return f"{loc}{self.severity}: {self.message}"


class CassureError(Exception):
    """Base class for all toolkit errors."""


def malformed(what, e):
    """The message for a JSON record ``what`` that failed to load with ``e``:
    bad JSON, a missing key, a value of the wrong type or a failed check."""
    return f"malformed {what}: " + (f"missing key {e}" if isinstance(e, KeyError)
                                    else str(e))


# The JSON kinds a record field accepts, by the text of its annotation (the
# record modules postpone annotations).  A number is never a bool.
_JSON_KINDS = {"str": (str,), "str | None": (str, NoneType), "int": (int,),
               "float | None": (int, float, NoneType), "bool": (bool,),
               "bool | None": (bool, NoneType), "dict": (dict,), "tuple": (list,)}


@cache
def _record_shape(cls):
    """The schema of the record dataclass `cls`: (name, accepted kinds,
    required) per field, for `read_record`; and for `read_json_lines` the
    field names and defaults in order (MISSING where a field has none or a
    factory), every tuple of value types `read_record` accepts, and the
    positions of the fields that accept a float."""
    fs = fields(cls)
    kinds = [_JSON_KINDS[f.type] for f in fs]
    return (tuple((f.name, k, f.default is MISSING and f.default_factory is MISSING)
                  for f, k in zip(fs, kinds)),
            tuple(f.name for f in fs), tuple(f.default for f in fs),
            frozenset(product(*kinds)), tuple(i for i, k in enumerate(kinds) if float in k))


def read_record(cls, rec):
    """The dataclass `cls` read from the loaded JSON object `rec`; other keys
    are ignored.  A field that `rec` lacks takes its default, or raises
    KeyError without one.  A value of a kind its field's annotation does not
    allow, or a NaN or an infinity (JSON has neither), raises TypeError.
    Readers report both via ``malformed``."""
    if not isinstance(rec, dict):
        raise TypeError(f"expected a JSON object, got {rec!r}")
    values = {}
    for name, kinds, required in _record_shape(cls)[0]:
        if name in rec:
            value = values[name] = rec[name]
            kind = type(value)  # not isinstance(), so that a bool is no int
            if kind not in kinds or kind is float and not isfinite(value):
                raise TypeError(f"{name!r} has the wrong type: {value!r}")
        elif required:
            raise KeyError(name)
    return cls(**values)


_scan_json = json.JSONDecoder().scan_once


def read_json_lines(text, cls, what, error=CassureError, check=None, comments=False):
    """The `cls` records of the JSON Lines `text`, one object per line, each
    read as `read_record` reads it and then passed to `check`, which raises
    ValueError to reject it.  Only "\\n" ends a line: JSON allows the other
    line breaks of `str.splitlines` (U+2028, U+0085, ...) raw in a string.
    Blank lines are skipped, and with `comments` lines that start with '#'.
    A malformed record raises `error`: "malformed {what} on line N: ...",
    whether its JSON, a field, `cls.__post_init__` or `check` rejects it.

    Each line is one C-level scan, and a record whose fields all hold
    accepted types is built without a call of `cls`.  Any other line is
    read again by `json.loads` and `read_record`, which name its fault."""
    _, names, defaults, signatures, floats = _record_shape(cls)
    new, post = object.__new__, getattr(cls, "__post_init__", None)
    out = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or comments and line[0] == "#":
            continue
        try:
            try:
                rec, end = _scan_json(line, 0)
                values = tuple(map(rec.get, names, defaults))
            except (StopIteration, ValueError, AttributeError):
                end = None  # no JSON value, or not an object
            if end == len(line) and tuple(map(type, values)) in signatures:
                for i in floats:  # as read_record rejects a NaN or an infinity
                    if type(values[i]) is float and not isfinite(values[i]):
                        raise TypeError(f"{names[i]!r} has the wrong type: {values[i]!r}")
                res = new(cls)
                res.__dict__.update(zip(names, values))
                if post:
                    res.__post_init__()
            else:  # a default to fill in, or a malformed line
                res = read_record(cls, json.loads(line))
            if check:
                check(res)
            out.append(res)
        except (KeyError, TypeError, ValueError, CassureError) as e:
            raise error(malformed(f"{what} on line {lineno}", e)) from None
    return out


def depth_first(nodes, edges):
    """(order, closing) of one depth-first search without recursion, so no
    chain is too long for it.  The search starts from each of `nodes` in
    turn; `edges(u)` gives u's out-edges as (target, label) pairs, followed
    in that order.  `order` lists each node reached once, in post-order:
    after the targets of its edges, except where a cycle passes.  `closing`
    holds the labels of the edges that close a cycle, where the search met
    a target still open, in the order met."""
    order, closing, state = [], [], {}
    for root in nodes:
        if root in state:
            continue
        state[root] = "open"
        stack = [(root, iter(edges(root)))]
        while stack:
            u, out = stack[-1]
            for v, label in out:
                if v not in state:
                    state[v] = "open"
                    stack.append((v, iter(edges(v))))
                    break
                if state[v] == "open":
                    closing.append(label)
            else:
                stack.pop()
                state[u] = "done"
                order.append(u)
    return order, closing


class ParseError(CassureError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class BindError(CassureError):
    pass


class EvalError(CassureError):
    """An expression that cannot be evaluated.  A vectorized evaluation sets
    `row` to the first row that failed."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class BuildError(CassureError):
    pass


class SolverError(CassureError):
    pass
