"""Answers computed apart from the program, and readers for its outputs.

* The grid chain is built here from its structure (scipy.sparse), solved
  with ``spsolve`` and stepped with plain matrix-vector products.
* The case study is answered by ``tests/oracle.py``, which hand-codes the
  model's semantics in exact rational arithmetic.
* ``.gsn`` text and result records are read with small parsers of their own.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from inputs import VARS

REL_TOL = 1e-7


class Mismatch(AssertionError):
    """An output of the program disagrees with the reference."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def close(value, ref, what):
    expect(value is not None and abs(value - ref) <= REL_TOL * max(1.0, abs(ref)),
           f"{what}: program {value!r}, reference {ref!r}")


def rel_error(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def read_results(path):
    return {rec["property"]: rec for rec in
            (json.loads(line) for line in path.read_text().splitlines() if line.strip())}


# ------------------------------------------------------------------ grid

class Grid:
    """The grid walk on (x, y) in [0..N]^2 without the unreachable (N, N)."""

    def __init__(self, n):
        self.n = n
        side = n + 1
        idx = {}
        for x in range(side):
            for y in range(side):
                if (x, y) != (n, n):
                    idx[(x, y)] = len(idx)
        rows, cols, vals = [], [], []
        for (x, y), i in idx.items():
            if x < n and y < n:
                for succ, p in (((x + 1, y), 0.4), ((x, y + 1), 0.4), ((0, y), 0.2)):
                    rows.append(i)
                    cols.append(idx[succ])
                    vals.append(p)
            else:
                rows.append(i)
                cols.append(i)
                vals.append(1.0)
        self.index = idx
        self.p = sp.csr_matrix((vals, (rows, cols)), shape=(len(idx), len(idx)))
        xy = np.array(list(idx), dtype=np.int64)
        self.x, self.y = xy[:, 0], xy[:, 1]
        self.init = idx[(0, 0)]

    @property
    def states(self):
        return self.p.shape[0]

    @property
    def transitions(self):
        return self.p.nnz

    def _solve(self, unknown, rhs):
        u = np.flatnonzero(unknown)
        a = sp.identity(u.size, format="csc") - self.p[u][:, u].tocsc()
        sol = np.zeros(self.states)
        sol[u] = spsolve(a, rhs[u])
        return sol

    def steps_to_absorb(self):
        interior = (self.x < self.n) & (self.y < self.n)
        return float(self._solve(interior, np.ones(self.states))[self.init])

    def reach_x(self, k):
        """P(F x>=k), equal here to P(y<N U x>=k): states with y=N and x<k
        are absorbing and never reach x>=k."""
        target = self.x >= k
        unknown = ~target & (self.y < self.n)
        rhs = np.asarray(self.p[:, np.flatnonzero(target)].sum(axis=1)).ravel()
        sol = self._solve(unknown, rhs)
        sol[target] = 1.0
        return float(sol[self.init])

    def absorbs_surely(self):
        """Every state reaches the boundary x=N|y=N, which is absorbing, so
        in this finite chain absorption has probability 1."""
        reach = (self.x == self.n) | (self.y == self.n)
        while True:
            grown = reach | ((self.p @ reach.astype(float)) > 0)
            if (grown == reach).all():
                return bool(reach.all())
            reach = grown

    def corner_reachable(self):
        return (self.n, self.n) in self.index

    def bounded_reach_y(self, k, m):
        """P(F<=k y>=m) by k products with the target made absorbing."""
        target = (self.y >= m).astype(float)
        v = target.copy()
        for _ in range(k):
            v = np.maximum(self.p @ v, target)
        return float(v[self.init])


# ------------------------------------------------------------ case study

def load_oracle(path):
    spec = importlib.util.spec_from_file_location("case_study_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CMP = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b, ">": lambda a, b: a > b}


def _pred_fn(pred, states):
    joiner, atoms = pred
    combine = all if joiner == "&" else any
    return lambda i: combine(_CMP[op](states[i][VARS[v]], c) for v, op, c in atoms)


class CaseStudy:
    """Exact answers for the case study at one value of p_err."""

    def __init__(self, oracle, p_err):
        self.oracle = oracle
        self.consts = dict(oracle.DEFAULTS, p_err=Fraction(p_err))
        self.states, _, self.rows = oracle.build_chain(self.consts)
        self.n = len(self.states)
        self._named = None

    def named(self):
        """The 17 case-study results (Fraction, None for +inf, or bool)."""
        if self._named is None:
            self._named = self.oracle.case_study_results(self.consts)
        return self._named

    def answer(self, spec):
        """Exact answer to a generated property: Fraction or bool."""
        o, rows, n, st = self.oracle, self.rows, self.n, self.states
        true = lambda i: True
        kind = spec[0]
        if kind == "F<=":
            return o.bounded_eventually(rows, n, _pred_fn(spec[2], st), spec[1])[0]
        if kind == "qual":
            psi = _pred_fn(spec[2], st)
            if spec[1] == ">=":
                return 0 in o.prob1(rows, n, true, psi)
            return 0 in o.prob0(rows, n, true, psi)
        if kind == "thr":
            _, op, b, phi, psi = spec
            phi_fn = true if phi is None else _pred_fn(phi, st)
            v = o.until_probability(rows, n, phi_fn, _pred_fn(psi, st))[0]
            return v <= Fraction(b) if op == "<=" else v >= Fraction(b)
        if kind == "F":
            return o.until_probability(rows, n, true, _pred_fn(spec[1], st))[0]
        if kind == "G>=":
            phi = _pred_fn(spec[2], st)
            v = 1 - o.until_probability(rows, n, true, lambda i: not phi(i))[0]
            return v >= Fraction(spec[1])
        raise ValueError(f"unknown spec {spec!r}")


def check_record(rec, ref, what):
    """One result record against an exact answer; returns the relative
    error of a numeric value (0.0 for verdicts and infinities)."""
    if isinstance(ref, bool):
        expect(rec["verdict"] is ref, f"{what}: verdict {rec['verdict']}, reference {ref}")
        return 0.0
    if ref is None:
        expect(rec["infinite"], f"{what}: expected +inf, got {rec['value']!r}")
        return 0.0
    close(rec["value"], float(ref), what)
    return rel_error(rec["value"], float(ref))


def render(rec):
    """The six-significant-digit rendering of a result, as solutions show it."""
    if rec["kind"] == "boolean":
        return "holds" if rec["verdict"] else "violated"
    if rec["infinite"]:
        return "+∞"
    return f"{rec['value']:.6g}"


# ------------------------------------------------------------ .gsn text

_NODE = re.compile(r"^(goal|strategy|solution|context) (\S+) version (\d+)$")
_STEREO = re.compile(r"^annotate (\S+) stereotype <<(\w+)>>$")


class GsnText:
    """What the checks need from a .gsn file, read line by line."""

    def __init__(self, text):
        self.text = text
        lines = text.splitlines()
        head = re.match(r'^argument ".*" version (\d+)$', lines[0])
        expect(head is not None, f"bad argument header {lines[0]!r}")
        self.version = int(head.group(1))
        self.versions = {}
        self.descriptions = {}
        self.stereotypes = {}
        self.lines = set(lines)
        orphaned = False
        for i, line in enumerate(lines):
            if line == "# orphaned":
                orphaned = True
            m = _NODE.match(line)
            if m:
                self.versions[m.group(2)] = int(m.group(3))
                self.descriptions[m.group(2)] = lines[i + 1].strip()[1:-1]
                continue
            m = _STEREO.match(line)
            if m and not orphaned:
                self.stereotypes.setdefault(m.group(1), set()).add(m.group(2))


def cost_hours(text):
    """The documented evidence-cost grammar: <number>(h|d), 1d = 24h."""
    m = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*(h|d)\s*", text or "")
    if not m:
        return math.inf
    return float(m.group(1)) * (24.0 if m.group(2) == "d" else 1.0)
