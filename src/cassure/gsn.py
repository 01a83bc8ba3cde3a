"""Goal Structuring Notation argument model with lifecycle annotations.

Arguments are values: nodes, links, annotations and trace links are
immutable named tuples, and every operation returns a new ArgumentModel.
Each value, parsed, built or edited, has unique node ids, and each of its
references names one of its nodes; only quarantined orphans are exempt.
The annotation vocabulary (placeholders and stereotypes) is closed by
default; unknown names produce validation warnings unless they are
registered in the argument's extension list.

The text format (``.gsn``) is documented in docs/gsn_format.md.  Serialization
is deterministic: nodes in id order, then links, then annotations and trace
links in stored order, then a quarantine section for orphaned entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from functools import cached_property
from json.decoder import scanstring
from json.encoder import encode_basestring
from operator import attrgetter
from typing import NamedTuple

from .diagnostics import CassureError, Diagnostic, depth_first

NODE_KINDS = ("goal", "strategy", "solution", "context")

# The closed annotation vocabularies, each name with the lifecycle phases it
# serves; validate_argument warns on a name outside them.
PLACEHOLDER_PHASES = {
    "trace_expr": ("design", "runtime"),
    "monitor_id": ("design", "runtime", "evolution"),
    "deferred": ("design", "runtime", "evolution"),
    "confidence_threshold": ("runtime",),
    "monitor_expr": ("runtime",),
    "evidence_cost": ("design", "evolution"),
    "evolution_package": ("evolution",),
    "impact_summary": ("evolution",),
    "regeneration_plan": ("evolution",),
}

STEREOTYPE_PHASES = {
    "TraceMonitored": ("design", "runtime"),
    "DeferredEvidence": ("design", "runtime", "evolution"),
    "RuntimeAssumptionMonitor": ("runtime", "evolution"),
    "ConfidenceMonitor": ("runtime", "evolution"),
    "Reopened": ("runtime", "evolution"),
    "RegenerationPlan": ("evolution",),
    "ImpactAnalysis": ("evolution",),
    "EvidenceProvided": ("evolution",),
}

# Built-in extensions: the runtime-ingestion placeholder for violation logs
# and the optional criticality flag used by regeneration planning.
BUILTIN_EXTENSIONS = frozenset({"runtime_log", "safety_critical"})

ARTIFACT_KINDS = ("model-file", "property", "verification-result",
                  "external-evidence")

_NO_ENTRIES = ((), ())


class GsnError(CassureError):
    pass


def _append_new(entries, new):
    """``entries`` followed by each of ``new`` that equals no entry before
    it; duplicates within ``entries`` stay."""
    out = list(entries)
    seen = set(out)
    for entry in new:
        if entry not in seen:
            seen.add(entry)
            out.append(entry)
    return tuple(out)


class GsnNode(NamedTuple):
    id: str
    kind: str
    description: str
    version: int = 1


class GsnLink(NamedTuple):
    kind: str   # "supported-by" | "in-context-of"
    source: str
    target: str


class Annotation(NamedTuple):
    kind: str          # "placeholder" | "stereotype"
    name: str
    node_id: str
    value: str | None = None   # placeholders only

    @staticmethod
    def placeholder(node_id, key, value):
        return Annotation("placeholder", key, node_id, value)

    @staticmethod
    def stereotype(node_id, name):
        return Annotation("stereotype", name, node_id)

    # Equal fields, equal tuples: the type keeps a TraceLink from equalling it.
    __eq__ = lambda self, other: type(self) is type(other) and tuple.__eq__(self, other)
    __ne__ = lambda self, other: not self == other
    __hash__ = tuple.__hash__


class TraceLink(NamedTuple):
    node_id: str
    artifact_kind: str
    ref: str
    fingerprint: str | None = None  # external evidence carries none

    __eq__, __ne__, __hash__ = Annotation.__eq__, Annotation.__ne__, tuple.__hash__


_ID, _NODE_ID = attrgetter("id"), attrgetter("node_id")
_SOURCE, _TARGET = attrgetter("source"), attrgetter("target")


@dataclass(frozen=True)
class ArgumentModel:
    name: str
    nodes: tuple = ()
    links: tuple = ()
    annotations: tuple = ()
    trace_links: tuple = ()
    version: int = 1
    extensions: frozenset = frozenset()
    orphans: tuple = ()  # quarantined (Annotation | TraceLink) entries

    def __post_init__(self):
        """The reference rule, as set operations; a breach is named by
        `_first_breach`.  The value keeps its node-id set, so that an edit
        checks only what it adds (`edit_annotations`, `revise`)."""
        ids = frozenset(map(_ID, self.nodes))
        if not (len(ids) == len(self.nodes)
                and ids.issuperset(map(_SOURCE, self.links))
                and ids.issuperset(map(_TARGET, self.links))
                and ids.issuperset(map(_NODE_ID, self.annotations))
                and ids.issuperset(map(_NODE_ID, self.trace_links))):
            self._first_breach()
        self.__dict__["_ids"] = ids

    def _first_breach(self):
        """Raise GsnError on the first breach of the reference rule, in the
        order nodes, links, annotations, trace links."""
        ids = set()
        for n in self.nodes:
            if n.id in ids:
                raise GsnError(f"duplicate node id '{n.id}'")
            ids.add(n.id)
        for l in self.links:
            if l.source not in ids or l.target not in ids:
                raise GsnError(f"link references unknown node: {l.source} -> {l.target}")
        for what, entries in (("annotation", self.annotations),
                              ("trace link", self.trace_links)):
            for e in entries:
                if e.node_id not in ids:
                    raise GsnError(f"{what} references unknown node '{e.node_id}'")

    def _copy(self, **changes):
        """This value with `changes`, which the caller has checked against
        the node ids, which do not change: no full reference rule."""
        new = object.__new__(ArgumentModel)
        new.__dict__.update({name: getattr(self, name) for name in _FIELDS},
                            **changes, _ids=self._ids)
        return new

    def node(self, node_id):
        for n in self.nodes:
            if n.id == node_id:
                return n
        return None

    def node_ids(self):
        return set(self._ids)

    @cached_property
    def _by_node(self):
        """node id -> (annotations, trace links), each in stored order; built
        once per value, which is never mutated."""
        view = {}
        for a in self.annotations:
            view.setdefault(a.node_id, ([], []))[0].append(a)
        for t in self.trace_links:
            view.setdefault(t.node_id, ([], []))[1].append(t)
        return view

    def stereotypes_of(self, node_id):
        return {a.name for a in self._by_node.get(node_id, _NO_ENTRIES)[0]
                if a.kind == "stereotype"}

    def placeholder_of(self, node_id, key):
        for a in self._by_node.get(node_id, _NO_ENTRIES)[0]:
            if a.kind == "placeholder" and a.name == key:
                return a.value
        return None

    def trace_links_of(self, node_id):
        return list(self._by_node.get(node_id, _NO_ENTRIES)[1])

    def edit_annotations(self, add, drop):
        """A copy without the annotations whose (node_id, kind, name) is in
        ``drop``, then with each of ``add`` appended unless an equal
        annotation is already there.  Stored order is kept, and so are
        duplicates the argument already holds."""
        for a in add:
            if a.node_id not in self._ids:
                raise GsnError(f"annotation references unknown node '{a.node_id}'")
        drop = set(drop)
        kept = [a for a in self.annotations
                if (a.node_id, a.kind, a.name) not in drop]
        return self._copy(annotations=_append_new(kept, add))

    def revise(self, nodes, trace_links):
        """A copy with new nodes and trace links, in which each keeps the
        node id of the one it replaces, in the same order: a new version,
        description or fingerprint needs no full reference rule."""
        if (list(map(_ID, nodes)) != list(map(_ID, self.nodes))
                or list(map(_NODE_ID, trace_links)) != list(map(_NODE_ID, self.trace_links))):
            raise GsnError("a revision must keep every node id in place")
        return self._copy(nodes=tuple(nodes), trace_links=tuple(trace_links))

    def goals(self):
        return [n for n in self.nodes if n.kind == "goal"]

    def root_goals(self):
        supported = {l.target for l in self.links if l.kind == "supported-by"}
        return [n for n in self.goals() if n.id not in supported]


_FIELDS = tuple(f.name for f in fields(ArgumentModel))


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

_SUPPORT_RULES = {("goal", "strategy"), ("strategy", "goal"),
                  ("goal", "goal"), ("goal", "solution")}

# What str.isspace() and \s accept, spelled out: literals scan faster.
_WHITESPACE = ("\t\n\x0b\x0c\r\x1c-\x1f \x85\xa0\u1680\u2000-\u200a"
               "\u2028\u2029\u202f\u205f\u3000")
# The ids the .gsn format can hold: no whitespace, no '"', not empty.
_ID_RE = re.compile(f'[^{_WHITESPACE}"]+')


def validate_argument(arg: ArgumentModel):
    """Diagnostics past the reference rule ArgumentModel enforces; never raises."""
    diags = []
    err = lambda m: diags.append(Diagnostic("error", m))
    warn = lambda m: diags.append(Diagnostic("warning", m))

    kinds = {}
    for n in arg.nodes:
        if not _ID_RE.fullmatch(n.id):
            err(f"node id {n.id!r} is empty or holds whitespace or '\"'")
        kinds[n.id] = n.kind
        if n.kind not in NODE_KINDS:
            err(f"node '{n.id}' has unknown kind '{n.kind}'")
        if not n.description:
            err(f"node '{n.id}' has an empty description")
        if n.version < 1:
            err(f"node '{n.id}' has version {n.version} (< 1)")

    # Supported-by edges for depth_first: source -> [(target, label)], where
    # a cycle is reported by the target of the edge that closes it.
    adjacency = {}
    for l in arg.links:
        for end in (l.source, l.target):
            if not _ID_RE.fullmatch(end):
                err(f"link endpoint {end!r} is empty or holds whitespace or '\"'")
        pair = (kinds[l.source], kinds[l.target])
        if l.kind == "supported-by":
            if pair not in _SUPPORT_RULES:
                err(f"supported-by link {l.source} -> {l.target} violates "
                    f"kind rules ({pair[0]} -> {pair[1]})")
            adjacency.setdefault(l.source, []).append((l.target, l.target))
        elif l.kind == "in-context-of":
            if pair != ("goal", "context"):
                err(f"in-context-of link {l.source} -> {l.target} violates "
                    f"kind rules ({pair[0]} -> {pair[1]})")
        else:
            err(f"unknown link kind '{l.kind}'")

    _, closing = depth_first(kinds, lambda u: adjacency.get(u, ()))
    for v in closing:
        err(f"supported-by cycle through '{v}'")

    roots = arg.root_goals()
    if len(roots) == 0 and arg.goals():
        err("no root goal (every goal is supported-by-targeted)")
    if len(roots) > 1:
        err("multiple root goals: " + ", ".join(sorted(n.id for n in roots)))

    vocab_p = set(PLACEHOLDER_PHASES) | BUILTIN_EXTENSIONS | set(arg.extensions)
    vocab_s = set(STEREOTYPE_PHASES) | set(arg.extensions)
    status = {"DeferredEvidence": set(), "EvidenceProvided": set()}
    for a in arg.annotations:
        if a.kind == "placeholder" and a.name not in vocab_p:
            warn(f"placeholder key '{a.name}' is not in the vocabulary")
        if a.kind == "stereotype" and a.name not in vocab_s:
            warn(f"stereotype '{a.name}' is not in the vocabulary")
        if a.kind == "stereotype" and a.name in status:
            status[a.name].add(a.node_id)
    for nid in sorted(set.intersection(*status.values())):
        err(f"node '{nid}' holds both DeferredEvidence and EvidenceProvided")

    for t in arg.trace_links:
        if t.artifact_kind not in ARTIFACT_KINDS:
            err(f"trace link on '{t.node_id}' has unknown artifact kind "
                f"'{t.artifact_kind}'")
    return diags


# --------------------------------------------------------------------------
# DSL serialization
# --------------------------------------------------------------------------

def _annotation_line(a):
    if a.kind == "placeholder":
        return (f"annotate {a.node_id} placeholder "
                f"{a.name}={encode_basestring(a.value or '')}")
    return f"annotate {a.node_id} stereotype <<{a.name}>>"


def _trace_line(t):
    line = f"trace {t.node_id} {t.artifact_kind} {encode_basestring(t.ref)}"
    if t.fingerprint:
        line += f" fingerprint {t.fingerprint}"
    return line


def serialize_dsl(arg: ArgumentModel) -> str:
    """Deterministic text form; byte-identical for structurally equal args."""
    out = [f"argument {encode_basestring(arg.name)} version {arg.version}"]
    out += [f"extend {ext}" for ext in sorted(arg.extensions)]
    out.append("")
    # Ids are unique, so the nodes sort by id.
    out += [f"{n.kind} {n.id} version {n.version}\n  {encode_basestring(n.description)}"
            for n in sorted(arg.nodes)]
    out.append("")
    if arg.links:
        out += [f"{l.kind} {l.source} {l.target}" for l in sorted(arg.links)]
        out.append("")
    if arg.annotations:
        out += map(_annotation_line, arg.annotations)
        out.append("")
    out += map(_trace_line, arg.trace_links)
    if arg.orphans:
        out += ["", "# orphaned"]
        out += [_annotation_line(e) if isinstance(e, Annotation) else _trace_line(e)
                for e in arg.orphans]
    return "\n".join(out).rstrip("\n") + "\n"


# The grammar of a .gsn line, one named alternative per line kind, scanned
# over the whole text at once.  Only "\n" ends a line; other whitespace (a
# tab, the "\r" of CRLF) separates tokens.  A node line takes its quoted
# description line with it.  Strings are JSON string literals; words hold
# no whitespace and no '"'.
_SP = "[" + _WHITESPACE.replace("\n", "") + "]"
_STRING = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
_WORD = _ID_RE.pattern
_LINE_RE = re.compile(rf"""^ {_SP}* (?:
      (?P<trace> trace {_SP}+ (?P<t_node>{_WORD}) {_SP}+ (?P<t_kind>{_WORD}) {_SP}+
         (?P<t_ref>{_STRING}) (?: {_SP}+ fingerprint {_SP}+ (?P<t_fp>{_WORD}) )? )
    | (?P<link> (?P<l_kind>supported-by|in-context-of) {_SP}+ (?P<l_source>{_WORD})
         {_SP}+ (?P<l_target>{_WORD}) )
    | (?P<node> (?P<n_kind>{'|'.join(NODE_KINDS)}) {_SP}+ (?P<n_id>{_WORD}) {_SP}+ version
         {_SP}+ (?P<n_version>-?\d+) (?: {_SP}* \n {_SP}* (?P<n_desc>{_STRING}) )? )
    | (?P<placeholder> annotate {_SP}+ (?P<p_node>{_WORD}) {_SP}+ placeholder {_SP}+
         (?P<p_key>\w+) = (?P<p_value>{_STRING}) )
    | (?P<stereotype> annotate {_SP}+ (?P<s_node>{_WORD}) {_SP}+ stereotype {_SP}+
         << (?P<s_name>\w+) >> )
    | (?P<extend> extend {_SP}+ (?P<e_name>{_WORD}) )
    | (?P<header> argument {_SP}+ (?P<h_name>{_STRING}) {_SP}+ version {_SP}+
         (?P<h_version>-?\d+) )
    | (?P<orphaned> \#\ orphaned ) | (?P<skip> (?:\#[^\n]*)? ) | (?P<bad> [^\n]+ )
    ) {_SP}* $ \n?""", re.MULTILINE | re.VERBOSE)

# Each line kind's group number; the groups inside it follow it in order.
_TRACE, _LINK, _NODE, _PLACEHOLDER, _STEREOTYPE, _ORPHANED, _EXTEND, _HEADER, _BAD = (
    _LINE_RE.groupindex[kind] for kind in ("trace", "link", "node", "placeholder",
                                           "stereotype", "orphaned", "extend", "header",
                                           "bad"))

# A record from its fields in order, without the constructor's Python frame.
_record = tuple.__new__


def _decode(s):
    # A literal without a backslash is its text between the quotes.  With
    # one, non-strict, so a raw tab inside a string (written by older
    # versions) still reads.
    return s[1:-1] if "\\" not in s else scanstring(s, 1, False)[0]


def parse_dsl(text: str) -> ArgumentModel:
    """Parse the .gsn text format; raises GsnError naming the line."""
    header = None
    nodes, links, annotations, trace_links, orphans = [], [], [], [], []
    extensions = set()
    to_annotations, to_traces = annotations, trace_links
    # The line where the match's content ends: its description's for a node.
    line = lambda: text.count("\n", 0, m.end(m.lastindex)) + 1
    try:
        for m in _LINE_RE.finditer(text):
            kind = m.lastindex
            if kind == _NODE:
                nkind, nid, version, desc = m.group(_NODE + 1, _NODE + 2, _NODE + 3, _NODE + 4)
                if desc is None:
                    what = "expected the quoted" if m[0].endswith("\n") else "missing the"
                    raise GsnError(f"line {line() + 1}: {what} description of {nid}")
                nodes.append(_record(GsnNode, (nid, nkind, _decode(desc), int(version))))
            elif kind == _LINK:
                links.append(_record(GsnLink, m.group(_LINK + 1, _LINK + 2, _LINK + 3)))
            elif kind == _TRACE:
                nid, akind, ref, fp = m.group(_TRACE + 1, _TRACE + 2, _TRACE + 3, _TRACE + 4)
                to_traces.append(_record(TraceLink, (nid, akind, _decode(ref), fp)))
            elif kind == _PLACEHOLDER:
                nid, key, value = m.group(_PLACEHOLDER + 1, _PLACEHOLDER + 2, _PLACEHOLDER + 3)
                to_annotations.append(_record(Annotation, ("placeholder", key, nid,
                                                           _decode(value))))
            elif kind == _STEREOTYPE:
                nid, name = m.group(_STEREOTYPE + 1, _STEREOTYPE + 2)
                to_annotations.append(_record(Annotation, ("stereotype", name, nid, None)))
            elif kind == _ORPHANED:
                to_annotations = to_traces = orphans
            elif kind == _EXTEND:
                extensions.add(m[_EXTEND + 1])
            elif kind == _HEADER:
                header = (_decode(m[_HEADER + 1]), int(m[_HEADER + 2]))
            elif kind == _BAD:
                raise GsnError(f"line {line()}: malformed line {m[0].strip()!r}")
    except ValueError as e:  # a string escape that does not decode
        raise GsnError(f"line {line()}: {e}") from None
    if header is None:
        raise GsnError("missing 'argument' header")
    return ArgumentModel(header[0], tuple(nodes), tuple(links),
                         tuple(annotations), tuple(trace_links), header[1],
                         frozenset(extensions), tuple(orphans))


# --------------------------------------------------------------------------
# Graph export
# --------------------------------------------------------------------------

_DOT_SHAPES = {
    "goal": "box",
    "strategy": "parallelogram",
    "solution": "circle",
    "context": "box",
}


def export_dot(arg: ArgumentModel) -> str:
    """Graphviz export; stereotypes rendered as guillemet prefixes."""
    out = ["digraph argument {", "  rankdir=TB;", "  node [fontsize=10];"]
    for n in sorted(arg.nodes, key=lambda n: n.id):
        stereo = "".join(f"\u00ab{s}\u00bb " for s in sorted(arg.stereotypes_of(n.id)))
        label = f"{stereo}{n.id}\\n{n.description}"
        attrs = [f'shape={_DOT_SHAPES[n.kind]}']
        if n.kind == "context":
            attrs.append("style=rounded")
        attrs.append(f'label="{_dot_escape(label)}"')
        out.append(f'  "{n.id}" [{", ".join(attrs)}];')
    for l in sorted(arg.links):
        style = "solid" if l.kind == "supported-by" else "dashed"
        out.append(f'  "{l.source}" -> "{l.target}" [style={style}];')
    out.append("}")
    return "\n".join(out) + "\n"


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


# --------------------------------------------------------------------------
# Annotation merging across regenerations
# --------------------------------------------------------------------------

def merge_annotations(regenerated: ArgumentModel,
                      previous: ArgumentModel) -> ArgumentModel:
    """Re-attach annotations and external-evidence trace links from a previous
    argument onto same-id nodes of a regenerated one.

    Entries whose node id no longer exists are quarantined, never dropped.
    Idempotent: merging the same previous argument twice adds nothing new.
    """
    ids = regenerated.node_ids()
    # Generated trace links are owned by the transformer.
    external = [t for t in previous.trace_links
                if t.artifact_kind == "external-evidence"]
    lost = ([a for a in previous.annotations if a.node_id not in ids]
            + [t for t in external if t.node_id not in ids])
    return replace(
        regenerated,
        annotations=_append_new(
            regenerated.annotations,
            [a for a in previous.annotations if a.node_id in ids]),
        trace_links=_append_new(
            regenerated.trace_links, [t for t in external if t.node_id in ids]),
        extensions=regenerated.extensions | previous.extensions,
        orphans=_append_new(regenerated.orphans, lost + list(previous.orphans)))
