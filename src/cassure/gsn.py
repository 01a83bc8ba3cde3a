"""Goal Structuring Notation argument model with lifecycle annotations.

Arguments are values: nodes, links, annotations and trace links are held in
immutable-by-convention dataclasses, and every operation returns a new
ArgumentModel.  The annotation vocabulary (placeholders and stereotypes) is
closed by default; unknown names produce validation warnings unless they are
registered in the argument's extension list.

The text format (``.gsn``) is documented in docs/gsn_format.md.  Serialization
is deterministic: nodes in id order, then links, then annotations and trace
links in stored order, then a quarantine section for orphaned entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property

from .diagnostics import CassureError, Diagnostic
from .parsing import _unquote

NODE_KINDS = ("goal", "strategy", "solution", "context")

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

ALL_PHASES = ("design", "runtime", "evolution")

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


@dataclass(frozen=True)
class GsnNode:
    id: str
    kind: str
    description: str
    version: int = 1


@dataclass(frozen=True)
class GsnLink:
    kind: str   # "supported-by" | "in-context-of"
    source: str
    target: str


@dataclass(frozen=True)
class Annotation:
    kind: str          # "placeholder" | "stereotype"
    name: str
    node_id: str
    value: str | None = None   # placeholders only
    phases: tuple = ()

    @staticmethod
    def placeholder(node_id, key, value):
        phases = PLACEHOLDER_PHASES.get(key, ALL_PHASES)
        return Annotation("placeholder", key, node_id, value, phases)

    @staticmethod
    def stereotype(node_id, name):
        phases = STEREOTYPE_PHASES.get(name, ALL_PHASES)
        return Annotation("stereotype", name, node_id, None, phases)


@dataclass(frozen=True)
class TraceLink:
    node_id: str
    artifact_kind: str
    ref: str
    fingerprint: str | None = None  # external evidence carries none


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

    def node(self, node_id):
        for n in self.nodes:
            if n.id == node_id:
                return n
        return None

    def node_ids(self):
        return {n.id for n in self.nodes}

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
        drop = set(drop)
        kept = [a for a in self.annotations
                if (a.node_id, a.kind, a.name) not in drop]
        return replace(self, annotations=_append_new(kept, add))

    def goals(self):
        return [n for n in self.nodes if n.kind == "goal"]

    def root_goals(self):
        supported = {l.target for l in self.links if l.kind == "supported-by"}
        return [n for n in self.goals() if n.id not in supported]


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

_SUPPORT_RULES = {("goal", "strategy"), ("strategy", "goal"),
                  ("goal", "goal"), ("goal", "solution")}


def validate_argument(arg: ArgumentModel):
    """Well-formedness diagnostics; never raises."""
    diags = []
    err = lambda m: diags.append(Diagnostic("error", m))
    warn = lambda m: diags.append(Diagnostic("warning", m))

    seen = set()
    kinds = {}
    for n in arg.nodes:
        if n.id in seen:
            err(f"duplicate node id '{n.id}'")
        seen.add(n.id)
        kinds[n.id] = n.kind
        if n.kind not in NODE_KINDS:
            err(f"node '{n.id}' has unknown kind '{n.kind}'")
        if not n.description:
            err(f"node '{n.id}' has an empty description")
        if n.version < 1:
            err(f"node '{n.id}' has version {n.version} (< 1)")

    adjacency = {}
    for l in arg.links:
        if l.source not in kinds or l.target not in kinds:
            err(f"dangling link {l.source} -> {l.target}")
            continue
        pair = (kinds[l.source], kinds[l.target])
        if l.kind == "supported-by":
            if pair not in _SUPPORT_RULES:
                err(f"supported-by link {l.source} -> {l.target} violates "
                    f"kind rules ({pair[0]} -> {pair[1]})")
            adjacency.setdefault(l.source, []).append(l.target)
        elif l.kind == "in-context-of":
            if pair != ("goal", "context"):
                err(f"in-context-of link {l.source} -> {l.target} violates "
                    f"kind rules ({pair[0]} -> {pair[1]})")
        else:
            err(f"unknown link kind '{l.kind}'")

    # Cycle detection over supported-by.
    state = {}

    def visit(u):
        state[u] = "open"
        for v in adjacency.get(u, ()):
            if state.get(v) == "open":
                err(f"supported-by cycle through '{v}'")
            elif v not in state:
                visit(v)
        state[u] = "done"

    for u in list(kinds):
        if u not in state:
            visit(u)

    roots = arg.root_goals()
    if len(roots) == 0 and arg.goals():
        err("no root goal (every goal is supported-by-targeted)")
    if len(roots) > 1:
        err("multiple root goals: " + ", ".join(sorted(n.id for n in roots)))

    vocab_p = set(PLACEHOLDER_PHASES) | BUILTIN_EXTENSIONS | set(arg.extensions)
    vocab_s = set(STEREOTYPE_PHASES) | set(arg.extensions)
    for a in arg.annotations:
        if a.node_id not in kinds:
            err(f"annotation on unknown node '{a.node_id}'")
        if a.kind == "placeholder" and a.name not in vocab_p:
            warn(f"placeholder key '{a.name}' is not in the vocabulary")
        if a.kind == "stereotype" and a.name not in vocab_s:
            warn(f"stereotype '{a.name}' is not in the vocabulary")

    for t in arg.trace_links:
        if t.node_id not in kinds:
            err(f"trace link on unknown node '{t.node_id}'")
        if t.artifact_kind not in ARTIFACT_KINDS:
            err(f"trace link on '{t.node_id}' has unknown artifact kind "
                f"'{t.artifact_kind}'")
    return diags


# --------------------------------------------------------------------------
# DSL serialization
# --------------------------------------------------------------------------

def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _annotation_line(a):
    if a.kind == "placeholder":
        return f"annotate {a.node_id} placeholder {a.name}={_quote(a.value or '')}"
    return f"annotate {a.node_id} stereotype <<{a.name}>>"


def _trace_line(t):
    line = f"trace {t.node_id} {t.artifact_kind} {_quote(t.ref)}"
    if t.fingerprint:
        line += f" fingerprint {t.fingerprint}"
    return line


def serialize_dsl(arg: ArgumentModel) -> str:
    """Deterministic text form; byte-identical for structurally equal args."""
    out = [f"argument {_quote(arg.name)} version {arg.version}"]
    for ext in sorted(arg.extensions):
        out.append(f"extend {ext}")
    out.append("")
    for n in sorted(arg.nodes, key=lambda n: n.id):
        out.append(f"{n.kind} {n.id} version {n.version}")
        out.append(f"  {_quote(n.description)}")
    out.append("")
    for l in sorted(arg.links, key=lambda l: (l.kind, l.source, l.target)):
        out.append(f"{l.kind} {l.source} {l.target}")
    if arg.links:
        out.append("")
    for a in arg.annotations:
        out.append(_annotation_line(a))
    if arg.annotations:
        out.append("")
    for t in arg.trace_links:
        out.append(_trace_line(t))
    if arg.orphans:
        out.append("")
        out.append("# orphaned")
        for entry in arg.orphans:
            if isinstance(entry, Annotation):
                out.append(_annotation_line(entry))
            else:
                out.append(_trace_line(entry))
    return "\n".join(out).rstrip("\n") + "\n"


_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class _DslParser:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.i = 0
        self.in_orphans = False

    def error(self, msg):
        raise GsnError(f"line {self.i + 1}: {msg}")

    def parse(self):
        name = None
        version = 1
        nodes, links, annotations, trace_links, orphans = [], [], [], [], []
        extensions = set()
        pending_node = None

        while self.i < len(self.lines):
            raw = self.lines[self.i]
            line = raw.strip()
            if pending_node is not None:
                if not line.startswith('"'):
                    self.error(f"expected quoted description for {pending_node[1]}")
                kind, nid, ver = pending_node
                nodes.append(GsnNode(nid, kind, _unquote(line), ver))
                pending_node = None
                self.i += 1
                continue
            if not line:
                self.i += 1
                continue
            if line == "# orphaned":
                self.in_orphans = True
                self.i += 1
                continue
            if line.startswith("#"):
                self.i += 1
                continue
            parts = self._split(line)
            head = parts[0]
            if head == "argument":
                name = _unquote(parts[1])
                if len(parts) >= 4 and parts[2] == "version":
                    version = int(parts[3])
            elif head == "extend":
                extensions.add(parts[1])
            elif head in NODE_KINDS:
                if len(parts) != 4 or parts[2] != "version":
                    self.error(f"malformed node line: {line!r}")
                pending_node = (head, parts[1], int(parts[3]))
            elif head in ("supported-by", "in-context-of"):
                if len(parts) != 3:
                    self.error(f"malformed link line: {line!r}")
                links.append(GsnLink(head, parts[1], parts[2]))
            elif head == "annotate":
                entry = self._annotation(parts, line)
                (orphans if self.in_orphans else annotations).append(entry)
            elif head == "trace":
                entry = self._trace(parts, line)
                (orphans if self.in_orphans else trace_links).append(entry)
            else:
                self.error(f"unrecognized directive {head!r}")
            self.i += 1

        if pending_node is not None:
            self.error(f"missing description for {pending_node[1]}")
        if name is None:
            raise GsnError("missing 'argument' header")
        arg = ArgumentModel(name, tuple(nodes), tuple(links), tuple(annotations),
                            tuple(trace_links), version, frozenset(extensions),
                            tuple(orphans))
        self._check_refs(arg)
        return arg

    def _split(self, line):
        # Tokenize, keeping quoted strings intact.
        out = []
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            if line[pos] == '"':
                m = _STRING_RE.match(line, pos)
                if not m:
                    self.error(f"unterminated string in {line!r}")
                out.append(m.group())
                pos = m.end()
            else:
                # A token may embed a quoted string (key="a b"); spaces
                # inside the quotes do not end the token.
                end = pos
                while end < len(line) and not line[end].isspace():
                    if line[end] == '"':
                        m = _STRING_RE.match(line, end)
                        if not m:
                            self.error(f"unterminated string in {line!r}")
                        end = m.end()
                    else:
                        end += 1
                out.append(line[pos:end])
                pos = end
        return out

    def _annotation(self, parts, line):
        if len(parts) < 4:
            self.error(f"malformed annotate line: {line!r}")
        node_id = parts[1]
        if parts[2] == "stereotype":
            m = re.fullmatch(r"<<(\w+)>>", parts[3])
            if not m:
                self.error(f"malformed stereotype in {line!r}")
            return Annotation.stereotype(node_id, m.group(1))
        if parts[2] == "placeholder":
            m = re.fullmatch(r'(\w+)=("(?:[^"\\]|\\.)*")', parts[3])
            if not m:
                self.error(f"malformed placeholder in {line!r}")
            return Annotation.placeholder(node_id, m.group(1), _unquote(m.group(2)))
        self.error(f"unknown annotation kind {parts[2]!r}")

    def _trace(self, parts, line):
        if len(parts) < 4:
            self.error(f"malformed trace line: {line!r}")
        node_id, artifact_kind = parts[1], parts[2]
        ref = _unquote(parts[3]) if parts[3].startswith('"') else parts[3]
        fingerprint = None
        if len(parts) == 6 and parts[4] == "fingerprint":
            fingerprint = parts[5]
        elif len(parts) != 4:
            self.error(f"malformed trace line: {line!r}")
        return TraceLink(node_id, artifact_kind, ref, fingerprint)

    def _check_refs(self, arg):
        ids = arg.node_ids()
        for l in arg.links:
            if l.source not in ids or l.target not in ids:
                raise GsnError(f"link references unknown node: "
                               f"{l.source} -> {l.target}")
        for a in arg.annotations:
            if a.node_id not in ids:
                raise GsnError(f"annotation references unknown node '{a.node_id}'")
        for t in arg.trace_links:
            if t.node_id not in ids:
                raise GsnError(f"trace link references unknown node '{t.node_id}'")


def parse_dsl(text: str) -> ArgumentModel:
    """Parse the .gsn text format; raises GsnError with line numbers."""
    return _DslParser(text).parse()


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
    for l in sorted(arg.links, key=lambda l: (l.kind, l.source, l.target)):
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
