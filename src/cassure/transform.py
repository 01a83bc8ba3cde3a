"""Verification-to-assurance transformation.

Builds a GSN argument from a property set and its verification results:
one root goal, one decomposition strategy, and a goal/context/solution triple
per property, with trace links carrying content fingerprints so that later
regenerations can bump versions only where something actually changed.

Node id scheme: ``G.root``, ``S.byProperty``, ``G.<prop>``, ``C.<prop>``,
``E.<prop>``.  Property names are the stable key across regenerations; the
name ``root`` is reserved, since its goal would be the root goal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .diagnostics import CassureError
from .engine import VerificationResult, evidence, render_value
from .gsn import (
    Annotation, ArgumentModel, GsnLink, GsnNode, TraceLink, merge_annotations,
)


class TransformError(CassureError):
    pass


def solution_description(name, result: VerificationResult) -> str:
    """The description of the solution node of property ``name``."""
    return f"Verification result for {name}: {render_value(result)}"


@dataclass(frozen=True)
class ModelRef:
    name: str
    path: str
    fingerprint: str

    @staticmethod
    def for_text(name, path, text):
        return ModelRef(name, path, hashlib.sha256(text.encode()).hexdigest())


def property_fingerprint(prop) -> str:
    return hashlib.sha256(prop.source_text.encode()).hexdigest()


def build_argument(model_ref: ModelRef, props, results) -> ArgumentModel:
    """Assemble the argument; results must cover the property list exactly."""
    by_name = {r.property: r for r in results}
    prop_names = [p.name for p in props]
    if sorted(by_name) != sorted(prop_names):
        missing = set(prop_names) - set(by_name)
        extra = set(by_name) - set(prop_names)
        raise TransformError(
            f"results do not match properties (missing={sorted(missing)}, "
            f"extra={sorted(extra)})")
    for prop in props:
        if prop.name == "root":
            where = f"{prop.span}: " if prop.span else ""
            raise TransformError(f"{where}property name 'root' is reserved: its "
                                 f"goal would be the root goal G.root")

    # Descriptions are deliberately timestamp-free so regeneration is
    # deterministic (timestamps live in result records only).
    model = model_ref.name
    nodes = [
        GsnNode("G.root", "goal",
                f"Model {model} satisfies its verified property set"),
        GsnNode("S.byProperty", "strategy",
                "Argument over each individual verified property"),
    ]
    links = [GsnLink("supported-by", "G.root", "S.byProperty")]
    annotations = []
    trace_links = [TraceLink("G.root", "model-file", model_ref.path,
                             model_ref.fingerprint)]

    for prop in props:
        res = by_name[prop.name]
        ev = evidence(res)
        gid, cid, eid = f"G.{prop.name}", f"C.{prop.name}", f"E.{prop.name}"
        nodes.append(GsnNode(gid, "goal",
                             f"Property {prop.name} holds for model {model}"))
        nodes.append(GsnNode(cid, "context", f"Formula: {prop.source_text}"))
        nodes.append(GsnNode(eid, "solution",
                             solution_description(prop.name, res)))
        links.append(GsnLink("supported-by", "S.byProperty", gid))
        links.append(GsnLink("supported-by", gid, eid))
        links.append(GsnLink("in-context-of", gid, cid))
        trace_links.append(TraceLink(gid, "property", prop.name,
                                     property_fingerprint(prop)))
        trace_links.append(TraceLink(eid, "verification-result", prop.name,
                                     ev.fingerprint))
        if ev.deferred:
            annotations.append(Annotation.stereotype(gid, "DeferredEvidence"))

    return ArgumentModel(model_ref.name, tuple(nodes), tuple(links),
                         tuple(annotations), tuple(trace_links))


def _node_fingerprints(arg):
    """Per-node view of generated trace fingerprints used for change
    detection; a goal inherits its supporting solution's result fingerprint."""
    fp = {}
    for t in arg.trace_links:
        if t.artifact_kind != "external-evidence":
            fp.setdefault(t.node_id, []).append((t.artifact_kind, t.ref, t.fingerprint))
    for l in arg.links:
        if l.kind == "supported-by" and l.target.startswith("E."):
            fp.setdefault(l.source, []).extend(fp.get(l.target, []))
    return fp


def regenerate(previous: ArgumentModel, fresh: ArgumentModel) -> ArgumentModel:
    """Merge manual annotations into a freshly built argument and bump the
    version of every node whose description or linked result changed.  The
    argument's version goes up when such a node changed or when a node was
    added or removed.  The fresh evidence sets a goal's status: a deferred
    goal drops EvidenceProvided, a passing one that is not Reopened drops
    DeferredEvidence."""
    deferred = {a.node_id for a in fresh.annotations if a.name == "DeferredEvidence"}
    built = {t.node_id for t in fresh.trace_links if t.artifact_kind == "property"}
    reopened = {a.node_id for a in previous.annotations if a.name == "Reopened"}
    stale = [(g, "stereotype", "EvidenceProvided") for g in deferred] + [
        (g, "stereotype", "DeferredEvidence") for g in built - deferred - reopened]
    merged = merge_annotations(fresh, previous.edit_annotations(add=(), drop=stale))
    prev_nodes = {n.id: n for n in previous.nodes}
    prev_fp = _node_fingerprints(previous)
    new_fp = _node_fingerprints(merged)

    bumped = {n.id for n in merged.nodes} != prev_nodes.keys()
    nodes = []
    for n in merged.nodes:
        prev = prev_nodes.get(n.id)
        changed = prev is not None and (
            n.description != prev.description or
            sorted(new_fp.get(n.id, [])) != sorted(prev_fp.get(n.id, [])))
        bumped |= changed
        nodes.append(n._replace(version=prev.version + changed if prev else 1))
    version = previous.version + 1 if bumped else previous.version
    return replace(merged, nodes=tuple(nodes), version=version)

