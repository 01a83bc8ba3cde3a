"""Verification-to-assurance transformation.

Builds a GSN argument from a property set and its verification results:
one root goal, one decomposition strategy, and a goal/context/solution triple
per property, with trace links carrying content fingerprints so that later
regenerations can bump versions only where something actually changed.

Node id scheme: ``G.root``, ``S.byProperty``, ``G.<prop>``, ``C.<prop>``,
``E.<prop>``.  Property names are the stable key across regenerations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .diagnostics import CassureError
from .engine import VerificationResult, render_value, result_fingerprint
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
                                     result_fingerprint(res)))
        if res.verdict is False or res.marginal:
            annotations.append(Annotation.stereotype(gid, "DeferredEvidence"))

    return ArgumentModel(model_ref.name, tuple(nodes), tuple(links),
                         tuple(annotations), tuple(trace_links))


def _node_fingerprints(arg):
    """Per-node view of generated trace fingerprints used for change
    detection; a goal inherits its supporting solution's result fingerprint."""
    own = {}
    for t in arg.trace_links:
        if t.artifact_kind == "external-evidence":
            continue
        own.setdefault(t.node_id, []).append((t.artifact_kind, t.ref, t.fingerprint))
    fp = dict(own)
    for l in arg.links:
        if l.kind == "supported-by" and l.target.startswith("E."):
            fp.setdefault(l.source, []).extend(own.get(l.target, []))
    return fp


def regenerate(previous: ArgumentModel, fresh: ArgumentModel) -> ArgumentModel:
    """Merge manual annotations into a freshly built argument and bump the
    version of every node whose description or linked result changed."""
    merged = merge_annotations(fresh, previous)
    prev_nodes = {n.id: n for n in previous.nodes}
    prev_fp = _node_fingerprints(previous)
    new_fp = _node_fingerprints(merged)

    bumped = False
    nodes = []
    for n in merged.nodes:
        prev = prev_nodes.get(n.id)
        if prev is None:
            nodes.append(replace(n, version=1))
            continue
        changed = (n.description != prev.description or
                   sorted(new_fp.get(n.id, [])) != sorted(prev_fp.get(n.id, [])))
        if changed:
            nodes.append(replace(n, version=prev.version + 1))
            bumped = True
        else:
            nodes.append(replace(n, version=prev.version))
    version = previous.version + 1 if bumped else previous.version
    return replace(merged, nodes=tuple(nodes), version=version)

