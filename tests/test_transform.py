from dataclasses import replace

import pytest

from cassure import (
    Annotation, bind_constants, build_dtmc, check_properties, parse_model,
    serialize_dsl, validate_argument,
)
from cassure.transform import ModelRef, TransformError, build_argument, regenerate


@pytest.fixture(scope="module")
def ref(model_text, model_path):
    return ModelRef.for_text("nuclear", str(model_path), model_text)


@pytest.fixture(scope="module")
def arg(ref, props, results):
    return build_argument(ref, props, results)


def test_structural_law(arg, props):
    n = len(props)
    assert len(arg.nodes) == 2 + 3 * n == 53
    supported = [l for l in arg.links if l.kind == "supported-by"]
    contexts = [l for l in arg.links if l.kind == "in-context-of"]
    assert len(supported) == 1 + 2 * n
    assert len(contexts) == n
    assert [g.id for g in arg.root_goals()] == ["G.root"]


def test_node_id_scheme(arg, props):
    ids = arg.node_ids()
    assert "G.root" in ids and "S.byProperty" in ids
    for p in props:
        assert {f"G.{p.name}", f"C.{p.name}", f"E.{p.name}"} <= ids


def test_validation_clean_and_deterministic(arg):
    assert [d for d in validate_argument(arg) if d.severity == "error"] == []
    assert serialize_dsl(arg) == serialize_dsl(arg)


def test_trace_links_cover_artifacts(arg, props):
    kinds = {}
    for t in arg.trace_links:
        kinds.setdefault(t.artifact_kind, []).append(t)
    assert len(kinds["model-file"]) == 1
    assert len(kinds["property"]) == len(props)
    assert len(kinds["verification-result"]) == len(props)
    assert all(t.fingerprint for t in arg.trace_links)


def test_failed_and_marginal_goals_marked_deferred(arg, results):
    failing = {r.property for r in results if r.verdict is False}
    assert failing == {"P_warnMode", "P_critMode", "P_noOpOutside"}
    for name in failing:
        assert "DeferredEvidence" in arg.stereotypes_of(f"G.{name}")
    assert "DeferredEvidence" not in arg.stereotypes_of("G.P_succ")


def test_results_must_cover_properties(ref, props, results):
    with pytest.raises(TransformError, match="missing"):
        build_argument(ref, props, results[:-1])


def test_solution_descriptions_render_results(arg):
    assert "0.932065" in arg.node("E.P_succ").description
    assert "+∞" in arg.node("E.R_moves").description
    assert "holds" in arg.node("E.P_fullSpeed").description


def test_regenerate_is_a_fixpoint(arg, ref, props, results):
    fresh = build_argument(ref, props, results)
    merged = regenerate(arg, fresh)
    assert serialize_dsl(merged) == serialize_dsl(arg)
    assert merged.version == arg.version


def test_regenerate_bumps_the_version_when_a_property_is_added(arg, ref, props,
                                                              results):
    fewer = build_argument(ref, props[:-1], results[:-1])
    grown = regenerate(fewer, arg)
    assert grown.version == fewer.version + 1
    assert len(grown.nodes) == len(fewer.nodes) + 3
    assert {n.version for n in grown.nodes} == {1}


def test_regenerate_bumps_the_version_when_a_property_is_removed(arg, ref, props,
                                                                results):
    shrunk = regenerate(arg, build_argument(ref, props[2:], results[2:]))
    assert shrunk.version == arg.version + 1
    assert len(shrunk.nodes) == len(arg.nodes) - 6
    assert {n.version for n in shrunk.nodes} == {1}


def test_a_property_named_root_is_reserved(ref, props, results):
    named = [replace(props[0], name="root")] + props[1:]
    renamed = [replace(results[0], property="root")] + results[1:]
    with pytest.raises(TransformError, match=r"^nuclear.props:2:1: property name "
                       "'root' is reserved: its goal would be the root goal G.root$"):
        build_argument(ref, named, renamed)


def test_regenerate_bumps_only_changed(arg, model_text, model_path, props):
    """A changed constant shifts only P_succ-like values; exactly those
    nodes bump."""
    ast = parse_model(model_text)
    bound = bind_constants(ast, {"p_err": 0.015})
    space = build_dtmc(bound)
    new_results = check_properties(space, props)
    ref2 = ModelRef.for_text("nuclear", str(model_path),
                             model_text + "\n// p_err now 0.015\n")
    fresh = build_argument(ref2, props, new_results)
    merged = regenerate(arg, fresh)
    assert merged.version == arg.version + 1

    old = {n.id: n for n in arg.nodes}
    changed_props = set()
    old_res = {t.ref: t.fingerprint for t in arg.trace_links
               if t.artifact_kind == "verification-result"}
    new_res = {t.ref: t.fingerprint for t in merged.trace_links
               if t.artifact_kind == "verification-result"}
    changed_props = {p for p in old_res if old_res[p] != new_res[p]}
    assert changed_props  # the override moved at least one value

    for n in merged.nodes:
        prev = old[n.id]
        if n.id == "G.root":
            assert n.version == prev.version + 1  # model file changed
        elif n.id.startswith(("G.", "E.")) and n.id.split(".", 1)[1] in changed_props:
            assert n.version == prev.version + 1, n.id
        else:
            assert n.version == prev.version, n.id


def test_regenerate_keeps_manual_annotations(arg, ref, props, results):
    manual = Annotation.placeholder("G.P_succ", "evidence_cost", "2h")
    previous = replace(arg, annotations=arg.annotations + (manual,))
    fresh = build_argument(ref, props, results)
    merged = regenerate(previous, fresh)
    assert merged.placeholder_of("G.P_succ", "evidence_cost") == "2h"


def test_regenerate_takes_each_goal_status_from_the_fresh_evidence(
        arg, ref, props, results):
    def deferred(a):
        return {x.node_id for x in a.annotations if x.name == "DeferredEvidence"}

    # P_warnMode flips from violated to holds: no stale DeferredEvidence.
    flipped = [replace(r, verdict=True) if r.property == "P_warnMode" else r
               for r in results]
    fresh = build_argument(ref, props, flipped)
    merged = regenerate(arg, fresh)
    assert deferred(merged) == deferred(fresh)
    assert "G.P_warnMode" not in deferred(merged)
    assert merged.node("E.P_warnMode").description.endswith("holds")

    # Back to violated: an earlier EvidenceProvided goes.  A Reopened goal
    # keeps its DeferredEvidence although its fresh result passes.
    previous = replace(merged, annotations=merged.annotations + (
        Annotation.stereotype("G.P_warnMode", "EvidenceProvided"),
        Annotation.stereotype("G.P_succ", "Reopened"),
        Annotation.stereotype("G.P_succ", "DeferredEvidence")))
    again = regenerate(previous, build_argument(ref, props, results))
    assert again.stereotypes_of("G.P_warnMode") == {"DeferredEvidence"}
    assert again.stereotypes_of("G.P_succ") == {"Reopened", "DeferredEvidence"}
    assert deferred(again) == deferred(arg) | {"G.P_succ"}
