import pytest

from cassure import (
    Annotation, ArgumentModel, GsnError, GsnLink, GsnNode, TraceLink,
    export_dot, merge_annotations, parse_dsl, serialize_dsl, validate_argument,
)


def small_arg():
    return ArgumentModel(
        "demo",
        nodes=(
            GsnNode("G1", "goal", "Top claim"),
            GsnNode("S1", "strategy", "Split by concern"),
            GsnNode("G2", "goal", "Sub claim"),
            GsnNode("C1", "context", "Operating envelope"),
            GsnNode("E1", "solution", "Test evidence"),
        ),
        links=(
            GsnLink("supported-by", "G1", "S1"),
            GsnLink("supported-by", "S1", "G2"),
            GsnLink("supported-by", "G2", "E1"),
            GsnLink("in-context-of", "G2", "C1"),
        ),
        annotations=(
            Annotation.placeholder("G2", "evidence_cost", "4h"),
            Annotation.stereotype("G2", "TraceMonitored"),
        ),
        trace_links=(
            TraceLink("E1", "verification-result", "P_x", "ab12"),
            TraceLink("G2", "external-evidence", "csp-assert-1"),
        ),
    )


def test_validation_clean():
    errors = [d for d in validate_argument(small_arg()) if d.severity == "error"]
    assert errors == []


def test_serialization_round_trip_and_determinism():
    arg = small_arg()
    text = serialize_dsl(arg)
    assert serialize_dsl(arg) == text
    back = parse_dsl(text)
    assert set(back.node_ids()) == set(arg.node_ids())
    assert set(back.links) == set(arg.links)
    assert set(back.annotations) == set(arg.annotations)
    assert set(back.trace_links) == set(arg.trace_links)
    # parse/serialize is a fixpoint
    assert serialize_dsl(back) == text


def test_description_quoting():
    arg = ArgumentModel("q", nodes=(
        GsnNode("G1", "goal", 'say "hi" and \\ escape'),))
    back = parse_dsl(serialize_dsl(arg))
    assert back.node("G1").description == 'say "hi" and \\ escape'


@pytest.mark.parametrize("source,target,ok", [
    ("G1", "S1", True), ("S1", "G2", True), ("G1", "G2", True),
    ("G2", "E1", True), ("S1", "E1", False), ("E1", "G1", False),
    ("S1", "C1", False),
])
def test_supported_by_kind_rules(source, target, ok):
    arg = small_arg()
    arg = ArgumentModel(arg.name, arg.nodes,
                        (GsnLink("supported-by", source, target),))
    errors = [d for d in validate_argument(arg)
              if d.severity == "error" and "kind rules" in d.message]
    assert (errors == []) is ok


def test_cycle_detected():
    arg = small_arg()
    cyc = arg.links + (GsnLink("supported-by", "G2", "G1"),)
    arg = ArgumentModel(arg.name, arg.nodes, cyc)
    assert any("cycle" in d.message for d in validate_argument(arg))


def test_multiple_roots_detected():
    arg = small_arg()
    nodes = arg.nodes + (GsnNode("G9", "goal", "Floating claim"),)
    arg = ArgumentModel(arg.name, nodes, arg.links)
    assert any("multiple root goals" in d.message
               for d in validate_argument(arg))


def test_unknown_vocabulary_warns_until_extended():
    arg = small_arg()
    oddity = Annotation.placeholder("G2", "weather", "sunny")
    with_odd = ArgumentModel(arg.name, arg.nodes, arg.links,
                             arg.annotations + (oddity,), arg.trace_links)
    warnings = [d for d in validate_argument(with_odd)
                if d.severity == "warning"]
    assert any("weather" in d.message for d in warnings)
    extended = ArgumentModel(arg.name, arg.nodes, arg.links,
                             with_odd.annotations, arg.trace_links,
                             extensions=frozenset({"weather"}))
    assert not any("weather" in d.message
                   for d in validate_argument(extended))


def test_runtime_log_is_builtin():
    arg = small_arg()
    ann = Annotation.placeholder("G2", "runtime_log", "events-3.log")
    arg = ArgumentModel(arg.name, arg.nodes, arg.links,
                        arg.annotations + (ann,), arg.trace_links)
    assert not any("runtime_log" in d.message for d in validate_argument(arg))


def test_parse_error_reports_line():
    text = serialize_dsl(small_arg()) + "\nbogus directive\n"
    with pytest.raises(GsnError, match="line"):
        parse_dsl(text)


def test_dangling_reference_rejected():
    with pytest.raises(GsnError, match="unknown node"):
        parse_dsl('argument "x" version 1\n\ngoal G1 version 1\n  "g"\n\n'
                  "annotate G9 stereotype <<Reopened>>\n")


def test_merge_preserves_and_quarantines():
    prev = small_arg()
    regenerated = ArgumentModel(
        prev.name,
        nodes=tuple(n for n in prev.nodes if n.id != "G2"),
        links=(GsnLink("supported-by", "G1", "S1"),))
    merged = merge_annotations(regenerated, prev)
    # G2's entries survive as orphans, nothing is silently dropped
    assert all(o.node_id == "G2" for o in merged.orphans)
    assert len(merged.orphans) == 3  # 2 annotations + external evidence trace
    # idempotent
    again = merge_annotations(merged, prev)
    assert again == merged


def test_merge_reattaches_external_evidence():
    prev = small_arg()
    fresh = ArgumentModel(prev.name, prev.nodes, prev.links,
                          trace_links=(prev.trace_links[0],))
    merged = merge_annotations(fresh, prev)
    assert TraceLink("G2", "external-evidence", "csp-assert-1") \
        in merged.trace_links
    assert set(merged.annotations) == set(prev.annotations)



def test_merge_keeps_order_and_appends_only_new_entries():
    prev = small_arg()
    p, s = Annotation.placeholder, Annotation.stereotype
    prev = ArgumentModel(
        prev.name, prev.nodes, prev.links,
        annotations=prev.annotations + (s("G1", "TraceMonitored"),
                                        p("G1", "evidence_cost", "1h"),
                                        p("G1", "evidence_cost", "2h")),
        trace_links=prev.trace_links + (
            TraceLink("G1", "external-evidence", "doc-1"),),
        orphans=(s("G9", "Reopened"),
                 TraceLink("G9", "external-evidence", "old")))
    regenerated = ArgumentModel(
        prev.name,
        nodes=tuple(n for n in prev.nodes if n.id != "G2"),
        links=(GsnLink("supported-by", "G1", "S1"),),
        annotations=(s("G1", "DeferredEvidence"), p("G1", "evidence_cost", "1h")),
        trace_links=(TraceLink("E1", "verification-result", "P_x", "cd34"),),
        orphans=(s("G9", "Reopened"),))
    merged = merge_annotations(regenerated, prev)
    assert merged.annotations == (
        s("G1", "DeferredEvidence"), p("G1", "evidence_cost", "1h"),
        s("G1", "TraceMonitored"), p("G1", "evidence_cost", "2h"))
    assert merged.placeholder_of("G1", "evidence_cost") == "1h"  # first stored
    assert merged.trace_links == (
        TraceLink("E1", "verification-result", "P_x", "cd34"),
        TraceLink("G1", "external-evidence", "doc-1"))
    assert merged.orphans == (
        s("G9", "Reopened"), p("G2", "evidence_cost", "4h"),
        s("G2", "TraceMonitored"),
        TraceLink("G2", "external-evidence", "csp-assert-1"),
        TraceLink("G9", "external-evidence", "old"))

def test_orphans_round_trip_through_dsl():
    prev = small_arg()
    regenerated = ArgumentModel(
        prev.name,
        nodes=tuple(n for n in prev.nodes if n.id != "G2"),
        links=(GsnLink("supported-by", "G1", "S1"),))
    merged = merge_annotations(regenerated, prev)
    text = serialize_dsl(merged)
    assert "# orphaned" in text
    back = parse_dsl(text)
    assert len(back.orphans) == len(merged.orphans)
    assert serialize_dsl(back) == text


def test_export_dot_shapes_and_stereotypes():
    dot = export_dot(small_arg())
    assert "shape=parallelogram" in dot
    assert "style=rounded" in dot
    assert "«TraceMonitored»" in dot
    assert '"G1" -> "S1" [style=solid]' in dot
    assert '"G2" -> "C1" [style=dashed]' in dot
