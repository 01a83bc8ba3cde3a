import re
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from cassure import (
    Annotation, ArgumentModel, GsnError, GsnLink, GsnNode, TraceLink,
    export_dot, merge_annotations, parse_dsl, serialize_dsl, validate_argument,
)
from cassure.diagnostics import depth_first
from cassure.gsn import _WHITESPACE, NODE_KINDS


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


def test_a_goal_deferred_and_discharged_at_once_is_an_error():
    arg = small_arg()
    status = tuple(Annotation.stereotype("G2", s)
                   for s in ("DeferredEvidence", "EvidenceProvided"))
    for one in status:
        one_only = replace(arg, annotations=arg.annotations + (one,))
        assert [d for d in validate_argument(one_only) if d.severity == "error"] == []
    both = replace(arg, annotations=arg.annotations + status)
    assert [(d.severity, d.message) for d in validate_argument(both)] == [
        ("error", "node 'G2' holds both DeferredEvidence and EvidenceProvided")]


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


def _chain_text(n, back_to=None):
    """A parsed-able argument whose goals G0..G(n-1) form one supported-by
    chain, closed into a cycle from the last goal to G`back_to` if given."""
    lines = ['argument "chain" version 1', ""]
    for i in range(n):
        lines += [f"goal G{i} version 1", f'  "claim {i}"']
    lines.append("")
    lines += [f"supported-by G{i} G{i + 1}" for i in range(n - 1)]
    if back_to is not None:
        lines.append(f"supported-by G{n - 1} G{back_to}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("back_to,expected", [
    (None, []), (1000, ["supported-by cycle through 'G1000'"])])
def test_long_supported_by_chain_validates(back_to, expected):
    # The cycle search once recursed per link and overflowed on such chains.
    arg = parse_dsl(_chain_text(1500, back_to))
    assert [d.message for d in validate_argument(arg)] == expected


def test_depth_first_reports_each_closing_edge_and_reaches_each_node_once():
    # Two cycles pass through b: b -> c -> b and a -> b -> a.  e reaches c
    # after c is done, which closes no cycle.
    edges = {"a": [("b", "ab")], "b": [("c", "bc"), ("a", "ba"), ("d", "bd")],
             "c": [("b", "cb")], "d": [], "e": [("c", "ec")]}
    order, closing = depth_first("abcde", lambda u: edges[u])
    assert closing == ["cb", "ba"]
    assert order == ["c", "d", "b", "a", "e"]


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


_HEAD = 'argument "x" version 1\n\ngoal G1 version 1\n  "d"\n'


@pytest.mark.parametrize("text,line", [
    pytest.param("argument\n", 1, id="bare-argument"),
    pytest.param('argument "x" version 1\nextend\n', 2, id="bare-extend"),
    pytest.param('argument "x" version 1\ngoal G1 version one\n  "d"\n', 2,
                 id="word-version"),
    pytest.param('argument "x" version 1\ngoal G1 version 1\n  "d" trailing\n',
                 3, id="description-trailing"),
    pytest.param('argument "x" version 1\ngoal G1 version 1\n  "d\n', 3,
                 id="description-unterminated"),
    pytest.param('argument "x" versoin 3\n', 1, id="header-misspelt"),
    pytest.param(_HEAD + "annotate G1 stereotype <<Reopened>> extra\n", 5,
                 id="annotate-extra-token"),
    pytest.param(_HEAD + 'annotate G1 placeholder deferred="a" "b"\n', 5,
                 id="placeholder-extra-string"),
    pytest.param(_HEAD + 'annotate G1 placeholder deferred="\\q"\n', 5,
                 id="bad-escape"),
    pytest.param(_HEAD + "trace G1 property P_x\n", 5, id="trace-unquoted"),
    pytest.param(_HEAD + 'trace G1 property "P_x" fingerprint\n', 5,
                 id="trace-bare-fingerprint"),
    pytest.param(_HEAD + "supported-by G1\n", 5, id="link-one-end"),
    pytest.param('argument "x" version 1\ngoal G1 version 1\n', 3,
                 id="description-blank"),
    pytest.param('argument "x" version 1\ngoal G1 version 1', 3,
                 id="description-at-end"),
])
def test_malformed_line_names_its_line(text, line):
    with pytest.raises(GsnError, match=f"^line {line}: "):
        parse_dsl(text)


def test_crlf_tabs_and_surrounding_whitespace_read_as_the_plain_form():
    plain = serialize_dsl(small_arg())
    # A tab after the first token, \f and a Unicode space before each line,
    # trailing blanks and a CRLF after it; no string holds a changed byte.
    noisy = "\n".join("\x0c\u3000" + l.replace(" ", "\t ", 1) + " \t\r"
                      for l in plain.split("\n"))
    assert "\r\n" in noisy and "\t" in noisy
    assert parse_dsl(noisy) == parse_dsl(plain)
    assert serialize_dsl(parse_dsl(noisy)) == plain


def test_the_whitespace_class_is_what_str_isspace_accepts():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(f"[{_WHITESPACE}]", every) == \
        [c for c in every if c.isspace()]


def test_a_malformed_line_after_crlf_lines_names_its_line():
    text = 'argument "x" version 1\r\n\r\ngoal G1 version 1\r\n  "d"\r\nbogus \r\n'
    with pytest.raises(GsnError, match=r"^line 5: malformed line 'bogus'$"):
        parse_dsl(text)


@pytest.mark.parametrize("text,line", [
    pytest.param('argument "\\q" version 1\n', 1, id="header"),
    pytest.param('argument "x" version 1\ngoal G1 version 1\n  "\\q"\n', 3,
                 id="description"),
    pytest.param(_HEAD + 'annotate G1 placeholder deferred="a\\x"\n', 5,
                 id="placeholder"),
    pytest.param(_HEAD + 'trace G1 property "\\q" fingerprint ab\n', 5,
                 id="trace-ref"),
])
def test_a_bad_escape_names_the_line_of_its_string(text, line):
    with pytest.raises(GsnError, match=f"^line {line}: Invalid \\\\escape"):
        parse_dsl(text)


@pytest.mark.parametrize("text,message", [
    pytest.param('argument "x" version 1\ngoal G1 version 1',
                 "line 3: missing the description of G1", id="at-end"),
    pytest.param('argument "x" version 1\ngoal G1 version 1\n',
                 "line 3: expected the quoted description of G1", id="blank"),
    pytest.param('argument "x" version 1\ngoal G1 version 1\n# d\n  "d"\n',
                 "line 3: expected the quoted description of G1", id="comment"),
    pytest.param('argument "x" version 1\n  "d"\n',
                 "line 2: malformed line '\"d\"'", id="no-node"),
])
def test_a_node_needs_its_description_on_the_next_line(text, message):
    with pytest.raises(GsnError) as e:
        parse_dsl(text)
    assert str(e.value) == message


def test_only_the_exact_orphaned_comment_starts_the_quarantine():
    stereo = "annotate G1 stereotype <<Reopened>>\n"
    for comment, orphaned in (("#orphaned", False), ("# orphaned x", False),
                              ("#  orphaned", False), ("  # orphaned\t", True)):
        arg = parse_dsl(_HEAD + comment + "\n" + stereo)
        assert (arg.orphans, arg.annotations) == (
            ((Annotation.stereotype("G1", "Reopened"),), ()) if orphaned
            else ((), (Annotation.stereotype("G1", "Reopened"),))), comment


@pytest.mark.parametrize("record,field", [
    (GsnNode("G1", "goal", "d"), "version"),
    (GsnLink("supported-by", "G1", "E1"), "target"),
    (Annotation.placeholder("G1", "deferred", "x"), "value"),
    (TraceLink("E1", "verification-result", "P_x", "ab12"), "fingerprint"),
])
def test_records_are_immutable_and_hashable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, "changed")
    assert {record: 1}[record] == 1


def test_an_annotation_and_a_trace_link_with_equal_fields_both_stay_orphans():
    ann = Annotation("G9", "external-evidence", "G8", "doc")
    trace = TraceLink("G9", "external-evidence", "G8", "doc")
    prev = ArgumentModel("x", nodes=(GsnNode("G8", "goal", "g8"),
                                     GsnNode("G9", "goal", "g9")),
                         annotations=(ann,), trace_links=(trace,))
    merged = merge_annotations(ArgumentModel("x"), prev)
    assert [(type(e), e) for e in merged.orphans] == [(Annotation, ann),
                                                     (TraceLink, trace)]


def test_an_annotation_never_equals_a_trace_link_with_equal_fields():
    ann = Annotation("G9", "external-evidence", "G8", "doc")
    trace = TraceLink("G9", "external-evidence", "G8", "doc")
    assert ann != trace and not ann == trace and hash(ann) == hash(trace)
    assert len({ann, trace}) == 2
    assert ann == Annotation(*ann) and not ann != Annotation(*ann)
    assert ArgumentModel("x", orphans=(ann,)) != ArgumentModel("x", orphans=(trace,))


def _with(**fields):
    return lambda: replace(small_arg(), **fields)


@pytest.mark.parametrize("build, message", [
    (_with(nodes=small_arg().nodes + (GsnNode("G2", "context", "again"),)),
     "duplicate node id 'G2'"),
    (_with(links=small_arg().links + (GsnLink("supported-by", "G2", "E9"),)),
     "link references unknown node: G2 -> E9"),
    (_with(links=(GsnLink("in-context-of", "G9", "C1"),)),
     "link references unknown node: G9 -> C1"),
    (_with(annotations=(Annotation.stereotype("G9", "Reopened"),)),
     "annotation references unknown node 'G9'"),
    (_with(trace_links=(TraceLink("G9", "external-evidence", "doc"),)),
     "trace link references unknown node 'G9'"),
    (lambda: small_arg().edit_annotations(
        add=(Annotation.placeholder("G9", "evidence_cost", "1h"),), drop=()),
     "annotation references unknown node 'G9'"),
    (lambda: ArgumentModel("x", nodes=(GsnNode("G1", "goal", "a"),
                                       GsnNode("G1", "goal", "b"))),
     "duplicate node id 'G1'"),
], ids=["duplicate", "link-target", "link-source", "annotation", "trace",
        "edit", "constructor"])
def test_every_argument_value_obeys_the_reference_rule(build, message):
    with pytest.raises(GsnError) as info:
        build()
    assert str(info.value) == message


def test_orphans_may_name_a_missing_node():
    arg = ArgumentModel("x", orphans=(Annotation.stereotype("G9", "Reopened"),
                                      TraceLink("G9", "external-evidence", "doc")))
    assert parse_dsl(serialize_dsl(arg)) == arg


def test_a_duplicate_node_line_is_a_read_error():
    with pytest.raises(GsnError, match="^duplicate node id 'G1'$"):
        parse_dsl(_HEAD + 'goal G1 version 2\n  "again"\n')


def test_control_characters_round_trip_as_json_escapes():
    arg = ArgumentModel("q\tr", nodes=(GsnNode("G1", "goal", "a\nb\x00c"),),
                        annotations=(Annotation.placeholder(
                            "G1", "runtime_log", "line1\r\nline2"),))
    text = serialize_dsl(arg)
    assert '"a\\nb\\u0000c"' in text and '"line1\\r\\nline2"' in text
    assert parse_dsl(text) == arg


def test_raw_tab_inside_a_string_still_parses():
    arg = parse_dsl(_HEAD.replace('"d"', '"a\tb"'))
    assert arg.node("G1").description == "a\tb"


@pytest.mark.parametrize("bad", ["my prop", 'say"x"', "", "a\nb"])
def test_ids_the_format_cannot_hold_are_errors(bad):
    arg = small_arg()
    nodes = arg.nodes + (GsnNode(bad, "context", "odd id"),)
    links = arg.links + (GsnLink("in-context-of", "G1", bad),)
    errors = [d.message for d in validate_argument(
        ArgumentModel(arg.name, nodes, links)) if d.severity == "error"]
    assert any(m.startswith(f"node id {bad!r}") for m in errors)
    assert any(m.startswith(f"link endpoint {bad!r}") for m in errors)


# ---- hypothesis: parse_dsl inverts serialize_dsl ----

_ids = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                             blacklist_characters='"'), min_size=1, max_size=8)
_names = st.from_regex(r"\w+", fullmatch=True)


@st.composite
def arguments(draw):
    ids = sorted(draw(st.sets(_ids, min_size=1, max_size=5)))
    nodes = tuple(GsnNode(i, draw(st.sampled_from(NODE_KINDS)), draw(st.text()),
                          draw(st.integers(-3, 10**6))) for i in ids)
    node_id = st.sampled_from(ids)
    links = tuple(sorted(draw(st.lists(st.builds(
        GsnLink, st.sampled_from(("supported-by", "in-context-of")),
        node_id, node_id), max_size=4)),
        key=lambda l: (l.kind, l.source, l.target)))
    fingerprints = st.none() | _ids

    def annotations(on):
        return st.builds(Annotation.placeholder, on, _names, st.text()) \
            | st.builds(Annotation.stereotype, on, _names)

    def traces(on):
        return st.builds(TraceLink, on, _ids, st.text(), fingerprints)
    return ArgumentModel(
        draw(st.text()), nodes, links,
        tuple(draw(st.lists(annotations(node_id), max_size=4))),
        tuple(draw(st.lists(traces(node_id), max_size=3))),
        draw(st.integers(-3, 10**6)), frozenset(draw(st.sets(_ids, max_size=2))),
        tuple(draw(st.lists(annotations(_ids) | traces(_ids), max_size=3))))


@settings(max_examples=100, deadline=None)
@given(arguments())
@example(ArgumentModel("line1\nline2\\ \"q\" \t é", nodes=(
    GsnNode("G1", "goal", "\u2028\x85\x0c"),)))
def test_parse_inverts_serialize(arg):
    assert parse_dsl(serialize_dsl(arg)) == arg


@st.composite
def edits(draw):
    """An argument, annotations to add (on its node ids or others, some
    equal to its own) and (node id, kind, name) keys to drop (some of them
    its own annotations' keys)."""
    arg = draw(arguments())
    on = st.sampled_from(sorted(arg.node_ids())) | _ids
    new = st.builds(Annotation.stereotype, on, _names) \
        | st.builds(Annotation.placeholder, on, _names, st.text())
    add = draw(st.lists(new | st.sampled_from(arg.annotations or (Annotation.stereotype(
        arg.nodes[0].id, "Reopened"),)), max_size=5))
    keys = st.tuples(on, st.sampled_from(("placeholder", "stereotype")), _names)
    drop = draw(st.lists(keys | st.sampled_from(
        [(a.node_id, a.kind, a.name) for a in arg.annotations] or [("x", "y", "z")]),
        max_size=3))
    return arg, add, drop


def _outcome(build):
    try:
        return build()
    except GsnError as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(edits())
def test_an_edit_checks_what_it_adds_as_the_full_rule_does(edit):
    arg, add, drop = edit
    kept = [a for a in arg.annotations if (a.node_id, a.kind, a.name) not in set(drop)]
    want = []
    for a in add:
        if a not in kept + want:
            want.append(a)
    got = _outcome(lambda: arg.edit_annotations(add, drop))
    assert got == _outcome(lambda: replace(arg, annotations=tuple(kept + want)))
    if not isinstance(got, str):
        assert got.node_ids() == arg.node_ids()


@settings(max_examples=50, deadline=None)
@given(arguments(), st.integers(1, 5))
def test_a_revision_that_keeps_the_ids_equals_a_rebuild(arg, bump):
    nodes = tuple(n._replace(version=n.version + bump, description=n.description + "!")
                  for n in arg.nodes)
    traces = tuple(t._replace(fingerprint="f") for t in arg.trace_links)
    assert arg.revise(nodes, traces) == replace(arg, nodes=nodes, trace_links=traces)
    moved = nodes[1:] + nodes[:1]
    if len(nodes) > 1:
        with pytest.raises(GsnError, match="keep every node id in place"):
            arg.revise(moved, traces)


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
