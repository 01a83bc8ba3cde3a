import json
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pinned
from cassure import (
    Annotation, ArgumentModel, CassureError, GsnError, GsnLink, GsnNode, LifecycleError,
    TraceLink, VerificationResult, bind_constants, build_dtmc, check_properties,
    parse_model, parse_properties, parse_results, result_fingerprint,
    validate_argument,
)
from cassure.lifecycle import (
    EvolutionPackage, FileDelta, ImpactReport, MonitorEvent, apply_regeneration,
    impact_analysis, ingest_monitor_events, load_package, parse_evidence_cost,
    parse_monitor_events, parse_plan, plan_regeneration, serialize_plan,
)
from cassure.transform import ModelRef, build_argument, regenerate


@pytest.fixture()
def arg(model_text, model_path, props, results):
    ref = ModelRef.for_text("nuclear", str(model_path), model_text)
    base = build_argument(ref, props, results)
    extra = (
        Annotation.placeholder("G.P_succ", "monitor_id", "mon.succ"),
        Annotation.placeholder("G.P_succ", "confidence_threshold", "0.9"),
        Annotation.placeholder("G.P_succ", "evidence_cost", "2h"),
        Annotation.placeholder("G.P_timeBound", "monitor_id", "mon.time"),
        Annotation.placeholder("G.P_timeBound", "evidence_cost", "1d"),
    )
    return replace(base, annotations=base.annotations + extra)


# ---- monitor events ----

def test_event_parsing_and_validation():
    text = ('{"timestamp": "2026-08-01T10:00:00Z", "monitor_id": "m1", '
            '"kind": "violation", "detail": "saw rad=2 in patrol"}\n'
            '{"timestamp": "2026-08-01T11:00:00Z", "monitor_id": "m2", '
            '"kind": "confidence", "value": 0.42}\n')
    events = parse_monitor_events(text)
    assert [e.kind for e in events] == ["violation", "confidence"]
    with pytest.raises(LifecycleError, match="malformed"):
        parse_monitor_events('{"monitor_id": "m"}\n')
    with pytest.raises(LifecycleError, match="\\[0,1\\]"):
        MonitorEvent("t", "m", "confidence", 1.5)
    with pytest.raises(LifecycleError, match="kind"):
        MonitorEvent("t", "m", "oops")


def test_an_event_that_fails_its_check_names_its_line():
    good = '{"timestamp": "t", "monitor_id": "m", "kind": "violation"}\n'
    with pytest.raises(LifecycleError) as e:
        parse_monitor_events(good + good.replace("violation", "oops"))
    assert str(e.value) == "malformed event record on line 2: unknown event kind 'oops'"
    with pytest.raises(LifecycleError) as e:
        parse_monitor_events(good.replace('"violation"', '"confidence", "value": 2'))
    assert str(e.value) == ("malformed event record on line 1: "
                            "confidence event needs a value in [0,1], got 2")


def test_violation_reopens_goal(arg):
    ev = MonitorEvent("2026-08-01T10:00:00Z", "mon.time", "violation",
                      payload="runtime-17.log")
    out, report = ingest_monitor_events(arg, [ev])
    assert ("G.P_timeBound", "violation") in report.reopened
    assert "Reopened" in out.stereotypes_of("G.P_timeBound")
    assert out.placeholder_of("G.P_timeBound", "runtime_log") == "runtime-17.log"
    # ingestion is append-only and repeatable
    again, _ = ingest_monitor_events(out, [ev])
    assert again.annotations == out.annotations


def test_low_confidence_reopens_with_deferred(arg):
    ev = MonitorEvent("t", "mon.succ", "confidence", 0.5)
    out, report = ingest_monitor_events(arg, [ev])
    assert ("G.P_succ", "confidence") in report.reopened
    assert {"Reopened", "DeferredEvidence"} <= out.stereotypes_of("G.P_succ")


def test_high_confidence_is_noop(arg):
    ev = MonitorEvent("t", "mon.succ", "confidence", 0.95)
    out, report = ingest_monitor_events(arg, [ev])
    assert report.reopened == []
    assert report.unchanged == ["G.P_succ"]
    assert out.annotations == arg.annotations


def test_unmatched_monitor_reported_not_fatal(arg):
    out, report = ingest_monitor_events(
        arg, [MonitorEvent("t", "mon.ghost", "violation")])
    assert report.unmatched == ["mon.ghost"]
    assert out.annotations == arg.annotations


# ---- evolution packages and impact ----

def test_package_loading(tmp_path):
    (tmp_path / "package.json").write_text(json.dumps({
        "changed_files": [{"path": "nuclear.prism", "old_fingerprint": "a",
                           "new_fingerprint": "b"}],
        "incident_notes": "constant tweak",
    }))
    pkg = load_package(tmp_path)
    assert pkg.changed_files[0].changed
    with pytest.raises(LifecycleError, match="manifest"):
        load_package(tmp_path / "nope")
    (tmp_path / "package.json").write_text("{}")
    with pytest.raises(LifecycleError, match="triggering"):
        load_package(tmp_path)


def test_file_delta_without_fingerprints_reads_as_empty(tmp_path):
    (tmp_path / "package.json").write_text(json.dumps({
        "changed_files": [{"path": "nuclear.prism"}],
        "reopened_goals": ["G.P_succ"]}))
    assert load_package(tmp_path).changed_files == (
        FileDelta("nuclear.prism", "", ""),)


@pytest.mark.parametrize("manifest, error", [
    ("[]", "expected a JSON object, got []"),
    ('{"changed_files": {}}', "'changed_files' has the wrong type: {}"),
    ('{"changed_files": [1]}', "expected a JSON object, got 1"),
    ('{"changed_files": [{"old_fingerprint": "a"}]}', "missing key 'path'"),
    ('{"reopened_goals": [1]}', "'reopened_goals' holds a non-string: [1]"),
    ('{"incident_notes": 3}', "'incident_notes' has the wrong type: 3"),
    ('{"monitor_logs": "x"}', "'monitor_logs' has the wrong type: 'x'"),
    ('{"changed_files": [{"path": "m", "new_fingerprint": 5}]}',
     "'new_fingerprint' has the wrong type: 5"),
    ("{bad", "Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
])
def test_a_malformed_manifest_names_its_fault(tmp_path, manifest, error):
    path = tmp_path / "package.json"
    path.write_text(manifest)
    with pytest.raises(LifecycleError) as e:
        load_package(tmp_path)
    assert str(e.value) == f"{path}: malformed package manifest: {error}"


def test_empty_package_all_valid(arg):
    report, out = impact_analysis(arg, EvolutionPackage())
    assert set(report.classifications.values()) == {"valid"}
    assert "ImpactAnalysis" in out.stereotypes_of("S.byProperty")
    assert out.placeholder_of("S.byProperty", "impact_summary") == \
        report.summary
    assert report.summary.startswith("valid=18 ")


def test_model_change_without_recheck_is_uncertain(arg, model_path):
    pkg = EvolutionPackage(changed_files=(
        FileDelta(str(model_path), "a", "b"),))
    report, _ = impact_analysis(arg, pkg)
    assert report.classifications["G.P_succ"] == "uncertain"
    assert report.classifications["G.root"] == "uncertain"
    # every goal classified exactly once
    assert len(report.classifications) == 18


def test_model_change_with_confirming_recheck_is_valid(arg, model_path,
                                                       results):
    pkg = EvolutionPackage(changed_files=(
        FileDelta(str(model_path), "a", "b"),))
    report, _ = impact_analysis(arg, pkg, fresh_results=results,
                                baseline_results=results)
    for name in ("G.P_succ", "G.P_forb", "G.R_moves"):
        assert report.classifications[name] == "valid", name


def test_changed_result_is_invalid(arg, model_path, model_text, props,
                                   results):
    bound = bind_constants(parse_model(model_text), {"p_err": 0.015})
    fresh = check_properties(build_dtmc(bound), props)
    pkg = EvolutionPackage(changed_files=(
        FileDelta(str(model_path), "a", "b"),))
    report, _ = impact_analysis(arg, pkg, fresh_results=fresh,
                                baseline_results=results)
    assert report.classifications["G.P_succ"] == "invalid"
    # verdict-style properties did not move
    assert report.classifications["G.P_fullSpeed"] == "valid"


def test_violation_reopened_is_invalid_confidence_is_uncertain(arg):
    v = MonitorEvent("t", "mon.time", "violation", payload="log")
    c = MonitorEvent("t", "mon.succ", "confidence", 0.1)
    out, _ = ingest_monitor_events(arg, [v, c])
    report, _ = impact_analysis(out, EvolutionPackage())
    assert report.classifications["G.P_timeBound"] == "invalid"
    assert report.classifications["G.P_succ"] == "uncertain"


# ---- planning ----

def test_evidence_cost_grammar():
    assert parse_evidence_cost("2h") == 2.0
    assert parse_evidence_cost("1d") == 24.0
    assert parse_evidence_cost("0.5d") == 12.0
    assert parse_evidence_cost("soon") is None
    assert parse_evidence_cost(None) is None


def test_plan_ordering(arg):
    v = MonitorEvent("t", "mon.time", "violation", payload="log")
    c = MonitorEvent("t", "mon.succ", "confidence", 0.1)
    out, _ = ingest_monitor_events(arg, [v, c])
    report, out = impact_analysis(out, EvolutionPackage())
    entries, out, warnings = plan_regeneration(report, out)
    assert warnings == []
    # invalid (P_timeBound, 1d) before uncertain (P_succ, 2h)
    assert [e.goal_id for e in entries] == ["G.P_timeBound", "G.P_succ"]
    assert [e.rank for e in entries] == [1, 2]
    assert entries[0].cost_hours == 24.0
    assert all(e.strategy == "re-verify" for e in entries)
    for e in entries:
        assert "RegenerationPlan" in out.stereotypes_of(e.goal_id)
        assert out.placeholder_of(e.goal_id, "regeneration_plan") == "re-verify"


def test_plan_missing_cost_sorts_last_with_warning(arg, model_path):
    pkg = EvolutionPackage(changed_files=(
        FileDelta(str(model_path), "a", "b"),))
    report, out = impact_analysis(arg, pkg)
    entries, _, warnings = plan_regeneration(report, out)
    with_cost = [e for e in entries if e.cost_hours is not None]
    without = [e for e in entries if e.cost_hours is None]
    assert entries[:len(with_cost)] == with_cost
    assert all(a.rank < b.rank for a, b in zip(with_cost, without))
    # G.root has no property trace, so it needs human review
    root_entry = next(e for e in entries if e.goal_id == "G.root")
    assert root_entry.strategy == "manual-review"


def test_plan_serialization_round_trip(arg, model_path):
    pkg = EvolutionPackage(changed_files=(
        FileDelta(str(model_path), "a", "b"),))
    report, out = impact_analysis(arg, pkg)
    entries, _, _ = plan_regeneration(report, out)
    assert parse_plan(serialize_plan(entries)) == entries


GOLDEN = Path(__file__).parent / "golden" / "lifecycle"


def test_impact_report_and_plan_are_written_and_read_back_unchanged():
    text = (GOLDEN / "impact_report.json").read_text()
    assert ImpactReport.from_json(text).to_json() == text
    text = (GOLDEN / "plan.json").read_text()
    assert serialize_plan(parse_plan(text)) == text


RESULT = {"property": "P_succ", "kind": "probability", "value": 0.5}
ENTRY = {"goal_id": "G.P_succ", "strategy": "re-verify", "rank": 1,
         "evidence_cost": "2h", "cost_hours": 2.0, "critical": False}
EVENT = {"timestamp": "t", "monitor_id": "m", "kind": "confidence", "value": 0.5}


@pytest.mark.parametrize("read, rec, error", [
    (parse_results, dict(RESULT, value=float("nan")),
     "malformed result record on line 1: 'value' has the wrong type: nan"),
    (parse_results, dict(RESULT, value=True),
     "malformed result record on line 1: 'value' has the wrong type: True"),
    (parse_plan, [dict(ENTRY, rank=True)],
     "malformed plan: 'rank' has the wrong type: True"),
    (parse_plan, [dict(ENTRY, cost_hours=float("nan"))],
     "malformed plan: 'cost_hours' has the wrong type: nan"),
    (parse_monitor_events, dict(EVENT, value=True),
     "malformed event record on line 1: 'value' has the wrong type: True"),
], ids=["result-nan", "result-bool", "plan-rank-bool", "plan-cost-nan",
        "event-bool"])
def test_a_nan_or_a_bool_is_no_number(read, rec, error):
    # json.dumps writes NaN, which json.loads reads back; JSON has no NaN.
    with pytest.raises(CassureError) as exc:
        read(json.dumps(rec))
    assert str(exc.value) == error


# ---- apply ----

def scenario(arg, results):
    """Confidence drop on P_succ -> impact -> plan."""
    c = MonitorEvent("t", "mon.succ", "confidence", 0.1)
    out, _ = ingest_monitor_events(arg, [c])
    report, out = impact_analysis(out, EvolutionPackage())
    entries, out, _ = plan_regeneration(report, out)
    return entries, out


def test_apply_discharges_with_passing_result(arg, results):
    entries, out = scenario(arg, results)
    before = out.node("G.P_succ").version
    applied = apply_regeneration(out, entries, results)
    s = applied.stereotypes_of("G.P_succ")
    assert "EvidenceProvided" in s
    assert "DeferredEvidence" not in s and "Reopened" not in s
    assert "RegenerationPlan" not in s
    assert applied.node("G.P_succ").version == before + 1
    assert not any({"DeferredEvidence", "EvidenceProvided"}
                   <= applied.stereotypes_of(g.id) for g in applied.goals())
    assert [d for d in validate_argument(applied)
            if d.severity == "error"] == []


def test_apply_with_failing_result_keeps_deferred(arg, results):
    entries, out = scenario(arg, results)
    failing = [replace(r, verdict=False, kind="boolean")
               if r.property == "P_succ" else r for r in results]
    applied = apply_regeneration(out, entries, failing)
    s = applied.stereotypes_of("G.P_succ")
    assert "DeferredEvidence" in s and "EvidenceProvided" not in s
    # evidence was refreshed, so the version still moves
    assert applied.node("G.P_succ").version == out.node("G.P_succ").version + 1


def test_apply_defers_a_marginal_pass(arg, results):
    entries, out = scenario(arg, results)
    marginal = [replace(r, kind="boolean", verdict=True, marginal=True)
                if r.property == "P_succ" else r for r in results]
    applied = apply_regeneration(out, entries, marginal)
    s = applied.stereotypes_of("G.P_succ")
    assert "DeferredEvidence" in s and "EvidenceProvided" not in s
    assert [d for d in validate_argument(applied) if d.severity == "error"] == []


@pytest.mark.parametrize("event", [
    MonitorEvent("t", "mon.succ", "confidence", 0.1),
    MonitorEvent("t", "mon.succ", "violation", payload="log")])
def test_reopening_an_applied_goal_withdraws_evidence_provided(arg, results, event):
    entries, out = scenario(arg, results)
    applied = apply_regeneration(out, entries, results)
    assert "EvidenceProvided" in applied.stereotypes_of("G.P_succ")
    reopened, _ = ingest_monitor_events(applied, [event])
    s = reopened.stereotypes_of("G.P_succ")
    assert "Reopened" in s and "EvidenceProvided" not in s
    assert [d for d in validate_argument(reopened) if d.severity == "error"] == []


def test_apply_requires_fresh_result(arg, results):
    entries, out = scenario(arg, results)
    missing = [r for r in results if r.property != "P_succ"]
    with pytest.raises(LifecycleError, match="no fresh result"):
        apply_regeneration(out, entries, missing)


def test_apply_updates_solution_text_and_fingerprint(arg, results):
    entries, out = scenario(arg, results)
    moved = [replace(r, value=pinned.P_SUCC_PERR_015)
             if r.property == "P_succ" else r for r in results]
    applied = apply_regeneration(out, entries, moved)
    assert "0.913378" in applied.node("E.P_succ").description
    old_fp = next(t.fingerprint for t in out.trace_links
                  if t.node_id == "E.P_succ")
    new_fp = next(t.fingerprint for t in applied.trace_links
                  if t.node_id == "E.P_succ")
    assert new_fp != old_fp


def test_a_goal_with_two_property_links_follows_the_first(arg, model_path, results):
    # Impact, planning and apply all read the first of G.P_succ's property
    # links, P_succ, whose fresh result moved; P_forb did not move.
    arg = replace(arg, trace_links=arg.trace_links + (
        TraceLink("G.P_succ", "property", "P_forb"),))
    moved = [replace(r, value=pinned.P_SUCC_PERR_015)
             if r.property == "P_succ" else r for r in results]
    pkg = EvolutionPackage(changed_files=(FileDelta(str(model_path), "a", "b"),))
    report, out = impact_analysis(arg, pkg, fresh_results=moved,
                                  baseline_results=results)
    assert report.goals_in("invalid") == ["G.P_succ"]
    entries, out, _ = plan_regeneration(report, out)
    assert [(e.goal_id, e.strategy) for e in entries] == [
        ("G.P_succ", "re-verify"), ("G.root", "manual-review")]
    applied = apply_regeneration(out, entries, moved)
    assert "0.913378" in applied.node("E.P_succ").description
    assert "EvidenceProvided" in applied.stereotypes_of("G.P_succ")


# ---- annotation order across the whole lifecycle ----

def test_lifecycle_annotation_order():
    """The exact annotations after each step.  The input holds a duplicate
    annotation, a regeneration_plan placeholder that planning must not
    replace, a stale impact_summary, and EvidenceProvided on a goal that a
    confidence drop reopens, which drops it."""
    P, S = "placeholder", "stereotype"
    nodes = tuple(GsnNode(i, k, i) for i, k in (
        ("G.root", "goal"), ("S.byProperty", "strategy"), ("G.A", "goal"),
        ("G.B", "goal"), ("E.A", "solution"), ("E.B", "solution")))
    links = tuple(GsnLink("supported-by", a, b) for a, b in (
        ("G.root", "S.byProperty"), ("S.byProperty", "G.A"),
        ("S.byProperty", "G.B"), ("G.A", "E.A"), ("G.B", "E.B")))
    traces = (TraceLink("G.A", "property", "A"),
              TraceLink("E.A", "verification-result", "A", "fa"),
              TraceLink("G.B", "property", "B"),
              TraceLink("E.B", "verification-result", "B", "fb"))
    given = [("G.A", P, "monitor_id", "mon.a"),
             ("G.A", S, "TraceMonitored", None),
             ("G.A", S, "TraceMonitored", None),
             ("G.B", P, "monitor_id", "mon.b"),
             ("G.B", P, "confidence_threshold", "0.9"),
             ("G.B", P, "regeneration_plan", "manual-review"),
             ("G.B", S, "EvidenceProvided", None),
             ("S.byProperty", P, "impact_summary", "stale"),
             ("G.A", P, "evidence_cost", "3h")]
    anns = tuple(Annotation.placeholder(n, name, v) if k == P
                 else Annotation.stereotype(n, name) for n, k, name, v in given)
    arg = ArgumentModel("order", nodes, links, anns, traces)

    def rows(a):
        return [(x.node_id, x.kind, x.name, x.value) for x in a.annotations]

    v = MonitorEvent("t", "mon.a", "violation", payload="a.log")
    c = MonitorEvent("t", "mon.b", "confidence", 0.2)
    arg, _ = ingest_monitor_events(arg, [v, c, v])
    given.remove(("G.B", S, "EvidenceProvided", None))
    assert rows(arg) == given + [
        ("G.A", S, "Reopened", None), ("G.A", P, "runtime_log", "a.log"),
        ("G.B", S, "Reopened", None), ("G.B", S, "DeferredEvidence", None)]

    report, arg = impact_analysis(arg, EvolutionPackage())
    impacted = [r for r in given if r[2] != "impact_summary"] + [
        ("G.A", S, "Reopened", None), ("G.A", P, "runtime_log", "a.log"),
        ("G.B", S, "Reopened", None), ("G.B", S, "DeferredEvidence", None),
        ("S.byProperty", S, "ImpactAnalysis", None),
        ("S.byProperty", P, "impact_summary", "valid=1 invalid=1 uncertain=1")]
    assert rows(arg) == impacted

    entries, arg, _ = plan_regeneration(report, arg)
    assert [e.goal_id for e in entries] == ["G.A", "G.B"]
    assert rows(arg) == impacted + [
        ("G.A", S, "RegenerationPlan", None),
        ("G.A", P, "regeneration_plan", "re-verify"),
        ("G.B", S, "RegenerationPlan", None)]

    fresh = [VerificationResult("A", "probability", value=0.25),
             VerificationResult("B", "boolean", verdict=False)]
    arg = apply_regeneration(arg, entries, fresh)
    assert rows(arg) == [
        ("G.A", P, "monitor_id", "mon.a"),
        ("G.A", S, "TraceMonitored", None),
        ("G.A", S, "TraceMonitored", None),
        ("G.B", P, "monitor_id", "mon.b"),
        ("G.B", P, "confidence_threshold", "0.9"),
        ("G.A", P, "evidence_cost", "3h"),
        ("G.A", P, "runtime_log", "a.log"),
        ("G.B", S, "Reopened", None),
        ("G.B", S, "DeferredEvidence", None),
        ("S.byProperty", S, "ImpactAnalysis", None),
        ("S.byProperty", P, "impact_summary", "valid=1 invalid=1 uncertain=1"),
        ("G.A", S, "EvidenceProvided", None)]
    assert [t.fingerprint for t in arg.trace_links
            if t.artifact_kind == "verification-result"] == \
        [result_fingerprint(r) for r in fresh]


# ---- one evidence rule for generate, regenerate, impact and apply ----

OLD_REF = ModelRef("m", "m.prism", "old")
NEW_REF = ModelRef("m", "m.prism", "new")
MODEL_CHANGED = EvolutionPackage(changed_files=(FileDelta("m.prism", "old", "new"),))
QUERIES = {"probability": "P=? [ F s=1 ]", "boolean": "P>=0.5 [ F s=1 ]",
           "reward": 'R{"r"}=? [ F s=1 ]'}
# Values near 0 and near the sixth significant digit, where an absolute
# tolerance and the rendered value disagree.
NEAR = (0.0, 1e-8, 5e-8, 1e-6, 0.25, 0.932065, 0.9320654, 0.9320656)
NEAR_REWARD = (0.0, 5e-8, 2500.0, 2500.0004, 2500.001, 2500.01)


def law_case(kinds, before, after):
    """(properties, old results, fresh results); each outcome is
    (value, infinite, verdict, marginal)."""
    props = parse_properties("".join(f'"q{i}": {QUERIES[k]};\n'
                                     for i, k in enumerate(kinds)))

    def results(outs):
        return [VerificationResult(f"q{i}", k, *o)
                for i, (k, o) in enumerate(zip(kinds, outs))]
    return props, results(before), results(after)


def outcomes(kind):
    if kind == "probability":
        value = st.one_of(st.sampled_from(NEAR), st.floats(0.0, 1.0))
        return st.tuples(value, st.just(False), st.none(), st.just(False))
    if kind == "reward":
        value = st.one_of(st.sampled_from(NEAR_REWARD), st.floats(0.0, 1e4))
        return st.one_of(st.tuples(value, st.just(False), st.none(), st.just(False)),
                         st.just((None, True, None, False)))
    return st.tuples(st.one_of(st.none(), st.sampled_from(NEAR)), st.just(False),
                     st.booleans(), st.booleans())


@st.composite
def result_pairs(draw):
    """Random properties with an old and a fresh result each: the same
    outcome, the old value nudged near its sixth digit, or a new outcome
    (a verdict flip, a marginal pass, an infinite reward)."""
    kinds = draw(st.lists(st.sampled_from(sorted(QUERIES)), min_size=1, max_size=6))
    before, after = [], []
    for kind in kinds:
        old = draw(outcomes(kind))
        how = draw(st.sampled_from(("same", "nudge", "new")))
        new = draw(outcomes(kind)) if how == "new" else old
        if how == "nudge" and old[0] is not None:
            value = old[0] * (1 + draw(st.sampled_from((-1e-6, -4e-7, 4e-7, 1e-6))))
            new = (min(value, 1.0) if kind != "reward" else value, *old[1:])
        before.append(old)
        after.append(new)
    return law_case(kinds, before, after)


# The cases that two rules of "changed" and of a goal's status told apart.
MOTIVATION = law_case(
    ["probability", "reward", "boolean", "boolean"],
    [(1e-8, False, None, False), (2500.0004, False, None, False),
     (0.4, False, False, False), (0.6, False, True, False)],
    [(5e-8, False, None, False), (2500.001, False, None, False),
     (0.5, False, True, True), (0.7, False, True, False)])


def stated(arg):
    """What an argument states of its results: the solution texts, the
    result fingerprints and the deferred goals."""
    return ({n.id: n.description for n in arg.nodes if n.kind == "solution"},
            {t.node_id: t.fingerprint for t in arg.trace_links
             if t.artifact_kind == "verification-result"},
            {a.node_id for a in arg.annotations if a.name == "DeferredEvidence"})


def test_impact_reads_a_change_in_the_rendered_value():
    props, old, fresh = MOTIVATION
    arg = build_argument(OLD_REF, props, old)
    report, _ = impact_analysis(arg, MODEL_CHANGED, fresh, old)
    assert report.rationales == {
        "G.root": "model artifact changed, goal not re-checkable",
        "G.q0": "fresh re-check changed the result",     # 1e-08 -> 5e-08
        "G.q1": "fresh re-check confirms baseline",      # 2500 -> 2500
        "G.q2": "fresh re-check changed the result",     # violated -> marginal
        "G.q3": "fresh re-check confirms baseline"}      # holds -> holds
    regenerated = regenerate(arg, build_argument(NEW_REF, props, fresh))
    assert [regenerated.node(f"E.q{i}").version for i in range(4)] == [2, 1, 2, 1]


@settings(max_examples=200, deadline=None)
@given(result_pairs(), st.booleans())
@example(MOTIVATION, True)
def test_impact_calls_invalid_exactly_what_regenerate_bumps(case, with_baseline):
    props, old, fresh = case
    arg = build_argument(OLD_REF, props, old)
    report, _ = impact_analysis(arg, MODEL_CHANGED, fresh,
                                old if with_baseline else None)
    regenerated = regenerate(arg, build_argument(NEW_REF, props, fresh))
    for p in props:
        bumped = regenerated.node(f"E.{p.name}").version > 1
        assert report.classifications[f"G.{p.name}"] == \
            ("invalid" if bumped else "valid"), p.name


# A pass that turns marginal: the solution text stays, its fingerprint does not.
MARGINAL_FLIP = law_case(["boolean"], [(0.6, False, True, False)],
                         [(0.6, False, True, True)])


@settings(max_examples=200, deadline=None)
@given(result_pairs(), st.booleans())
@example(MOTIVATION, True)
@example(MARGINAL_FLIP, False)
def test_impact_plan_apply_states_what_generate_states(case, with_baseline):
    """Apply states what a fresh build states, and bumps the solutions that
    regenerate bumps."""
    props, old, fresh = case
    before = build_argument(OLD_REF, props, old)
    report, arg = impact_analysis(before, MODEL_CHANGED, fresh,
                                  old if with_baseline else None)
    entries, arg, _ = plan_regeneration(report, arg)
    applied = apply_regeneration(arg, entries, fresh)
    assert stated(applied) == stated(build_argument(NEW_REF, props, fresh))
    assert [d for d in validate_argument(applied) if d.severity == "error"] == []
    regenerated = regenerate(before, build_argument(NEW_REF, props, fresh))
    versions = lambda a: {n.id: n.version for n in a.nodes if n.kind == "solution"}
    assert versions(applied) == versions(regenerated)


# ---- the reference rule on the values a lifecycle round makes ----

def full_rule(arg):
    """`arg` built again by its constructor, which checks the whole
    reference rule; the edits of a round check only what they add."""
    return ArgumentModel(**{f.name: getattr(arg, f.name) for f in fields(ArgumentModel)})


def test_every_value_of_a_round_equals_its_rebuild(arg, model_text, model_path,
                                                   props, results):
    values = []
    events = [MonitorEvent("t0", "mon.time", "violation", payload="log"),
              MonitorEvent("t1", "mon.succ", "confidence", 0.5),
              MonitorEvent("t2", "mon.none", "violation")]
    arg, _ = ingest_monitor_events(arg, events)
    values.append(arg)
    fresh = [replace(r, value=r.value / 2) if r.kind == "probability" else r
             for r in results]
    pkg = EvolutionPackage((FileDelta(str(model_path), "a", "b"),))
    report, arg = impact_analysis(arg, pkg, fresh[::2], results)
    values.append(arg)
    entries, arg, _ = plan_regeneration(report, arg)
    values.append(arg)
    arg = apply_regeneration(arg, entries, fresh)
    values.append(arg)
    ref = ModelRef.for_text("nuclear", str(model_path), model_text)
    values.append(regenerate(arg, build_argument(ref, props, fresh)))
    for value in values:
        rebuilt = full_rule(value)
        assert rebuilt == value
        assert value.node_ids() == rebuilt.node_ids()


def test_a_stale_edit_raises_what_the_full_rule_raises(arg):
    report = ImpactReport({"G.gone": "invalid"}, {"G.gone": "x"}, "invalid=1")
    with pytest.raises(GsnError) as edit:
        plan_regeneration(report, arg)
    with pytest.raises(GsnError) as rebuild:
        replace(arg, annotations=arg.annotations + (
            Annotation.stereotype("G.gone", "RegenerationPlan"),))
    assert str(edit.value) == str(rebuild.value) == \
        "annotation references unknown node 'G.gone'"
