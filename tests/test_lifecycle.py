import json
from dataclasses import replace

import pytest

import pinned
from cassure import (
    Annotation, ArgumentModel, GsnLink, GsnNode, LifecycleError, TraceLink,
    VerificationResult, bind_constants, build_dtmc, check_properties,
    parse_model, result_fingerprint, validate_argument,
)
from cassure.lifecycle import (
    EvolutionPackage, FileDelta, MonitorEvent, apply_regeneration,
    impact_analysis, ingest_monitor_events, load_package, parse_evidence_cost,
    parse_monitor_events, parse_plan, plan_regeneration, serialize_plan,
    stereotype_state_violations,
)
from cassure.transform import ModelRef, build_argument


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
    assert stereotype_state_violations(applied) == []
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


# ---- annotation order across the whole lifecycle ----

def test_lifecycle_annotation_order():
    """The exact annotations after each step.  The input holds a duplicate
    annotation, a regeneration_plan placeholder that planning must not
    replace, a stale impact_summary, and EvidenceProvided on a goal whose
    fresh result fails."""
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
