"""Acceptance criteria 1-9.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Criterion 4 checks that the case-study model's four absorbing
outcomes -- reaching loc=4, loc=5 or loc=6, or being held in an
emergency-retrieval state below the goal (loc<4 & sw=2) -- partition the
probability space.  The three terminal locations alone sum to 0.9709, so
termination is not almost sure; see tests/oracle.py.
"""

import json
import shutil
import time
from pathlib import Path

import pytest

import oracle
import pinned
from cassure import (
    Annotation, bind_constants, build_dtmc, check_properties, label_states,
    parse_dsl, parse_model, parse_properties, serialize_dsl, validate_argument,
)
from cassure.cli import PipelineConfig, watch_loop
from cassure.engine import bounded_eventually_probability
from cassure.lifecycle import (
    EvolutionPackage, apply_regeneration, impact_analysis,
    ingest_monitor_events, plan_regeneration, MonitorEvent,
)
from cassure.model import Binary, Lit, Name
from cassure.parsing import render_model
from cassure.transform import ModelRef, build_argument

CASE_STUDY = Path(__file__).parent.parent / "case_study"
TOL = 1e-7


def report(n, ok, text):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_parser_fidelity(model_text):
    t0 = time.perf_counter()
    ast = parse_model(model_text)
    from cassure import type_check
    clean = type_check(ast) == []
    round_trip = parse_model(render_model(ast)) == ast
    fast = (time.perf_counter() - t0) < 1.0
    report(1, clean and round_trip and fast,
           "case-study model parses cleanly and render/parse round-trips")


def test_criterion_2_oracle_equivalence(space, props, results):
    t0 = time.perf_counter()
    exact = oracle.case_study_results()
    ok = space.n_states == exact["_state_count"]
    for r in results:
        e = exact[r.property]
        if isinstance(e, bool):
            ok = ok and r.verdict is e
        elif e is None:
            ok = ok and r.infinite
        else:
            ok = ok and abs(r.value - float(e)) <= TOL
    fast = (time.perf_counter() - t0) < 30.0
    report(2, ok and fast,
           f"engine matches exact-rational oracle on {space.n_states} states "
           f"and all 17 results within 1e-7")


def test_criterion_3_closed_forms(model_ast):
    no_rad = build_dtmc(bind_constants(model_ast, {"p_rad_crit": 0.0,
                                                   "p_rad_med": 0.0}))
    p = check_properties(no_rad, parse_properties('"P_succ": P=? [F loc=4]'))[0]
    ok = abs(p.value - pinned.P_SUCC_NO_RADIATION) <= 1e-9

    determ = build_dtmc(bind_constants(model_ast, {
        "p_rad_crit": 0.0, "p_rad_med": 0.0, "p_err": 0.0}))
    rs = check_properties(determ, parse_properties(
        '"R_moves": R{"moves"}=? [F (loc=4 | loc=5 | loc=6)]\n'
        '"P_forb": P<=0 [F loc=5]'))
    ok = ok and abs(rs[0].value - pinned.R_MOVES_DETERMINISTIC) <= 1e-6
    ok = ok and rs[1].verdict is True and rs[1].stats["iterations"] == 0
    report(3, ok, "closed forms: P_succ=0.99^4, R_moves=12, P_forb=0 "
                  "(qualitative)")


def test_criterion_4_structural_identities(space, results):
    by_name = {r.property: r for r in results}
    complement = abs(by_name["P_safe"].value + by_name["P_forb"].value - 1.0) \
        <= 1e-8

    # The absorbing outcomes are the terminal locations 4, 5 and 6 plus the
    # emergency-retrieval hold states below the goal.  A finite DTMC reaches
    # its bottom SCCs almost surely, so their probabilities sum to 1.
    outcomes = [check_properties(space, parse_properties(
        f'"t": P=? [F {target}]'))[0].value
        for target in ("loc=4", "loc=5", "loc=6", "(loc<4 & sw=2)")]
    partition = abs(sum(outcomes) - 1.0) <= 1e-8
    split = len(outcomes) == len(pinned.P_TERMINAL) and all(
        abs(v - e) <= TOL for v, e in zip(outcomes, pinned.P_TERMINAL))

    at_goal = label_states(space, Binary("=", Name("loc"), Lit(4)))
    vals = [bounded_eventually_probability(space, at_goal, k)[0][space.initial]
            for k in range(11)]
    monotone = all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    ok = complement and partition and split and monotone
    report(4, ok,
           f"P_safe+P_forb=1 ({'ok' if complement else 'off'}), absorbing "
           f"outcomes loc=4|5|6|(loc<4&sw=2) sum to {sum(outcomes):.12f} "
           f"({'ok' if partition else 'NOT 1'}), split "
           f"{'matches' if split else 'differs from'} the oracle, bounded-F "
           f"monotone ({'ok' if monotone else 'violated'}); note: terminal "
           f"locations alone sum to {sum(outcomes[:3]):.12f}, so termination "
           "is not almost sure")


def test_criterion_5_invariant_scan(space):
    expected_vel = {0: 2, 1: 1, 2: 0}
    ok = all(space.valuation(s)["vel"] == expected_vel[space.valuation(s)["sw"]]
             for s in range(space.n_states))
    report(5, ok, "every reachable state couples sw to its mandated velocity")


def test_criterion_6_transformation_law(model_text, model_path, props,
                                        results):
    ref = ModelRef.for_text("nuclear", str(model_path), model_text)
    arg = build_argument(ref, props, results)
    n = len(props)
    ok = len(arg.nodes) == 2 + 3 * n
    ok = ok and sum(1 for l in arg.links if l.kind == "supported-by") == 1 + 2 * n
    ok = ok and sum(1 for l in arg.links if l.kind == "in-context-of") == n
    ok = ok and [d for d in validate_argument(arg) if d.severity == "error"] == []
    ok = ok and serialize_dsl(arg) == serialize_dsl(build_argument(ref, props,
                                                                   results))
    report(6, ok, f"argument structure is 2+3n / 1+2n / n for n={n}, valid, "
                  "byte-deterministic")


def _workdir(tmp_path):
    shutil.copy(CASE_STUDY / "nuclear.prism", tmp_path)
    shutil.copy(CASE_STUDY / "nuclear.props", tmp_path)
    return PipelineConfig(str(tmp_path / "nuclear.prism"),
                          str(tmp_path / "nuclear.props"),
                          str(tmp_path / "out"), poll_ms=1)


def test_criterion_7_regeneration_merge(tmp_path):
    config = _workdir(tmp_path)
    watch_loop(config, max_cycles=1, log=lambda _: None, sleep=lambda _: None)
    gsn = Path(config.out) / "nuclear.gsn"
    before = parse_dsl(gsn.read_text())
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder evidence_cost="4h"\n'
                   "annotate G.P_succ stereotype <<TraceMonitored>>\n"
                   "annotate G.P_forb stereotype <<ConfidenceMonitor>>\n")

    model_file = Path(config.model)

    def edit(_):
        model_file.write_text(model_file.read_text().replace(
            "const double p_err = 0.01;", "const double p_err = 0.015;"))
    watch_loop(config, max_cycles=2, log=lambda _: None, sleep=edit)

    after = parse_dsl(gsn.read_text())
    ok = after.placeholder_of("G.P_succ", "evidence_cost") == "4h"
    ok = ok and "TraceMonitored" in after.stereotypes_of("G.P_succ")
    ok = ok and "ConfidenceMonitor" in after.stereotypes_of("G.P_forb")

    changed = {n.id for n in after.nodes
               if n.version != before.node(n.id).version}
    # value-bearing probability goals move with p_err; qualitative ones and
    # infinite rewards do not; the root bumps with the model file.
    ok = ok and "G.P_succ" in changed and "E.P_succ" in changed
    ok = ok and "G.root" in changed
    ok = ok and "G.P_fullSpeed" not in changed and "E.R_moves" not in changed
    untouched = [n.id for n in after.nodes if n.id not in changed]
    ok = ok and all(serialize_dsl_node(after, i) == serialize_dsl_node(before, i)
                    for i in untouched)
    report(7, ok, "watcher regeneration preserves manual annotations and "
                  "bumps exactly the affected nodes")


def serialize_dsl_node(arg, node_id):
    n = arg.node(node_id)
    return (n.kind, n.id, n.version, n.description)


def test_criterion_8_lifecycle_end_to_end(model_text, model_path, props,
                                          results):
    ref = ModelRef.for_text("nuclear", str(model_path), model_text)
    arg = build_argument(ref, props, results)
    from dataclasses import replace
    arg = replace(arg, annotations=arg.annotations + (
        Annotation.placeholder("G.P_succ", "monitor_id", "mon.succ"),
        Annotation.placeholder("G.P_succ", "confidence_threshold", "0.9"),
        Annotation.placeholder("G.P_succ", "evidence_cost", "2h")))

    arg, _ = ingest_monitor_events(arg, [
        MonitorEvent("2026-08-20T09:00:00Z", "mon.succ", "confidence", 0.4)])
    ok = {"Reopened", "DeferredEvidence"} <= arg.stereotypes_of("G.P_succ")

    impact, arg = impact_analysis(arg, EvolutionPackage())
    ok = ok and impact.classifications["G.P_succ"] == "uncertain"

    entries, arg, _ = plan_regeneration(impact, arg)
    ok = ok and [e.goal_id for e in entries] == ["G.P_succ"]
    ok = ok and entries[0].cost_hours == 2.0

    v_before = arg.node("G.P_succ").version
    arg = apply_regeneration(arg, entries, results)
    s = arg.stereotypes_of("G.P_succ")
    ok = ok and "EvidenceProvided" in s and "DeferredEvidence" not in s
    ok = ok and arg.node("G.P_succ").version == v_before + 1
    ok = ok and not any({"DeferredEvidence", "EvidenceProvided"}
                        <= arg.stereotypes_of(g.id) for g in arg.goals())
    ok = ok and [d for d in validate_argument(arg)
                 if d.severity == "error"] == []
    report(8, ok, "confidence drop -> reopened -> uncertain -> planned -> "
                  "discharged with version increment")


def test_criterion_9_failure_isolation(tmp_path):
    config = _workdir(tmp_path)
    logs = []
    watch_loop(config, max_cycles=1, log=logs.append, sleep=lambda _: None)
    gsn = Path(config.out) / "nuclear.gsn"
    good = gsn.read_bytes()

    def corrupt(_):
        Path(config.props).write_text("P=? [F this is (( not a property\n")
    watch_loop(config, max_cycles=2, log=logs.append, sleep=corrupt)
    ok = "cycle failed" in logs[-1] and gsn.read_bytes() == good
    report(9, ok, "broken props during watch logs an error and leaves the "
                  "previous argument bit-identical")
