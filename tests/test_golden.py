"""Byte identity of the written artifacts.

The files under ``tests/golden/`` were written by an earlier version of
cassure from the steps below, run with relative paths from a scratch
directory.  A change that alters one byte of the ``.gsn``, ``.dot``,
``.results.jsonl``, ``plan.json`` or ``impact_report.json`` output fails
here.
"""

import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from cassure.cli import main

CASE_STUDY = Path(__file__).parent.parent / "case_study"
GOLDEN = Path(__file__).parent / "golden"

LIFECYCLE_PROPS = (
    '"P_succ": P=? [ F loc = 4 ];\n'
    '"P_forb": P=? [ F loc = 5 ];\n'
    '"P_timeBound": P=? [ F<=5 loc = 4 ];\n'
    '"R_moves": R{"moves"}=? [ F (loc = 4 | loc = 5 | loc = 6) ];\n'
)

LIFECYCLE_ANNOTATIONS = (
    'annotate G.P_succ placeholder monitor_id="mon.conf"\n'
    'annotate G.P_succ placeholder confidence_threshold="0.9"\n'
    'annotate G.P_succ placeholder evidence_cost="2h"\n'
    'annotate G.P_forb placeholder monitor_id="mon.viol"\n'
    'annotate G.P_forb placeholder evidence_cost="1d"\n'
    'annotate G.P_forb placeholder safety_critical="true"\n'
    'annotate G.P_timeBound placeholder evidence_cost="soon"\n'
)

LIFECYCLE_EVENTS = (
    {"timestamp": "2026-08-20T09:00:00Z", "monitor_id": "mon.viol",
     "kind": "violation", "detail": "entered loc 5",
     "payload": 'log "patrol\\7" at zone é'},
    {"timestamp": "2026-08-20T09:05:00Z", "monitor_id": "mon.conf",
     "kind": "confidence", "value": 0.4},
    {"timestamp": "2026-08-20T09:10:00Z", "monitor_id": "mon.none",
     "kind": "violation"},
)


def cassure(*args):
    """Run one command; returns its exit code."""
    return CliRunner().invoke(main, [str(a) for a in args]).exit_code


def generate_case_study():
    """``cassure generate --dot`` on the case study, in the current
    directory; returns {golden name: written file}."""
    for name in ("nuclear.prism", "nuclear.props"):
        shutil.copy(CASE_STUDY / name, name)
    assert cassure("generate", "--model", "nuclear.prism", "--out", "out",
                   "--dot") == 0
    return {"generate/nuclear.gsn": Path("out/nuclear.gsn"),
            "generate/nuclear.dot": Path("out/nuclear.dot"),
            "generate/nuclear.results.jsonl": Path("out/nuclear.results.jsonl")}


def generate_many():
    """``cassure generate`` on the case study with ``generate_many/many.props``,
    200 properties whose state formulas repeat, negate and share atoms, in
    the current directory; returns {golden name: written file}."""
    shutil.copy(CASE_STUDY / "nuclear.prism", "nuclear.prism")
    shutil.copy(GOLDEN / "generate_many" / "many.props", "many.props")
    assert cassure("generate", "--model", "nuclear.prism", "--props", "many.props",
                   "--out", "out") == 0
    return {"generate_many/nuclear.gsn": Path("out/nuclear.gsn"),
            "generate_many/nuclear.results.jsonl": Path("out/nuclear.results.jsonl")}


def lifecycle_round():
    """One ingest -> impact -> plan -> apply round on a small annotated
    argument, in the current directory; returns {golden name: written file}."""
    shutil.copy(CASE_STUDY / "nuclear.prism", "nuclear.prism")
    Path("nuclear.props").write_text(LIFECYCLE_PROPS)
    model = ("--model", "nuclear.prism", "--out", "out")
    assert cassure("generate", *model) == 0
    gsn = Path("out/nuclear.gsn")
    gsn.write_text(gsn.read_text() + "\n" + LIFECYCLE_ANNOTATIONS)
    Path("events.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in LIFECYCLE_EVENTS))
    Path("package").mkdir()
    Path("package/package.json").write_text(json.dumps({"changed_files": [
        {"path": "nuclear.prism", "old_fingerprint": "a",
         "new_fingerprint": "b"}]}))
    assert cassure("check", "--model", "nuclear.prism", "--out", "fresh",
                   "--const", "p_err=0.015") in (0, 1)
    fresh = "fresh/nuclear.results.jsonl"
    assert cassure("ingest", *model, "--events", "events.jsonl") == 0
    assert cassure("impact", *model, "--package", "package",
                   "--fresh-results", fresh,
                   "--baseline-results", "out/nuclear.results.jsonl") == 0
    assert cassure("plan", *model) == 0
    assert cassure("apply", *model, "--fresh-results", fresh) == 0
    return {"lifecycle/nuclear.gsn": gsn,
            "lifecycle/plan.json": Path("out/plan.json"),
            "lifecycle/impact_report.json": Path("out/impact_report.json")}


def lifecycle_many_round():
    """One ingest -> impact -> plan -> apply round on the 200-property argument
    of ``generate_many``, with the hand annotations, event log and package of
    ``lifecycle_many/``, in the current directory.  Impact reads fresh
    results (p_err = 0.015) less every fifth record, and the baseline;
    apply reads them all.  Returns {golden name: written file}."""
    inputs = GOLDEN / "lifecycle_many"
    generate_many()
    gsn = Path("out/nuclear.gsn")
    gsn.write_text(gsn.read_text() + (inputs / "annotations.gsn").read_text())
    model = ("--model", "nuclear.prism", "--props", "many.props", "--out", "out")
    assert cassure("check", *model[:4], "--out", "fresh",
                   "--const", "p_err=0.015") in (0, 1)
    fresh = Path("fresh/nuclear.results.jsonl")
    lines = fresh.read_text().splitlines(keepends=True)
    Path("partial.jsonl").write_text(
        "".join(l for i, l in enumerate(lines, 1) if i % 5))
    assert cassure("ingest", *model, "--events", inputs / "events.jsonl") == 0
    assert cassure("impact", *model, "--package", inputs / "package",
                   "--fresh-results", "partial.jsonl",
                   "--baseline-results", "out/nuclear.results.jsonl") == 0
    assert cassure("plan", *model) == 0
    assert cassure("apply", *model, "--fresh-results", fresh) == 0
    return {"lifecycle_many/nuclear.gsn": gsn,
            "lifecycle_many/plan.json": Path("out/plan.json"),
            "lifecycle_many/impact_report.json": Path("out/impact_report.json")}


@pytest.mark.parametrize("steps", [generate_case_study, generate_many, lifecycle_round,
                                   lifecycle_many_round])
def test_artifacts_match_golden_bytes(steps, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, written in steps().items():
        assert written.read_bytes() == (GOLDEN / name).read_bytes(), name
