"""The benchmark's own tests: every workload in smoke mode, traced and not,
plus the reference side on its own.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Layers the workload's operation does work in: their traced times are
# positive.  A layer the operation does not touch reads 0.
BUSY = {
    "grid-solve": ("statespace.build_ms", "engine.check_ms"),
    "grid-build": ("statespace.build_ms", "statespace.label_ms",
                   "engine.precompute_ms"),
    "loop-props": ("parsing.props_ms", "transform.regenerate_ms", "cli.write_ms"),
    "loop-model": ("model.type_check_ms", "transform.regenerate_ms", "cli.write_ms"),
    "generate": ("engine.check_ms", "transform.build_ms", "gsn.serialize_ms"),
    "evolution": ("gsn.parse_ms", "lifecycle.ingest_ms", "lifecycle.impact_ms",
                  "lifecycle.plan_ms", "lifecycle.apply_ms"),
}

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import reference  # noqa: E402


def run(cwd, workload, trace, seed=3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    p = run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], p.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if not trace:
            assert got["value"] > 0, m["name"]
        elif m["name"] != "cli.self_ms":  # a difference of two timings
            assert got["value"] >= 0, m["name"]
    if trace:
        for name in BUSY[workload]:
            assert result["metrics"][name]["value"] > 0, name
        lifecycle = result["metrics"]["lifecycle.apply_ms"]["value"]
        assert (lifecycle > 0) == (workload == "evolution")


def test_trace_file_holds_spans():
    assert run(ROOT, "loop-model", 1, seed=5).returncode == 0
    spans = [json.loads(line) for line in
             (ROOT / ".perfbench" / "traces" / "loop-model-5.jsonl").read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"round", "cli.op", "statespace.build", "engine.check",
            "transform.regenerate"} <= names
    assert "lifecycle.apply" not in names
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(tmp_path, WORKLOADS[0], 0)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_inputs_depend_only_on_the_seed():
    a = inputs.case_study_props(50, inputs.rng_for(9, "props"))
    b = inputs.case_study_props(50, inputs.rng_for(9, "props"))
    c = inputs.case_study_props(50, inputs.rng_for(10, "props"))
    assert a == b and a != c


@pytest.mark.parametrize("n", [4, 9, 20])
def test_grid_reference_closed_forms(n):
    g = reference.Grid(n)
    assert g.states == (n + 1) ** 2 - 1
    assert g.transitions == 3 * n * n + 2 * n
    assert g.absorbs_surely() and not g.corner_reachable()
    assert 0.0 < g.bounded_reach_y(2 * n, n // 2) < 1.0


def test_grid_reference_expected_steps():
    # N=1: each step leaves (0,0) with probability 0.8, so E = 1/0.8.
    assert abs(reference.Grid(1).steps_to_absorb() - 1.25) < 1e-12
    # For large N the expectation tends to 2.5 N (150 at N=60).
    assert abs(reference.Grid(60).steps_to_absorb() - 150.0) < 1e-6


def test_reference_rejects_a_wrong_value():
    with pytest.raises(reference.Mismatch):
        reference.close(1.0 + 1e-6, 1.0, "value")
    reference.close(1.0 + 1e-8, 1.0, "value")


def test_gsn_reader():
    text = ('argument "m" version 3\n\ngoal G.a version 2\n  "A goal"\n\n'
            'annotate G.a stereotype <<Reopened>>\n')
    g = reference.GsnText(text)
    assert g.version == 3 and g.versions == {"G.a": 2}
    assert g.descriptions["G.a"] == "A goal"
    assert g.stereotypes == {"G.a": {"Reopened"}}


def test_case_study_answers_match_named_results():
    oracle = reference.load_oracle(ROOT / "tests" / "oracle.py")
    case = reference.CaseStudy(oracle, "0.01")
    loc5 = ("&", (("loc", "=", 5),))
    assert case.answer(("F", loc5)) == case.named()["P_forb"]
    assert case.answer(("qual", "<=", ("&", (("loc", "=", 9),)))) is True
    rng = random.Random(0)
    for _, _, spec in inputs.case_study_props(20, rng):
        assert case.answer(spec) is not None
