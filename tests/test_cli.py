import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

import cassure.cli as cli
import cassure.model
from cassure.cli import (
    PipelineConfig, load_config_file, main, resolve_config, run_cycle,
    watch_loop,
)
from cassure import (
    bind_constants, build_dtmc, check_properties, parse_dsl, parse_model,
    parse_properties,
)

CASE_STUDY = Path(__file__).parent.parent / "case_study"


@pytest.fixture
def workdir(tmp_path):
    shutil.copy(CASE_STUDY / "nuclear.prism", tmp_path)
    shutil.copy(CASE_STUDY / "nuclear.props", tmp_path)
    return tmp_path


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_check_violated_bound_exits_1(workdir):
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"))
    assert r.exit_code == 1
    assert "P_succ: 0.932065" in r.output
    recs = [json.loads(l) for l in
            (workdir / "out" / "nuclear.results.jsonl").read_text().splitlines()]
    assert len(recs) == 17


def test_check_reports_the_build(workdir):
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"))
    assert r.output.splitlines()[0] == (
        "built 142 states, 353 transitions (92 states resolved by uniform "
        "choice, 0 deadlocks fixed)")


def test_two_checks_write_byte_identical_results(workdir):
    # A record holds what the check decided and no timing, so a results
    # file changes only when the evidence does.
    written = []
    for out in ("out1", "out2"):
        r = invoke("check", "--model", str(workdir / "nuclear.prism"),
                   "--out", str(workdir / out))
        assert r.exit_code == 1, r.output
        written.append((workdir / out / "nuclear.results.jsonl").read_bytes())
    assert written[0] == written[1]
    stats = {tuple(json.loads(line)["stats"]) for line in written[0].splitlines()}
    assert stats == {("iterations", "residual", "engine")}


def test_check_all_pass_exits_0(workdir):
    (workdir / "only.props").write_text('"safe": P<=0 [F loc = 5]\n')
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--props", str(workdir / "only.props"),
               "--out", str(workdir / "out"),
               "--const", "p_err=0")
    assert r.exit_code == 0, r.output
    assert "safe: holds" in r.output


def test_broken_props_exit_2(workdir):
    (workdir / "bad.props").write_text('"x": P=? [F loc ==== 4]\n')
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--props", str(workdir / "bad.props"),
               "--out", str(workdir / "out"))
    assert r.exit_code == 2
    assert "error" in r.output


@pytest.mark.parametrize("props, error", [
    ('"z": P=? [ F zz = 1 ]\n', "bad.props:1:1: unknown identifier 'zz'"),
    ('\n  "f": P=? [ F batt ]\n',
     "bad.props:2:3: labeling expression is not boolean"),
    ('"r": P=? [ F loc=4 ];\n"n": R{"nope"}=? [ F loc=4 ]\n',
     "bad.props:2:1: unknown reward structure 'nope'"),
    ('"b": P=? [ F loc = true ];\n',
     "bad.props:1:1: operands of '=' have incompatible types"),
    ('"a": P=? [ F loc=4 ];\n "c": P=? [ F (loc = 5) & 2 ]\n',
     "bad.props:2:2: operands of '&' are not boolean"),
    ('"g": P>=0.5 [ batt > 2 U !loc ]\n',
     "bad.props:1:1: operand of '!' is not boolean"),
], ids=["unbound", "not-boolean", "unknown-reward", "bool-equals-int",
        "and-of-int", "not-of-int"])
def test_error_in_a_state_formula_names_its_place(workdir, monkeypatch, props, error):
    monkeypatch.chdir(workdir)
    (workdir / "bad.props").write_text(props)
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--props", "bad.props", "--out", str(workdir / "out"))
    assert r.exit_code == 2
    assert r.output.splitlines()[-1] == f"error: {error}"


def test_props_discovered_by_basename(workdir):
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"))
    assert r.exit_code in (0, 1)  # discovery worked; verdicts are real


def test_config_file_overridden_by_flags(tmp_path, workdir):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"model={workdir / 'nuclear.prism'}\n"
                   f"out={workdir / 'cfg_out'}\n"
                   "epsilon=1e-6\n")
    values = load_config_file(cfg)
    assert values["epsilon"] == "1e-6"
    config = resolve_config(str(cfg), {"model": None, "props": None,
                                       "out": None, "const": (),
                                       "epsilon": 1e-10})
    assert config.model == str(workdir / "nuclear.prism")
    assert config.epsilon == 1e-10  # flag wins
    assert config.out == str(workdir / "cfg_out")


def test_unknown_config_key_exits_2(tmp_path, workdir):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"model={workdir / 'nuclear.prism'}\nepsilom=0\n")
    r = invoke("check", "--config", str(cfg), "--out", str(workdir / "out"))
    assert r.exit_code == 2
    assert f"error: {cfg}:2: unknown key 'epsilom'" in r.output


# The options each command used to accept without reading them.
_UNREAD_OPTIONS = (
    [("check", "--dot"), ("check", "--poll-ms=5"), ("generate", "--poll-ms=5")]
    + [(cmd, flag) for cmd in ("ingest", "impact", "plan", "apply")
       for flag in ("--const=p_err=0", "--epsilon=1e-6", "--poll-ms=5", "--dot")])


@pytest.mark.parametrize("cmd,flag", _UNREAD_OPTIONS)
def test_command_rejects_an_option_it_does_not_read(workdir, cmd, flag):
    r = invoke(cmd, "--model", str(workdir / "nuclear.prism"), flag)
    assert r.exit_code == 2
    assert "No such option" in r.output


def test_nonpositive_epsilon_exits_2(workdir):
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"), "--epsilon", "0")
    assert r.exit_code == 2
    assert "error: epsilon must be positive" in r.output


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_poll_interval_exits_2(tmp_path, workdir, source):
    # It once ran a cycle and then died in time.sleep with a traceback.
    args = ["--out", str(workdir / "out"), "--max-cycles", "2"]
    if source == "flag":
        args += ["--model", str(workdir / "nuclear.prism"), "--poll-ms", "-5"]
    else:
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"model={workdir / 'nuclear.prism'}\npoll_ms = -5\n")
        args += ["--config", str(cfg)]
    r = invoke("watch", *args)
    assert r.exit_code == 2
    assert "error: poll_ms must not be negative, got -5" in r.output
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("cycles", ["0", "-1"])
def test_max_cycles_below_one_exits_2(workdir, cycles):
    # It once ran no cycle, wrote nothing and exited 0.
    r = invoke("watch", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"), "--max-cycles", cycles)
    assert r.exit_code == 2
    assert "--max-cycles" in r.output
    assert not (workdir / "out").exists()


def test_bad_config_number_exits_2(tmp_path, workdir):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"model={workdir / 'nuclear.prism'}\nepsilon=tiny\n")
    r = invoke("check", "--config", str(cfg), "--out", str(workdir / "out"))
    assert r.exit_code == 2
    assert "error: config key 'epsilon' is not a number" in r.output


def test_missing_props_file_exits_2(workdir):
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--props", str(workdir / "absent.props"),
               "--out", str(workdir / "out"))
    assert r.exit_code == 2
    assert "error:" in r.output and "absent.props" in r.output


def test_const_parsing_errors(workdir):
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"), "--const", "p_err=high")
    assert r.exit_code == 2


def test_generate_and_fixpoint(workdir):
    out = workdir / "out"
    r = invoke("generate", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out), "--dot")
    assert r.exit_code == 0, r.output
    gsn = (out / "nuclear.gsn").read_bytes()
    assert (out / "nuclear.dot").exists()
    r2 = invoke("generate", "--model", str(workdir / "nuclear.prism"),
                "--out", str(out), "--dot")
    assert r2.exit_code == 0
    assert (out / "nuclear.gsn").read_bytes() == gsn


def test_generate_preserves_manual_annotation(workdir):
    out = workdir / "out"
    invoke("generate", "--model", str(workdir / "nuclear.prism"),
           "--out", str(out))
    path = out / "nuclear.gsn"
    path.write_text(path.read_text()
                    + '\nannotate G.P_succ placeholder evidence_cost="4h"\n')
    r = invoke("generate", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out))
    assert r.exit_code == 0
    arg = parse_dsl(path.read_text())
    assert arg.placeholder_of("G.P_succ", "evidence_cost") == "4h"


def make_config(workdir, **kw):
    return PipelineConfig(str(workdir / "nuclear.prism"),
                          str(workdir / "nuclear.props"),
                          str(workdir / "out"), poll_ms=1, **kw)


def test_watch_single_cycle_then_idle(workdir):
    config = make_config(workdir)
    lines = []
    polls = []

    def fake_sleep(_):
        polls.append(1)
        if len(polls) > 3:
            raise KeyboardInterrupt  # nothing changed; stop polling
    with pytest.raises(KeyboardInterrupt):
        watch_loop(config, log=lines.append, sleep=fake_sleep)
    assert len(lines) == 1  # touch-without-change triggers nothing
    assert "exit=1" in lines[0]


def test_watch_picks_up_edit_and_bumps_only_affected(workdir):
    config = make_config(workdir)
    lines = []
    props_file = workdir / "nuclear.props"

    def fake_sleep(_):
        # edit the P_timeBound step bound between cycles
        props_file.write_text(props_file.read_text().replace("F<=5", "F<=6"))
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    arg = parse_dsl((workdir / "out" / "nuclear.gsn").read_text())
    assert arg.node("G.P_timeBound").version == 2
    assert arg.node("E.P_timeBound").version == 2
    assert arg.node("C.P_timeBound").version == 2  # formula text changed
    for other in ("G.P_succ", "E.P_succ", "G.root", "S.byProperty"):
        assert arg.node(other).version == 1, other


def test_watch_failure_isolation(workdir):
    config = make_config(workdir)
    lines = []
    props_file = workdir / "nuclear.props"
    good = None

    def fake_sleep(_):
        nonlocal good
        if good is None:
            good = (workdir / "out" / "nuclear.gsn").read_bytes()
            props_file.write_text("this is ( not a props file\n")
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert "cycle failed" in lines[1]
    # the broken cycle left the previous argument bit-identical
    assert (workdir / "out" / "nuclear.gsn").read_bytes() == good


def test_non_finite_integer_assignment_exits_2(tmp_path):
    (tmp_path / "m.prism").write_text(
        "dtmc\nconst double p = 0.5;\nmodule m\n  x : [0..3] init 0;\n"
        "  [] x=0 -> (x'=p*2);\n  [] x>0 -> (x'=x);\nendmodule\n")
    (tmp_path / "m.props").write_text('"r": P=? [ F x=1 ]\n')
    r = invoke("check", "--model", str(tmp_path / "m.prism"),
               "--out", str(tmp_path / "out"), "--const", "p=nan")
    assert r.exit_code == 2, r.output
    assert ("error: assignment drives 'x' to nan, outside [0..3], "
            "at state {'x': 0}") in r.output


@pytest.mark.parametrize("decl, var, expected", [
    ("const int c = x;", "y : [0..1] init 0;",
     "m.prism:2:1: error: value of constant 'c' refers to variable 'x'"),
    ("", "b : bool init true | x = 1;",
     "m.prism:5:3: error: init of 'b' refers to variable 'x'"),
    ("", "y : [0..x] init 0;",
     "m.prism:5:3: error: upper bound of 'y' refers to variable 'x'"),
], ids=["constant", "init", "bound"])
def test_variable_in_a_constant_context_exits_2(tmp_path, decl, var, expected):
    (tmp_path / "m.prism").write_text(
        f"dtmc\n{decl}\nmodule m\n  x : [0..1] init 0;\n  {var}\n"
        "  [] x=0 -> (x'=1);\nendmodule\n")
    (tmp_path / "m.props").write_text('"r": P=? [ F x=1 ]\n')
    r = invoke("check", "--model", str(tmp_path / "m.prism"),
               "--out", str(tmp_path / "out"))
    assert r.exit_code == 2, r.output
    assert expected in r.output


def test_undefined_constant_needs_an_override(tmp_path):
    (tmp_path / "m.prism").write_text(
        "dtmc\nconst int N;\nmodule m\n  x : [0..N] init 0;\n"
        "  [] x<N -> (x'=x+1);\nendmodule\n")
    (tmp_path / "m.props").write_text('"r": P=? [ F x=N ]\n')
    args = ("check", "--model", str(tmp_path / "m.prism"), "--out", str(tmp_path / "out"))
    r = invoke(*args)
    assert r.exit_code == 2, r.output
    assert "error: undefined constant 'N'" in r.output
    r = invoke(*args, "--const", "N=3")
    assert r.exit_code == 0, r.output
    assert r.output.startswith("built 4 states")


# Two inputs whose expressions once ended in a RecursionError traceback.
DEEP_PROPS = {
    "parentheses": '"deep": P=? [ F ' + "(" * 200 + "loc=1" + ")" * 200 + " ];\n",
    "long sum": '"long": P=? [ F ' + "+".join(["loc"] * 1500) + " >= 1 ];\n",
}


@pytest.mark.parametrize("case", DEEP_PROPS)
def test_deep_expression_exits_2(workdir, case):
    props = workdir / "deep.props"
    props.write_text(DEEP_PROPS[case])
    r = invoke("check", "--model", str(workdir / "nuclear.prism"),
               "--props", str(props), "--out", str(workdir / "out"))
    assert r.exit_code == 2
    assert f"error: {props}:1:" in r.output
    assert "deeper than" in r.output


def _artifacts(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("case", DEEP_PROPS)
def test_deep_expression_fails_one_watch_cycle(workdir, case):
    config = make_config(workdir)
    lines = []
    good = {}

    def fake_sleep(_):
        if not good:
            good.update(_artifacts(workdir / "out"))
            (workdir / "nuclear.props").write_text(DEEP_PROPS[case])
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert "exit=2 cycle failed" in lines[1] and "deeper than" in lines[1]
    assert _artifacts(workdir / "out") == good


def _formula_chain(text):
    """The model ``text`` with a chain of 39 formulas of 41 terms each (every
    one within the depth limit on its own) and a guard that names the last;
    expanded, the guard is about 1,600 levels deep."""
    ones = " + ".join(["1"] * 40)
    chain = [f"formula f1 = 1 + {ones};"]
    chain += [f"formula f{i} = f{i - 1} + {ones};" for i in range(2, 40)]
    text = text.replace("formula is_warning", "\n".join(chain) + "\nformula is_warning")
    return text.replace("[] loc = 4 ->", "[] loc = 4 & f39 > 0 ->")


def test_formula_chain_exits_2(workdir):
    model = workdir / "nuclear.prism"
    model.write_text(_formula_chain(model.read_text()))
    line = model.read_text().splitlines().index(
        "formula f2 = f1 + " + " + ".join(["1"] * 40) + ";") + 1
    r = invoke("check", "--model", str(model), "--out", str(workdir / "out"))
    assert r.exit_code == 2, r.output
    assert (f"error: {model}:{line}:1: error: formula 'f2' is deeper than "
            "50 levels with formulas expanded") in r.output


def test_each_diagnostic_is_printed_once(tmp_path):
    model = tmp_path / "k.prism"
    model.write_text(
        "dtmc\nconst int c = true;\nconst int d = 0.5;\n"
        "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n")
    (tmp_path / "k.props").write_text('"r": P=? [ F x=1 ]\n')
    r = invoke("check", "--model", str(model), "--out", str(tmp_path / "out"))
    assert r.exit_code == 2, r.output
    assert r.output.splitlines() == [
        f"error: {model}:2:1: error: value of constant 'c' is not an integer",
        f"error: {model}:3:1: error: value of constant 'd' is not an integer"]


def test_a_model_is_type_checked_once_per_rebuild(workdir, monkeypatch):
    calls = []
    monkeypatch.setattr(cassure.model._TypeChecker, "run",
                        lambda self, _real=cassure.model._TypeChecker.run:
                        calls.append(self.model) or _real(self))
    config = make_config(workdir)
    counts = []
    last = None
    for edit in (None, _edit(workdir / "nuclear.props", "F<=5", "F<=6"),
                 _edit(workdir / "nuclear.prism", "p_err = 0.01;", "p_err = 0.015;")):
        if edit:
            edit()
        calls.clear()
        last = cli.run_check(config, last)
        counts.append(len(calls))
    assert counts == [1, 0, 1]


def test_constants_defined_by_later_ones_exit_0(tmp_path):
    # Each constant is defined by the one declared after it, 1,000 deep.
    chain = "".join(f"const int c{i} = c{i + 1};\n" for i in range(1000))
    (tmp_path / "chain.prism").write_text(
        f"dtmc\n{chain}const int c1000 = 1;\n"
        "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=c0);\nendmodule\n")
    (tmp_path / "chain.props").write_text('"reach": P>=1 [ F x=1 ]\n')
    r = invoke("check", "--model", str(tmp_path / "chain.prism"),
               "--out", str(tmp_path / "out"))
    assert r.exit_code == 0, r.output
    assert "reach: holds" in r.output


def test_cyclic_constants_exit_2(tmp_path):
    (tmp_path / "cycle.prism").write_text(
        "dtmc\nconst int a = b;\nconst int b = a;\n"
        "module m\n  x : [0..1] init 0;\n  [] x=0 -> (x'=1);\nendmodule\n")
    (tmp_path / "cycle.props").write_text('"reach": P=? [ F x=1 ]\n')
    r = invoke("check", "--model", str(tmp_path / "cycle.prism"),
               "--out", str(tmp_path / "out"))
    assert r.exit_code == 2, r.output
    assert "error: cyclic constant definition involving 'a'" in r.output


def test_an_assignment_to_another_modules_variable_is_reported_once(tmp_path):
    (tmp_path / "foreign.prism").write_text(
        "dtmc\nmodule a\n  x : [0..1] init 0;\n  [] x=0 -> (y'=1);\nendmodule\n"
        "module b\n  y : [0..1] init 0;\n  [] y=0 -> (y'=1);\nendmodule\n")
    (tmp_path / "foreign.props").write_text('"reach": P=? [ F x=1 ]\n')
    r = invoke("check", "--model", str(tmp_path / "foreign.prism"),
               "--out", str(tmp_path / "out"))
    assert r.exit_code == 2, r.output
    assert r.output.count("assignment target 'y'") == 1


def test_a_counter_with_resets_builds_5001_layers(tmp_path):
    # One new state per breadth-first layer, each layer resetting to 0.
    (tmp_path / "deep.prism").write_text(
        "dtmc\nconst int M = 1;\nmodule m\n  x : [0..M] init 0;\n"
        "  [] x<M -> 0.9 : (x'=x+1) + 0.1 : (x'=0);\nendmodule\n")
    (tmp_path / "deep.props").write_text("P>=1 [ F x=M ]\n")
    r = invoke("check", "--model", str(tmp_path / "deep.prism"),
               "--out", str(tmp_path / "out"), "--const", "M=5000")
    assert r.exit_code == 0, r.output
    assert r.output.startswith("built 5001 states")


# The grid model of ROADMAP.md's Baseline, verbatim: N has no value.
BASELINE_GRID = """\
dtmc const int N; module walk x:[0..N] init 0; y:[0..N] init 0;
[] x<N & y<N -> 0.4:(x'=x+1) + 0.4:(y'=y+1) + 0.2:(x'=0);
[] x=N | y=N -> (x'=x); endmodule rewards "steps" true : 1; endrewards
"""


def test_the_baseline_grid_needs_a_value_for_n(tmp_path):
    (tmp_path / "grid.prism").write_text(BASELINE_GRID)
    (tmp_path / "grid.props").write_text('R{"steps"}=? [ F x=N | y=N ]\n')
    args = ("check", "--model", str(tmp_path / "grid.prism"),
            "--out", str(tmp_path / "out"))
    r = invoke(*args, "--const", "N=30")
    assert r.exit_code == 0, r.output
    assert r.output.startswith("built 960 states")
    r = invoke(*args)
    assert r.exit_code == 2, r.output
    assert "error: undefined constant 'N'" in r.output


def test_formula_chain_fails_one_watch_cycle(workdir):
    config = make_config(workdir)
    model = workdir / "nuclear.prism"
    lines = []
    good = {}

    def fake_sleep(_):
        if not good:
            good.update(_artifacts(workdir / "out"))
            model.write_text(_formula_chain(model.read_text()))
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert "exit=2 cycle failed" in lines[1] and "deeper than" in lines[1]
    assert _artifacts(workdir / "out") == good


def test_watch_survives_unwritable_output(workdir):
    # The first cycle cannot create its output directory (an OSError); the
    # loop logs the failure and runs the next cycle once the inputs change.
    blocker = workdir / "blocker"
    blocker.write_text("a file where the output directory should go\n")
    config = make_config(workdir)
    config.out = str(blocker / "out")
    lines = []
    props_file = workdir / "nuclear.props"

    def fake_sleep(_):
        blocker.unlink()
        props_file.write_text(props_file.read_text() + "\n")
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert "exit=2 cycle failed" in lines[0]
    assert "exit=1 checked 17 properties" in lines[1]
    assert (blocker / "out" / "nuclear.gsn").exists()


def test_lifecycle_commands_end_to_end(workdir):
    out = workdir / "out"
    model = str(workdir / "nuclear.prism")
    invoke("generate", "--model", model, "--out", str(out))

    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder monitor_id="mon.succ"\n'
                   'annotate G.P_succ placeholder confidence_threshold="0.9"\n'
                   'annotate G.P_succ placeholder evidence_cost="2h"\n')

    events = workdir / "events.jsonl"
    events.write_text(json.dumps({
        "timestamp": "2026-08-20T09:00:00Z", "monitor_id": "mon.succ",
        "kind": "confidence", "value": 0.4}) + "\n")
    r = invoke("ingest", "--model", model, "--out", str(out),
               "--events", str(events))
    assert r.exit_code == 0, r.output
    assert "reopened G.P_succ" in r.output
    assert "<<Reopened>>" in gsn.read_text()

    r = invoke("impact", "--model", model, "--out", str(out))
    assert r.exit_code == 0, r.output
    assert "uncertain=1" in r.output
    report = json.loads((out / "impact_report.json").read_text())
    assert report["classifications"]["G.P_succ"] == "uncertain"

    r = invoke("plan", "--model", model, "--out", str(out))
    assert r.exit_code == 0, r.output
    assert "1. G.P_succ [re-verify] cost=2h" in r.output

    r = invoke("apply", "--model", model, "--out", str(out),
               "--fresh-results", str(out / "nuclear.results.jsonl"))
    assert r.exit_code == 0, r.output
    text = gsn.read_text()
    assert "annotate G.P_succ stereotype <<EvidenceProvided>>" in text
    assert "<<Reopened>>" not in text


def test_lifecycle_round_needs_no_props_file(workdir):
    out = _generate(workdir)
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(workdir / "nuclear.prism", bare)
    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder monitor_id="mon.succ"\n')
    events = workdir / "events.jsonl"
    events.write_text(json.dumps({
        "timestamp": "2026-08-20T09:00:00Z", "monitor_id": "mon.succ",
        "kind": "violation"}) + "\n")
    model = ("--model", str(bare / "nuclear.prism"), "--out", str(out))
    for cmd, *extra in (("ingest", "--events", str(events)), ("impact",),
                        ("plan",), ("apply", "--fresh-results",
                                    str(out / "nuclear.results.jsonl"))):
        r = invoke(cmd, *model, *extra)
        assert r.exit_code == 0, (cmd, r.output)
    assert "annotate G.P_succ stereotype <<EvidenceProvided>>" in gsn.read_text()


def test_plan_on_a_stale_impact_report_exits_2_and_writes_nothing(workdir):
    # The report classifies G.P_succ, whose property was deleted and whose
    # node the next generate dropped: annotating it would write a .gsn that
    # no command can read.
    out = _generate(workdir)
    model = ("--model", str(workdir / "nuclear.prism"), "--out", str(out))
    package = workdir / "package"
    package.mkdir()
    (package / "package.json").write_text(json.dumps({"changed_files": [
        {"path": "nuclear.props", "old_fingerprint": "a", "new_fingerprint": "b"}]}))
    r = invoke("impact", *model, "--package", str(package))
    assert r.exit_code == 0, r.output
    props = workdir / "nuclear.props"
    props.write_text("".join(line for line in props.read_text().splitlines(True)
                             if '"P_succ"' not in line))
    _generate(workdir)
    gsn = out / "nuclear.gsn"
    before = gsn.read_bytes()
    r = invoke("plan", *model)
    assert r.exit_code == 2, r.output
    assert "error: annotation references unknown node 'G.P_succ'" in r.output
    assert gsn.read_bytes() == before
    assert not (out / "plan.json").exists()
    for cmd in ("impact", "plan"):
        r = invoke(cmd, *model)
        assert r.exit_code == 0, (cmd, r.output)
    assert "G.P_succ" not in gsn.read_text()


PLAN_STDOUT = """\
1. G.P_forb [re-verify] cost=1d
2. G.P_succ [re-verify] cost=2h
3. G.P_battRisk [re-verify] cost=?
4. G.P_condSucc [re-verify] cost=?
5. G.P_critMode [re-verify] cost=?
6. G.P_fullSpeed [re-verify] cost=?
7. G.P_noOpOutside [re-verify] cost=?
8. G.P_safe [re-verify] cost=3 weeks
9. G.P_safeEnergy [re-verify] cost=?
10. G.P_slowSpeed [re-verify] cost=?
11. G.P_stopped [re-verify] cost=?
12. G.P_timeBound [re-verify] cost=soon
13. G.P_warnMode [re-verify] cost=?
14. G.R_dose [re-verify] cost=?
15. G.R_moves [re-verify] cost=?
16. G.R_time_cm [re-verify] cost=?
17. G.R_time_stopped [re-verify] cost=?
18. G.root [manual-review] cost=?
"""


def test_plan_prints_its_entries_and_warnings(workdir):
    out = _generate(workdir)
    model = ("--model", str(workdir / "nuclear.prism"), "--out", str(out))
    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder monitor_id="mon.conf"\n'
                   'annotate G.P_succ placeholder confidence_threshold="0.9"\n'
                   'annotate G.P_succ placeholder evidence_cost="2h"\n'
                   'annotate G.P_forb placeholder monitor_id="mon.viol"\n'
                   'annotate G.P_forb placeholder evidence_cost="1d"\n'
                   'annotate G.P_safe placeholder evidence_cost="3 weeks"\n'
                   'annotate G.P_timeBound placeholder evidence_cost="soon"\n')
    events = workdir / "events.jsonl"
    events.write_text(json.dumps({"timestamp": "t0", "monitor_id": "mon.viol",
                                  "kind": "violation"}) + "\n"
                      + json.dumps({"timestamp": "t1", "monitor_id": "mon.conf",
                                    "kind": "confidence", "value": 0.4}) + "\n")
    package = workdir / "package"
    package.mkdir()
    (package / "package.json").write_text(json.dumps({"changed_files": [
        {"path": "nuclear.prism", "old_fingerprint": "a", "new_fingerprint": "b"}]}))
    assert invoke("ingest", *model, "--events", str(events)).exit_code == 0
    assert invoke("impact", *model, "--package", str(package)).exit_code == 0
    r = invoke("plan", *model)
    assert r.exit_code == 0, r.output
    assert r.stdout == PLAN_STDOUT
    assert r.stderr == ("warning: unparseable evidence_cost '3 weeks' on G.P_safe\n"
                        "warning: unparseable evidence_cost 'soon' on G.P_timeBound\n")
    # An empty plan prints nothing.
    (out / "impact_report.json").write_text(json.dumps(
        {"classifications": {}, "rationales": {}, "summary": ""}))
    r = invoke("plan", *model)
    assert r.exit_code == 0, r.output
    assert (r.stdout, r.stderr) == ("", "")


def test_watch_on_a_missing_model_file_exits_2(tmp_path):
    model = tmp_path / "missing.prism"
    r = invoke("watch", "--model", str(model), "--out", str(tmp_path / "out"),
               "--max-cycles", "1")
    assert r.exit_code == 2
    assert f"error: model file {model} does not exist" in r.output
    assert not (tmp_path / "out").exists()


def test_ingest_on_an_unparseable_confidence_threshold_exits_2(workdir):
    out = _generate(workdir)
    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder monitor_id="mon.succ"\n'
                   'annotate G.P_succ placeholder confidence_threshold="high"\n')
    before = gsn.read_bytes()
    events = workdir / "events.jsonl"
    events.write_text(json.dumps({
        "timestamp": "2026-08-20T09:00:00Z", "monitor_id": "mon.succ",
        "kind": "confidence", "value": 0.4}) + "\n")
    r = invoke("ingest", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out), "--events", str(events))
    assert r.exit_code == 2
    assert "error: unparseable confidence_threshold 'high' on G.P_succ" in r.output
    assert gsn.read_bytes() == before


@pytest.mark.parametrize("bad, error", [
    ({"kind": "oops"}, "unknown event kind 'oops'"),
    ({"kind": "confidence", "value": 2},
     "confidence event needs a value in [0,1], got 2"),
])
def test_ingest_names_the_line_of_an_event_that_fails_its_check(workdir, bad, error):
    out = _generate(workdir)
    gsn = out / "nuclear.gsn"
    before = gsn.read_bytes()
    events = workdir / "events.jsonl"
    good = {"timestamp": "t", "monitor_id": "mon.succ", "kind": "violation"}
    events.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **bad)) + "\n")
    r = invoke("ingest", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out), "--events", str(events))
    assert r.exit_code == 2
    assert f"error: {events}: malformed event record on line 2: {error}" in r.output
    assert gsn.read_bytes() == before


def test_no_model_given_exits_2(tmp_path):
    r = invoke("check", "--out", str(tmp_path))
    assert r.exit_code == 2


def _generate(workdir):
    out = workdir / "out"
    r = invoke("generate", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out))
    assert r.exit_code == 0, r.output
    return out


def test_newline_in_monitor_event_round_trips(workdir):
    out = _generate(workdir)
    model = ("--model", str(workdir / "nuclear.prism"), "--out", str(out))
    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder monitor_id="mon.succ"\n')
    events = workdir / "events.jsonl"
    events.write_text(json.dumps({
        "timestamp": "2026-08-20T09:00:00Z", "monitor_id": "mon.succ",
        "kind": "violation", "payload": "line1\nline2"}) + "\n")
    r = invoke("ingest", *model, "--events", str(events))
    assert r.exit_code == 0, r.output
    assert 'runtime_log="line1\\nline2"' in gsn.read_text()
    for cmd in ("impact", "plan"):
        r = invoke(cmd, *model)
        assert r.exit_code == 0, r.output
    arg = parse_dsl(gsn.read_text())
    assert arg.placeholder_of("G.P_succ", "runtime_log") == "line1\nline2"


# Line breaks of str.splitlines that JSON allows raw inside a string; a JSON
# Lines record ends at "\n" only.
RAW_BREAKS = pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"],
                                     ids=["NEL", "LS", "PS"])


@RAW_BREAKS
def test_a_raw_line_break_inside_a_result_string_reads(workdir, brk):
    out = _generate(workdir)
    model = ("--model", str(workdir / "nuclear.prism"), "--out", str(out))
    package = workdir / "package"
    package.mkdir()
    (package / "package.json").write_text(json.dumps({"changed_files": [
        {"path": "nuclear.prism", "old_fingerprint": "a", "new_fingerprint": "b"}]}))
    baseline = out / "nuclear.results.jsonl"
    records = [json.loads(line) for line in baseline.read_text().splitlines()]
    records[0]["stats"]["note"] = f"a{brk}b"
    records.append(dict(records[1], property=f"a{brk}b"))
    fresh = workdir / "fresh.jsonl"
    fresh.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))
    assert brk in fresh.read_text()
    r = invoke("impact", *model, "--package", str(package),
               "--fresh-results", str(fresh), "--baseline-results", str(baseline))
    assert r.exit_code == 0, r.output
    assert r.output == "valid=17 invalid=0 uncertain=1\n"


@RAW_BREAKS
def test_a_raw_line_break_inside_an_event_string_reads(workdir, brk):
    out = _generate(workdir)
    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text() + "\n"
                   'annotate G.P_succ placeholder monitor_id="mon.succ"\n')
    events = workdir / "events.jsonl"
    events.write_text(json.dumps({
        "timestamp": "2026-08-20T09:00:00Z", "monitor_id": "mon.succ",
        "kind": "violation", "detail": f"a{brk}b"}, ensure_ascii=False) + "\n")
    r = invoke("ingest", "--model", str(workdir / "nuclear.prism"), "--out", str(out),
               "--events", str(events))
    assert r.exit_code == 0, r.output
    assert r.output == "reopened G.P_succ (violation)\n"
    assert parse_dsl(gsn.read_text()).placeholder_of("G.P_succ", "runtime_log") == f"a{brk}b"


def test_plan_on_malformed_argument_exits_2(workdir):
    out = _generate(workdir)
    gsn = out / "nuclear.gsn"
    gsn.write_text(gsn.read_text().replace("version 1\n", "version one\n", 1))
    (out / "impact_report.json").write_text(json.dumps(
        {"classifications": {}, "rationales": {}, "summary": ""}))
    r = invoke("plan", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out))
    assert r.exit_code == 2
    assert f"error: {gsn}: line 1: malformed line" in r.output


def test_watch_survives_malformed_previous_argument(workdir):
    config = make_config(workdir)
    gsn = workdir / "out" / "nuclear.gsn"
    gsn.parent.mkdir()
    gsn.write_text("argument\n")
    lines = []
    props_file = workdir / "nuclear.props"

    def fake_sleep(_):
        gsn.unlink()
        props_file.write_text(props_file.read_text() + "\n")
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert f"exit=2 cycle failed: {gsn}: line 1: malformed line" in lines[0]
    assert "exit=1 checked 17 properties" in lines[1]


def test_generate_rejects_a_node_id_the_format_cannot_hold(workdir):
    (workdir / "spaced.props").write_text('"my prop": P=? [ F loc=4 ];\n')
    out = workdir / "out"
    r = invoke("generate", "--model", str(workdir / "nuclear.prism"),
               "--props", str(workdir / "spaced.props"), "--out", str(out))
    assert r.exit_code == 2
    assert "error: generated argument failed validation: node id 'G.my prop'" \
        in r.output
    assert not out.exists()


def test_a_property_named_root_exits_2_and_writes_nothing(workdir):
    # Its goal G.root would be the root goal; check still accepts the name.
    props = workdir / "nuclear.props"
    props.write_text(props.read_text() + '"root": P=? [ F loc = 5 ];\n')
    out = workdir / "out"
    r = invoke("generate", "--model", str(workdir / "nuclear.prism"), "--out", str(out))
    assert r.exit_code == 2
    assert r.output == (f"error: {props}:21:1: property name 'root' is reserved: "
                        f"its goal would be the root goal G.root\n")
    assert not out.exists()
    r = invoke("check", "--model", str(workdir / "nuclear.prism"), "--out", str(out))
    assert r.exit_code == 1
    assert "root: 0.0388218" in r.output


def test_a_property_named_root_fails_one_watch_cycle(workdir):
    config = make_config(workdir)
    lines = []
    good = {}
    props = workdir / "nuclear.props"

    def fake_sleep(_):
        if not good:
            good.update(_artifacts(workdir / "out"))
            props.write_text(props.read_text() + '"root": P=? [ F loc = 5 ];\n')
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert lines[1] == (f"[cycle 2] exit=2 cycle failed: {props}:21:1: property "
                        f"name 'root' is reserved: its goal would be the root goal "
                        f"G.root")
    assert _artifacts(workdir / "out") == good


def test_adding_or_removing_properties_bumps_the_argument_version(workdir):
    props = workdir / "nuclear.props"
    generate = ("generate", "--model", str(workdir / "nuclear.prism"),
                "--out", str(workdir / "out"))
    assert invoke(*generate).output.endswith("(53 nodes, version 1)\n")
    props.write_text(props.read_text() + '"P_extra": P=? [ F loc = 3 ];\n')
    assert invoke(*generate).output.endswith("(56 nodes, version 2)\n")
    props.write_text("".join(line for line in props.read_text().splitlines(True)
                             if '"P_succ"' not in line and '"P_forb"' not in line))
    assert invoke(*generate).output.endswith("(50 nodes, version 3)\n")
    assert invoke(*generate).output.endswith("(50 nodes, version 3)\n")


def _lifecycle_case(workdir, case):
    """Write the malformed input of ``case``; returns (command args, the
    file the error must name)."""
    out = workdir / "out"
    model = ("--model", str(workdir / "nuclear.prism"), "--out", str(out))
    if case == "fresh-results":
        bad = workdir / "fresh.jsonl"
        bad.write_text("not json\n")
        return ("impact", *model, "--fresh-results", str(bad)), bad
    if case == "impact-report":
        bad = out / "impact_report.json"
        bad.write_text("{}")
        return ("plan", *model), bad
    if case == "impact-report-types":
        bad = out / "impact_report.json"
        bad.write_text(json.dumps(
            {"classifications": [], "rationales": {}, "summary": ""}))
        return ("plan", *model), bad
    if case == "plan":
        bad = out / "plan.json"
        bad.write_text('[{"goal_id": "G.x"}]')
        return ("apply", *model, "--fresh-results",
                str(out / "nuclear.results.jsonl")), bad
    entry = {"goal_id": "G.P_succ", "strategy": "re-verify", "rank": 1,
             "evidence_cost": None, "cost_hours": None, "critical": False}
    if case == "plan-types":
        bad = out / "plan.json"
        bad.write_text(json.dumps([dict(entry, goal_id=["G.P_succ"])]))
        return ("apply", *model, "--fresh-results",
                str(out / "nuclear.results.jsonl")), bad
    if case == "result-types":
        (out / "plan.json").write_text(json.dumps([entry]))
        bad = workdir / "fresh.jsonl"
        bad.write_text(json.dumps({"property": "P_succ", "kind": "probability",
                                   "value": "high"}) + "\n")
        return ("apply", *model, "--fresh-results", str(bad)), bad
    if case == "event-types":
        bad = workdir / "events.jsonl"
        bad.write_text(json.dumps({"timestamp": "t", "monitor_id": ["m"],
                                   "kind": "violation"}) + "\n")
        return ("ingest", *model, "--events", str(bad)), bad
    package = workdir / "package"
    package.mkdir()
    bad = package / "package.json"
    if case == "package-types":
        bad.write_text(json.dumps({"reopened_goals": [["G.P_succ"]]}))
    else:
        bad.write_text(json.dumps({"changed_files": [
            {"old_fingerprint": "a", "new_fingerprint": "b"}]}))
    return ("impact", *model, "--package", str(package)), bad


@pytest.mark.parametrize("case", ["fresh-results", "impact-report",
                                  "impact-report-types", "plan", "plan-types",
                                  "result-types", "event-types", "package",
                                  "package-types"])
def test_malformed_lifecycle_input_exits_2(workdir, case):
    _generate(workdir)
    args, bad = _lifecycle_case(workdir, case)
    r = invoke(*args)
    assert r.exit_code == 2, r.output
    assert f"error: {bad}: malformed" in r.output


@pytest.mark.parametrize("case", ["ingest-without-argument", "plan-without-impact-report",
                                  "apply-without-plan", "config-line-without-equals",
                                  "const-without-value"])
def test_absent_or_malformed_command_input_exits_2(workdir, case):
    out = workdir / "out"
    model = ("--model", str(workdir / "nuclear.prism"), "--out", str(out))
    if case.startswith(("plan", "apply")):
        _generate(workdir)
    events, cfg = workdir / "events.jsonl", workdir / "pipeline.cfg"
    events.write_text("")
    cfg.write_text(f"model={workdir / 'nuclear.prism'}\nepsilon\n")
    args, error = {
        "ingest-without-argument": (
            ("ingest", *model, "--events", str(events)),
            f"no argument file at {out / 'nuclear.gsn'}; run generate first"),
        "plan-without-impact-report": (
            ("plan", *model),
            f"no impact report at {out / 'impact_report.json'}; run impact first"),
        "apply-without-plan": (
            ("apply", *model, "--fresh-results", str(out / "nuclear.results.jsonl")),
            f"no plan at {out / 'plan.json'}; run plan first"),
        "config-line-without-equals": (
            ("check", "--config", str(cfg), "--out", str(out)),
            f"{cfg}:2: expected key=value"),
        "const-without-value": (
            ("check", *model, "--const", "N"), "--const expects NAME=VALUE, got 'N'"),
    }[case]
    r = invoke(*args)
    assert r.exit_code == 2
    assert r.output == f"error: {error}\n"


def test_impact_rejects_a_nan_result_value(workdir):
    # A NaN value would compare as unchanged with any baseline and confirm
    # the goal; JSON has no NaN, so the record is malformed.
    out = _generate(workdir)
    package = workdir / "package"
    package.mkdir()
    (package / "package.json").write_text(json.dumps({"changed_files": [
        {"path": "nuclear.prism", "old_fingerprint": "a",
         "new_fingerprint": "b"}]}))
    fresh = workdir / "fresh.jsonl"
    fresh.write_text('{"property": "P_succ", "kind": "probability", '
                     '"value": NaN}\n')
    r = invoke("impact", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out), "--package", str(package),
               "--fresh-results", str(fresh),
               "--baseline-results", str(out / "nuclear.results.jsonl"))
    assert r.exit_code == 2, r.output
    assert f"error: {fresh}: malformed result record on line 1" in r.output
    assert not (out / "impact_report.json").exists()


@pytest.mark.parametrize("fresh_record", [
    '{"property": "R_moves", "kind": "reward", "value": Infinity}',
    '{"property": "P_succ", "kind": "probability", "value": 7.5}',
    '{"property": "P_succ", "kind": "banana", "value": 0.5}',
    '{"property": "R_moves", "kind": "reward", "value": -5}',
    '{"property": "P_succ", "kind": "boolean", "verdict": null}',
    '{"property": "P_succ", "kind": "probability", "value": null, "infinite": true}',
    '{"property": "R_moves", "kind": "reward", "value": 3, "infinite": true}',
    '{"property": "P_succ", "kind": "probability", "value": 0.5, "verdict": true}',
    '{"property": "R_moves", "kind": "reward", "value": 3, "marginal": true}',
], ids=["reward-infinity", "probability-7.5", "unknown-kind", "negative-reward",
        "boolean-without-verdict", "infinite-probability", "infinite-reward-with-value",
        "probability-with-verdict", "marginal-reward"])
def test_impact_rejects_an_infinite_or_out_of_range_value(workdir, fresh_record):
    # An Infinity would read as a finite reward, and 7.5 as a probability;
    # the others are records that check_property never writes.
    out = _generate(workdir)
    package = workdir / "package"
    package.mkdir()
    (package / "package.json").write_text(json.dumps({"changed_files": [
        {"path": "nuclear.prism", "old_fingerprint": "a",
         "new_fingerprint": "b"}]}))
    fresh = workdir / "fresh.jsonl"
    fresh.write_text(fresh_record + "\n")
    r = invoke("impact", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out), "--package", str(package),
               "--fresh-results", str(fresh),
               "--baseline-results", str(out / "nuclear.results.jsonl"))
    assert r.exit_code == 2, r.output
    assert f"error: {fresh}: malformed result record on line 1" in r.output
    assert not (out / "impact_report.json").exists()


def test_non_utf8_input_exits_2(workdir):
    out = _generate(workdir)
    events = workdir / "events.jsonl"
    events.write_bytes(b"\xff\xfe not text\n")
    r = invoke("ingest", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out), "--events", str(events))
    assert r.exit_code == 2
    assert f"error: {events}: 'utf-8' codec can't decode byte 0xff" in r.output


def test_non_utf8_model_fails_one_watch_cycle(workdir):
    config = make_config(workdir)
    model = workdir / "nuclear.prism"
    text = model.read_text()
    model.write_bytes(b"\xff" + text.encode())
    lines = []

    def fake_sleep(_):
        model.write_text(text)
    cycles = watch_loop(config, max_cycles=2, log=lines.append,
                        sleep=fake_sleep)
    assert cycles == 2
    assert "exit=2 cycle failed: 'utf-8' codec can't decode" in lines[0]
    assert "exit=1 checked 17 properties" in lines[1]


# ---- the watcher reuses the state space while the model text is unchanged ----

def _watch(config, edits, monkeypatch):
    """Run one watch cycle, then one per edit (a function called before the
    cycle it triggers).  Returns the log lines and, per cycle, the calls to
    parse_model and build_dtmc and the keys left in the space's two memos."""
    calls = {"parse_model": 0, "build_dtmc": 0}
    for name in calls:
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    memo_keys = []

    def checked(space, props, cfg):
        results = check_properties(space, props, cfg)
        memo_keys.append(set(space.memo.entries) | set(space.graph_memo.entries))
        return results
    monkeypatch.setattr(cli, "check_properties", checked)
    per_cycle, lines = [], []

    def log(line):
        lines.append(line)
        per_cycle.append(dict(calls))
        for name in calls:
            calls[name] = 0
    pending = list(edits)

    def sleep(_):
        pending.pop(0)()
    watch_loop(config, max_cycles=len(edits) + 1, log=log, sleep=sleep)
    return lines, per_cycle, memo_keys


def _edit(path, old, new):
    def edit():
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
    return edit


def test_props_only_edit_reuses_the_state_space(workdir, monkeypatch):
    out = workdir / "out"
    before = workdir / "before"
    props = workdir / "nuclear.props"

    def edit():
        shutil.copytree(out, before)
        _edit(props, "F<=5", "F<=6")()
    lines, per_cycle, _ = _watch(make_config(workdir), [edit], monkeypatch)
    assert lines[0].endswith("; state space built")
    assert lines[1].endswith("; state space reused")
    assert per_cycle == [{"parse_model": 1, "build_dtmc": 1},
                         {"parse_model": 0, "build_dtmc": 0}]
    # A fresh generate from the same inputs writes the same artifacts.
    watched = ((out / "nuclear.gsn").read_bytes(),
               (out / "nuclear.results.jsonl").read_bytes())
    shutil.rmtree(out)
    shutil.copytree(before, out)
    r = invoke("generate", "--model", str(workdir / "nuclear.prism"),
               "--out", str(out))
    assert r.exit_code == 0, r.output
    assert watched == ((out / "nuclear.gsn").read_bytes(),
                       (out / "nuclear.results.jsonl").read_bytes())


def test_model_edit_rebuilds_the_state_space(workdir, monkeypatch):
    edit = _edit(workdir / "nuclear.prism", "p_err = 0.01;", "p_err = 0.015;")
    lines, per_cycle, _ = _watch(make_config(workdir), [edit], monkeypatch)
    assert lines[1].endswith("; state space re-evaluated")
    assert per_cycle[1] == {"parse_model": 1, "build_dtmc": 1}


def test_guard_edit_builds_the_state_space(workdir, monkeypatch):
    edit = _edit(workdir / "nuclear.prism", "[] loc = 4 -> (loc' = 4);",
                 "[] loc = 4 -> (loc' = 4);\n  [] loc = 5 & rad = 2 -> (loc' = 4);")
    lines, per_cycle, _ = _watch(make_config(workdir), [edit], monkeypatch)
    assert lines[1].endswith("; state space built")
    assert per_cycle[1] == {"parse_model": 1, "build_dtmc": 1}


def test_model_only_edit_reuses_the_parsed_props(workdir, monkeypatch):
    parsed = []
    monkeypatch.setattr(cli, "parse_properties",
                        lambda *args, _real=cli.parse_properties, **kwargs:
                        parsed.append(args) or _real(*args, **kwargs))
    model, props = workdir / "nuclear.prism", workdir / "nuclear.props"
    edits = [_edit(model, "p_err = 0.01;", "p_err = 0.015;"),
             _edit(props, "F<=5", "F<=6"),
             _edit(model, "p_err = 0.015;", "p_err = 0.01;")]
    lines, _, _ = _watch(make_config(workdir), edits, monkeypatch)
    assert [line.rsplit("; ", 1)[1] for line in lines] == [
        "state space built", "state space re-evaluated",
        "state space reused", "state space re-evaluated"]
    assert len(parsed) == 2  # the first cycle and the props edit


def test_model_edit_writes_what_generate_writes(workdir, monkeypatch):
    """A watch cycle after a p_err edit, against generate run twice into one
    directory around the same edit."""
    edit = _edit(workdir / "nuclear.prism", "p_err = 0.01;", "p_err = 0.015;")
    lines, _, _ = _watch(make_config(workdir), [edit], monkeypatch)
    assert lines[1].endswith("; state space re-evaluated")
    out = workdir / "out"
    watched = ((out / "nuclear.gsn").read_bytes(),
               (out / "nuclear.results.jsonl").read_bytes())
    _edit(workdir / "nuclear.prism", "p_err = 0.015;", "p_err = 0.01;")()
    fresh = workdir / "fresh"
    for step in (None, edit):
        if step:
            step()
        r = invoke("generate", "--model", str(workdir / "nuclear.prism"),
                   "--out", str(fresh))
        assert r.exit_code == 0, r.output
    assert watched == ((fresh / "nuclear.gsn").read_bytes(),
                       (fresh / "nuclear.results.jsonl").read_bytes())


def test_memo_keeps_only_the_current_cycles_entries(workdir, monkeypatch):
    props = workdir / "nuclear.props"
    first, second = props.read_text(), '"P_other": P=? [ F loc = 3 ];\n'
    edits = [lambda: props.write_text(second), lambda: props.write_text(first)] * 2
    lines, _, memo_keys = _watch(make_config(workdir), edits, monkeypatch)
    assert all(line.endswith("; state space reused") for line in lines[1:])
    bound = bind_constants(parse_model((workdir / "nuclear.prism").read_text()))
    fresh = {}
    for text in (first, second):
        space = build_dtmc(bound)
        check_properties(space, parse_properties(text))
        fresh[text] = set(space.memo.entries) | set(space.graph_memo.entries)
    assert fresh[first].isdisjoint(fresh[second])
    assert memo_keys == [fresh[first], fresh[second]] * 2 + [fresh[first]]


def test_failed_cycle_keeps_the_cached_state_space(workdir, monkeypatch):
    props = workdir / "nuclear.props"
    good = props.read_text()
    edits = [lambda: props.write_text("this is ( not a props file\n"),
             lambda: props.write_text(good + "\n")]
    lines, per_cycle, _ = _watch(make_config(workdir), edits, monkeypatch)
    assert "exit=2 cycle failed" in lines[1]
    assert lines[2].endswith("; state space reused")
    assert per_cycle[2] == {"parse_model": 0, "build_dtmc": 0}


# State 0 leaves itself with probability 2e-20, which rounds its self-loop
# to exactly 1: the system of F x=2 is singular.
ROUNDED_LOOP = """\
dtmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1e-20:(x'=1) + 1e-20:(x'=2) + (1-2e-20):(x'=0);
  [] x>0 -> (x'=x);
endmodule
"""
SINGULAR = ("1:1: singular system over 1 unknown states: state 0 keeps itself "
            "with probability 1")


@pytest.mark.parametrize("command", ["check", "generate"])
def test_a_singular_solve_exits_2_and_writes_nothing(tmp_path, command):
    model, props, out = tmp_path / "loop.prism", tmp_path / "loop.props", tmp_path / "out"
    model.write_text(ROUNDED_LOOP)
    props.write_text('"a": P=? [ F x=2 ];\n')
    r = invoke(command, "--model", str(model), "--out", str(out))
    assert r.exit_code == 2
    assert r.output == f"error: {props}:{SINGULAR}\n"
    assert not out.exists()


def test_a_singular_solve_fails_one_watch_cycle(tmp_path):
    model, props, out = tmp_path / "loop.prism", tmp_path / "loop.props", tmp_path / "out"
    model.write_text(ROUNDED_LOOP)
    props.write_text('"a": P=? [ F x=2 ];\n')
    r = invoke("watch", "--model", str(model), "--out", str(out), "--max-cycles", "1")
    assert r.output == f"[cycle 1] exit=2 cycle failed: {props}:{SINGULAR}\n"
    assert r.exit_code == 2


@pytest.mark.parametrize("broken_cycle, status", [(1, 0), (2, 2)])
def test_a_bounded_watch_exits_2_when_its_last_cycle_failed(workdir, monkeypatch,
                                                            broken_cycle, status):
    # A cycle that ran exits 0 even on a violated bound, as generate does.
    props = workdir / "nuclear.props"
    good = props.read_text()
    texts = {1: good, 2: good + "\n"}
    texts[broken_cycle] = "this is ( not a props file\n"
    props.write_text(texts[1])
    monkeypatch.setattr(cli.time, "sleep", lambda _: props.write_text(texts[2]))
    r = invoke("watch", "--model", str(workdir / "nuclear.prism"),
               "--out", str(workdir / "out"), "--max-cycles", "2")
    codes = [line.split()[2] for line in r.output.splitlines()]
    assert codes == (["exit=2", "exit=1"] if broken_cycle == 1 else ["exit=1", "exit=2"])
    assert r.exit_code == status
