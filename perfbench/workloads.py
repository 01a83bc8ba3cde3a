"""The six workloads.  Each one drives the program through its in-process
CLI entry point (or ``watch_loop``), times one kind of operation, and checks
every operation's outputs against ``reference.py`` outside the timed part.

A workload exposes:

* ``prepare(d)``: write the inputs into the fresh directory ``d`` and warm
  up; the last prepared directory is the one measured;
* ``measure(deadline)``: run whole operations until the deadline passes;
* ``traced_round(tr)``: the replay of the operation's pipeline from public
  calls, then the operation itself, under the tracer;
* ``finish()``: the checks that need the program only once per run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from cassure import Annotation, bind_constants, build_dtmc, parse_dsl, parse_model, serialize_dsl
from cassure.cli import PipelineConfig, main as cli_main, watch_loop

import inputs as I
import reference as R
import tracing as T
from calibrate import Calibration

# Calibration time after each operation, as a share of the operation's time
# (at least one kernel run), and before the first operation.
CAL_SHARE = 0.1
CAL_FIRST_S = 0.2


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  Each operation takes one to two seconds, so a run holds
    several and the calibration between them follows the machine's drift;
    the larger sizes named in the ROADMAP (N=60 and 400, 2,000 properties)
    took 4-12 s per operation and left one or two per run."""
    grid_solve_n: int = 30
    grid_build_n: int = 150
    props: int = 1000
    sample: int = 24


FULL = Sizes()
SMOKE = Sizes(grid_solve_n=8, grid_build_n=12, props=40, sample=8)


@dataclass
class Samples:
    durations: list = field(default_factory=list)   # seconds, successful ops
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)      # mismatches with the reference
    max_rel_error: float = 0.0


def cli(*args):
    """Run one `cassure` command in-process and return its exit code; exit
    code 2 (an error) raises, which counts the operation as failed."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main.main([str(a) for a in args], prog_name="cassure",
                          standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    if code == 2:
        raise RuntimeError(f"cassure {args[0]} failed: {err.getvalue().strip()}")
    return code


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _settle():
    """Collect, then freeze what is left, so the collector does not walk the
    benchmark's own objects (references, earlier outputs) during the timed
    operation, as it would not in a fresh `cassure` process."""
    gc.collect()
    gc.freeze()


def _expected_exit(records):
    return 1 if any(r["verdict"] is False for r in records.values()) else 0


class Workload:
    op_stages = ("check",)

    def __init__(self, ctx):
        self.ctx = ctx
        self.seed = ctx.seed
        self.samples = Samples()
        self.cal = Calibration()
        self.last_op = None     # (start, end) of the last successful operation
        self.dir = None
        self._oracle = None
        self._case = {}

    # ---- shared helpers

    def case_study(self, p_err):
        if p_err not in self._case:
            if self._oracle is None:
                self._oracle = R.load_oracle(self.ctx.oracle_path)
            self._case[p_err] = R.CaseStudy(self._oracle, p_err)
        return self._case[p_err]

    def run_op(self, op, verify):
        """Time one operation; verify it afterwards, outside the timing."""
        s = self.samples
        s.attempted += 1
        _settle()
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as e:  # an operation that raises is a failed one
            s.failed += 1
            s.errors.append(f"operation raised {type(e).__name__}: {e}")
            return
        finally:
            gc.unfreeze()
        self.last_op = (t0, time.perf_counter())
        dt = self.last_op[1] - t0
        s.durations.append(dt)
        self.cal.follow(dt, CAL_SHARE * dt)
        self.check(verify, result)

    def check(self, verify, *args):
        try:
            err = verify(*args)
        except R.Mismatch as e:
            self.samples.errors.append(str(e))
            return
        if err is not None:
            self.samples.max_rel_error = max(self.samples.max_rel_error, err)

    def measure(self, deadline):
        self.cal.measure(CAL_FIRST_S)
        while True:
            self.run_op(self.op, self.verify)
            if time.perf_counter() >= deadline:
                return

    def traced_round(self, tr):
        """Replay the stages of this workload's operation, then run the
        operation itself as the "cli.op" span.  The replay runs with the
        benchmark's heap frozen, as the operation does (see `run_op`)."""
        self.before_round()
        shadow = self.fresh_dir("shadow")
        self.seed_shadow(shadow)
        _settle()
        try:
            self.replay(tr, self.config(shadow))
        finally:
            gc.unfreeze()
        tr.stage = "cli"
        done = len(self.samples.durations)
        self.run_op(self.op, self.verify)
        if len(self.samples.durations) > done:
            tr.add("cli.op", *self.last_op)
        self.check(self.after_round, shadow)

    def replay(self, tr, cfg):
        # Its own function, so the replayed state space is garbage before
        # the operation runs and does not slow the collector there.
        model_text, space, props, results = T.replay_check(tr, cfg)
        if "argument" in self.op_stages:
            T.replay_generate(tr, cfg, model_text, props, results)
        T.probe(tr, space, props)

    def before_round(self):
        pass

    def seed_shadow(self, shadow):
        pass

    def after_round(self, shadow):
        pass

    def fresh_dir(self, name):
        d = self.dir / name
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        return d

    def finish(self):
        pass

    def info(self):
        return {}


# ------------------------------------------------------------------ grids

class GridWorkload(Workload):
    def __init__(self, ctx, n, make_props):
        super().__init__(ctx)
        self.n = n
        self.make_props = make_props
        self.props = make_props(n, I.rng_for(self.seed, "grid"))
        self._grid = None

    def write_inputs(self, d, n, props):
        _write(d / "grid.prism", I.grid_model(n))
        _write(d / "grid.props", I.props_file(props))

    def prepare(self, d):
        self.dir = d
        self.write_inputs(d, self.n, self.props)
        warm = d / "warm"
        self.write_inputs(warm, 4, self.make_props(4, random.Random(0)))
        cli("check", "--model", warm / "grid.prism", "--props", warm / "grid.props",
            "--out", warm)

    def config(self, out):
        return PipelineConfig(str(self.dir / "grid.prism"),
                              str(self.dir / "grid.props"), str(out))

    def op(self):
        return cli("check", "--model", self.dir / "grid.prism",
                   "--props", self.dir / "grid.props", "--out", self.dir)

    @property
    def grid(self):
        if self._grid is None:
            self._grid = R.Grid(self.n)
        return self._grid

    def verify(self, code):
        recs = R.read_results(self.dir / "grid.results.jsonl")
        R.expect(code == _expected_exit(recs),
                 f"exit code {code} for verdicts {[r['verdict'] for r in recs.values()]}")
        return self.verify_values(recs)

    def finish(self):
        self.check(self.verify_counts)

    def verify_counts(self):
        """State and transition counts against the closed forms and the
        reference chain, from one extra build."""
        space = build_dtmc(bind_constants(parse_model(I.grid_model(self.n))))
        n = self.n
        R.expect(space.n_states == (n + 1) ** 2 - 1 == self.grid.states,
                 f"{space.n_states} states, expected {(n + 1) ** 2 - 1}")
        R.expect(space.indices.size == 3 * n * n + 2 * n == self.grid.transitions,
                 f"{space.indices.size} transitions, expected {3 * n * n + 2 * n}")


class GridSolve(GridWorkload):
    def __init__(self, ctx):
        super().__init__(ctx, ctx.sizes.grid_solve_n, I.grid_solve_props)

    def verify_values(self, recs):
        g = self.grid
        _, (_, k), (_, _, b) = (spec for _, _, spec in self.props)
        steps, reach = g.steps_to_absorb(), g.reach_x(k)
        R.close(recs["R_steps"]["value"], steps, "R_steps")
        R.close(recs["P_reach"]["value"], reach, "P_reach")
        R.close(recs["P_thr"]["value"], reach, "P_thr value")
        R.expect(recs["P_thr"]["verdict"] is (reach <= float(b)),
                 f"P_thr verdict {recs['P_thr']['verdict']} at reference {reach} <= {b}")
        return max(R.rel_error(recs["R_steps"]["value"], steps),
                   R.rel_error(recs["P_reach"]["value"], reach))


class GridBuild(GridWorkload):
    def __init__(self, ctx):
        super().__init__(ctx, ctx.sizes.grid_build_n, I.grid_build_props)

    def verify_values(self, recs):
        g = self.grid
        _, k, m = self.props[2][2]
        R.expect(recs["P_absorb"]["verdict"] is g.absorbs_surely(),
                 "P_absorb: absorption is almost sure in the reference")
        R.expect(recs["P_corner"]["verdict"] is (not g.corner_reachable()),
                 "P_corner: (N,N) is unreachable in the reference")
        ref = g.bounded_reach_y(k, m)
        R.close(recs["P_bounded"]["value"], ref, "P_bounded")
        return R.rel_error(recs["P_bounded"]["value"], ref)


# ---------------------------------------------------------- watch loops

class _Stop(Exception):
    pass


class LoopWorkload(Workload):
    """Closed loop through watch_loop: one client writes the next edit as
    soon as the previous cycle ends."""

    op_stages = ("check", "argument")

    def __init__(self, ctx, edit_kind):
        super().__init__(ctx)
        self.edit_kind = edit_kind
        self.bounds = I.loop_bounds(I.rng_for(self.seed, "loop"))
        self.model_text = (ctx.root / "case_study" / "nuclear.prism").read_text()
        self.props_text = (ctx.root / "case_study" / "nuclear.props").read_text()
        self.state = {"p_err": I.P_ERR_VALUES[0], "bound": self.bounds[0]}
        self.edits = 0

    def config(self, out):
        return PipelineConfig(str(self.dir / "nuclear.prism"),
                              str(self.dir / "nuclear.props"), str(out), poll_ms=0)

    def write_state(self):
        _write(self.dir / "nuclear.prism",
               I.with_p_err(self.model_text, self.state["p_err"]))
        _write(self.dir / "nuclear.props",
               self.props_text + I.bench_prop_line(self.state["bound"]))

    def prepare(self, d):
        """Inputs and the first cycle; then the hand annotations."""
        self.dir = d
        self.state = {"p_err": I.P_ERR_VALUES[0], "bound": self.bounds[0]}
        self.write_state()
        self.op()
        gsn = d / "nuclear.gsn"
        arg = parse_dsl(gsn.read_text())
        added = tuple(Annotation.placeholder(node, name, value) if kind == "placeholder"
                      else Annotation.stereotype(node, name)
                      for node, kind, name, value in I.LOOP_ANNOTATIONS)
        gsn.write_text(serialize_dsl(replace(arg, annotations=arg.annotations + added)))
        self.previous = R.GsnText(gsn.read_text())

    def next_edit(self):
        """Alternate the edited value; returns once the file is written."""
        self.edits += 1
        if self.edit_kind == "props":
            self.state["bound"] = self.bounds[self.edits % 2]
        else:
            self.state["p_err"] = I.P_ERR_VALUES[self.edits % 2]
        self.write_state()

    def verify(self, line):
        """After one cycle: results, exit code, hand annotations and the
        version laws of the regenerated argument."""
        code = int(line.split("exit=")[1].split()[0])
        recs = R.read_results(self.dir / "nuclear.results.jsonl")
        case = self.case_study(self.state["p_err"])
        named = case.named()
        err = 0.0
        for name, rec in recs.items():
            if name == "P_bench":
                ref = named["P_forb"] <= Fraction(self.state["bound"])
            else:
                ref = named[name]
            err = max(err, R.check_record(rec, ref, name))
        R.expect(len(recs) == 18, f"{len(recs)} results, expected 18")
        R.expect(code == _expected_exit(recs), f"cycle exit {code} against its verdicts")
        now = R.GsnText((self.dir / "nuclear.gsn").read_text())
        for node, kind, name, value in I.LOOP_ANNOTATIONS:
            R.expect(I.annotation_line(node, kind, name, value) in now.lines,
                     f"hand annotation on {node} lost")
        prev = self.previous
        if self.edit_kind == "props":
            for node, version in prev.versions.items():
                untouched = node.count(".") == 1 and node.split(".")[1] not in (
                    "P_bench", "root", "byProperty")
                R.expect(not untouched or now.versions[node] == version,
                         f"{node} bumped by a props-only edit")
        else:
            R.expect(now.versions["G.root"] > prev.versions["G.root"],
                     "G.root version did not rise on a model edit")
        self.previous = now
        return err

    def measure(self, deadline):
        s = self.samples
        clock = {}

        def log(line):
            clock["end"] = time.perf_counter()
            gc.unfreeze()
            if "exit=2" in line:
                s.failed += 1
            else:
                s.durations.append(clock["end"] - clock["edit"])
                self.cal.follow(s.durations[-1], CAL_SHARE * s.durations[-1])
                self.check(self.verify, line)
            if clock["end"] >= deadline:
                raise _Stop
            s.attempted += 1
            _settle()
            clock["edit"] = time.perf_counter()
            self.next_edit()

        def sleep(_):
            raise RuntimeError("watcher saw no change after an edit")

        self.cal.measure(CAL_FIRST_S)
        s.attempted += 1
        _settle()
        clock["edit"] = time.perf_counter()
        self.next_edit()
        try:
            watch_loop(self.config(self.dir), log=log, sleep=sleep)
        except _Stop:
            pass
        finally:
            gc.unfreeze()

    def before_round(self):
        self.next_edit()

    def seed_shadow(self, shadow):
        shutil.copy(self.dir / "nuclear.gsn", shadow / "nuclear.gsn")

    def op(self):
        """The watch cycle triggered by the edit written before it."""
        lines = []
        watch_loop(self.config(self.dir), max_cycles=1, log=lines.append)
        if "exit=2" in lines[0]:
            raise RuntimeError(lines[0])
        return lines[0]

    def after_round(self, shadow):
        # The replay regenerated from the same argument and inputs as the
        # cycle did, so both must have written the same text.
        R.expect((shadow / "nuclear.gsn").read_text()
                 == (self.dir / "nuclear.gsn").read_text(),
                 "replayed argument differs from the watch cycle's")

    def info(self):
        d = sorted(self.samples.durations)
        beyond = 10  # the tail is the highest percentile with ten cycles above it
        if len(d) >= 40:
            tail_rank = len(d) - beyond - 1
            return {"cycles": len(d),
                    "cycle_tail_ms": d[tail_rank] * 1000.0,
                    "cycle_tail_percentile": 100.0 * (tail_rank + 1) / len(d)}
        return {"cycles": len(d)}


# ---------------------------------------------------- evolution inputs

@dataclass
class EvolutionInputs:
    base: Path                  # directory holding the annotated argument
    gsn_text: str
    events: Path
    package: Path
    baseline: Path
    fresh_full: Path
    fresh_partial: Path
    costs: dict                 # goal id -> evidence_cost text
    monitors: dict              # monitor id -> "violation" | "confidence"
    monitored: dict             # goal id -> monitor id
    gsn_name: str

    def round_dir(self, i):
        """A fresh directory holding a copy of the annotated argument."""
        d = self.base / f"round{i}"
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        (d / self.gsn_name).write_text(self.gsn_text)
        return d


def make_evolution_inputs(d, gsn_path, model_path, new_model_text, baseline,
                          fresh, rng):
    """Hand annotations, a monitor-event log, an evolution package with the
    changed model file, and fresh results, full and partial (a seeded fifth
    of the properties were not re-checked in time for impact analysis)."""
    arg = parse_dsl(Path(gsn_path).read_text())
    goals = sorted(n.id for n in arg.nodes if n.kind == "goal" and n.id != "G.root")
    anns, monitors = I.evolution_annotations(goals, rng)
    added = tuple(Annotation.placeholder(g, key, value) for g, key, value in anns)
    gsn_text = serialize_dsl(replace(arg, annotations=arg.annotations + added))
    events = d / "events.jsonl"
    _write(events, I.monitor_events(monitors, rng))
    package = d / "package"
    _write(package / "nuclear.prism", new_model_text)
    _write(package / "package.json", I.package_manifest(
        model_path, Path(model_path).read_text(), new_model_text))
    lines = [l for l in Path(fresh).read_text().splitlines() if l.strip()]
    late = set(rng.sample(range(len(lines)), len(lines) // 5))
    partial = d / "fresh_partial.results.jsonl"
    _write(partial, "".join(l + "\n" for i, l in enumerate(lines) if i not in late))
    return EvolutionInputs(
        base=d, gsn_text=gsn_text, events=events, package=package,
        baseline=Path(baseline), fresh_full=Path(fresh), fresh_partial=partial,
        costs={g: v for g, k, v in anns if k == "evidence_cost"},
        monitors=monitors,
        monitored={g: v for g, k, v in anns if k == "monitor_id"},
        gsn_name=Path(gsn_path).name)


# ------------------------------------------------ generate and evolution

class CaseStudyProps(Workload):
    """The case study with a generated property set."""

    op_stages = ("check", "argument")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.props = I.case_study_props(ctx.sizes.props, I.rng_for(self.seed, "props"))
        self.model_text = (ctx.root / "case_study" / "nuclear.prism").read_text()
        pick = I.rng_for(self.seed, "sample")
        self.sample = pick.sample(range(len(self.props)), ctx.sizes.sample)
        self._ops = 0

    def write_inputs(self, d):
        _write(d / "nuclear.prism", self.model_text)
        _write(d / "gen.props", I.props_file(self.props))

    def config(self, out):
        return PipelineConfig(str(self.dir / "nuclear.prism"),
                              str(self.dir / "gen.props"), str(out))

    def check_sample(self, results_path, p_err):
        recs = R.read_results(results_path)
        R.expect(len(recs) == len(self.props),
                 f"{len(recs)} results for {len(self.props)} properties")
        case = self.case_study(p_err)
        err = 0.0
        for i in self.sample:
            name, text, spec = self.props[i]
            err = max(err, R.check_record(recs[name], case.answer(spec),
                                          f"{name} ({text}) at p_err={p_err}"))
        return err

    def generate(self, out):
        return cli("generate", "--model", self.dir / "nuclear.prism",
                   "--props", self.dir / "gen.props", "--out", out)


class Generate(CaseStudyProps):
    def prepare(self, d):
        self.dir = d
        self.write_inputs(d)
        warm = d / "warm"
        _write(warm / "gen.props", I.props_file(self.props[:10]))
        cli("generate", "--model", d / "nuclear.prism", "--props", warm / "gen.props",
            "--out", warm)

    def op(self):
        self._ops += 1
        out = self.fresh_dir(f"out{self._ops}")
        return out, self.generate(out)

    def verify(self, result):
        out, code = result
        R.expect(code == 0, f"generate exited {code}")
        err = self.check_sample(out / "nuclear.results.jsonl", "0.01")
        text = (out / "nuclear.gsn").read_text()
        gsn = R.GsnText(text)
        R.expect(len(gsn.versions) == 2 + 3 * len(self.props),
                 f"{len(gsn.versions)} nodes for {len(self.props)} properties")
        R.expect(serialize_dsl(parse_dsl(text)) == text,
                 "the generated .gsn does not parse back to itself")
        shutil.rmtree(out)
        return err


class Evolution(CaseStudyProps):
    """ingest -> impact -> plan -> apply through the CLI, each round on a
    fresh copy of the same annotated argument."""

    op_stages = ("lifecycle",)

    def prepare(self, d):
        self.dir = d
        self.write_inputs(d)
        base = d / "base"
        self.generate(base)
        new_model = I.with_p_err(self.model_text, I.P_ERR_VALUES[1])
        fresh = d / "fresh"
        cli("check", "--model", d / "nuclear.prism", "--props", d / "gen.props",
            "--out", fresh, "--const", f"p_err={I.P_ERR_VALUES[1]}")
        self.evo = make_evolution_inputs(
            d, base / "nuclear.gsn", str(d / "nuclear.prism"), new_model,
            base / "nuclear.results.jsonl", fresh / "nuclear.results.jsonl",
            I.rng_for(self.seed, "evolution"))

    def replay(self, tr, cfg):
        T.replay_evolve(tr, replace(cfg, out=str(self.evo.round_dir("replay"))),
                        self.evo)

    def op(self):
        self._ops += 1
        out = self.evo.round_dir(self._ops)
        common = ("--model", self.dir / "nuclear.prism", "--props",
                  self.dir / "gen.props", "--out", out)
        e = self.evo
        steps = (("ingest", "--events", e.events),
                 ("impact", "--package", e.package, "--fresh-results",
                  e.fresh_partial, "--baseline-results", e.baseline),
                 ("plan",),
                 ("apply", "--fresh-results", e.fresh_full))
        for cmd, *extra in steps:
            cli(cmd, *common, *extra)
        return out

    def verify(self, out):
        e = self.evo
        report = json.loads((out / "impact_report.json").read_text())
        classes = report["classifications"]
        violated = {g for g, m in e.monitored.items() if e.monitors[m] == "violation"}
        fresh = R.read_results(e.fresh_partial)
        for gid in sorted(violated):
            R.expect(classes[gid] == "invalid", f"{gid} reopened by a violation "
                     f"but classified {classes[gid]}")
        for gid, cls in classes.items():
            if gid == "G.root" or (gid not in violated and gid[2:] not in fresh):
                R.expect(cls == "uncertain", f"{gid} has no fresh re-check but "
                         f"is classified {cls}")
        rank = {"invalid": 0, "uncertain": 1}
        expected = sorted((g for g, c in classes.items() if c in rank),
                          key=lambda g: (rank[classes[g]], R.cost_hours(e.costs.get(g)), g))
        plan = json.loads((out / "plan.json").read_text())
        R.expect([p["goal_id"] for p in plan] == expected,
                 "plan does not cover the invalid and uncertain goals in order")
        text = (out / e.gsn_name).read_text()
        gsn = R.GsnText(text)
        for gid, stereos in gsn.stereotypes.items():
            R.expect(not {"DeferredEvidence", "EvidenceProvided"} <= stereos,
                     f"{gid} holds DeferredEvidence and EvidenceProvided")
        full = R.read_results(e.fresh_full)
        for p in plan:
            if p["strategy"] == "re-verify":
                prop = p["goal_id"][2:]
                want = f"Verification result for {prop}: {R.render(full[prop])}"
                R.expect(gsn.descriptions[f"E.{prop}"] == want,
                         f"E.{prop} does not name its fresh value")
        R.expect(serialize_dsl(parse_dsl(text)) == text,
                 "the final .gsn does not parse back to itself")
        shutil.rmtree(out)
        return None

    def finish(self):
        e = self.evo
        for path, p_err in ((e.baseline, "0.01"), (e.fresh_full, I.P_ERR_VALUES[1])):
            self.check(self.check_sample, path, p_err)


WORKLOADS = {
    "grid-solve": GridSolve,
    "grid-build": GridBuild,
    "loop-props": lambda ctx: LoopWorkload(ctx, "props"),
    "loop-model": lambda ctx: LoopWorkload(ctx, "model"),
    "generate": Generate,
    "evolution": Evolution,
}
