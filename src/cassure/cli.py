"""Command-line pipeline: check, generate, watch, and lifecycle wrappers.

File layout in the output directory (named after the model file's stem):

* ``<stem>.results.jsonl`` — verification result records
* ``<stem>.gsn``           — assurance argument (DSL text)
* ``<stem>.dot``           — optional Graphviz export
* ``impact_report.json`` / ``plan.json`` — lifecycle reports

All writes go through a temp file + rename so a crash never leaves a
truncated artifact.  Exit codes: 0 all bounds hold and queries were solved,
1 a bound is violated, 2 any error.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path

import click

from .diagnostics import CassureError, ParseError
from .engine import (
    SolverConfig, check_properties, parse_results, serialize_results,
)
from .gsn import export_dot, parse_dsl, serialize_dsl, validate_argument
from .lifecycle import (
    EvolutionPackage, ImpactReport, apply_regeneration, impact_analysis,
    ingest_monitor_events, load_package, parse_monitor_events, parse_plan,
    plan_regeneration, serialize_plan,
)
from .model import bind_constants, type_check
from .parsing import parse_model, parse_properties
from .statespace import build_dtmc
from .transform import ModelRef, build_argument, regenerate

# Failures a command reports as an error (exit 2) and a watch cycle as a
# failed cycle: the toolkit's own errors and unreadable input or unwritable
# output files.
_FAILURES = (CassureError, OSError)


@dataclass
class PipelineConfig:
    model: str
    props: str
    out: str
    constants: dict = field(default_factory=dict)
    epsilon: float = 1e-9
    poll_ms: int = 1000
    dot: bool = False

    @property
    def stem(self):
        return Path(self.model).stem

    def results_path(self):
        return Path(self.out) / f"{self.stem}.results.jsonl"

    def argument_path(self):
        return Path(self.out) / f"{self.stem}.gsn"

    def dot_path(self):
        return Path(self.out) / f"{self.stem}.dot"

    def solver(self):
        return SolverConfig(epsilon=self.epsilon)


def atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def load_config_file(path):
    """key=value lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CassureError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_const(text):
    if "=" not in text:
        raise CassureError(f"--const expects NAME=VALUE, got {text!r}")
    name, _, raw = text.partition("=")
    raw = raw.strip()
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            raise CassureError(f"constant override {name!r} is not a number: {raw!r}")
    return name.strip(), value


def _config_number(values, key, kind):
    try:
        return kind(values[key])
    except ValueError:
        raise CassureError(f"config key {key!r} is not a number: {values[key]!r}")


def resolve_config(config_file, model, props, out, const, epsilon, poll_ms,
                   dot) -> PipelineConfig:
    """Layer flags over the optional key=value config file."""
    base = load_config_file(config_file) if config_file else {}
    model = model or base.get("model")
    props = props or base.get("props")
    out = out or base.get("out")
    constants = {}
    for item in base.get("const", "").split(","):
        if item.strip():
            constants.update([_parse_const(item)])
    for item in const:
        constants.update([_parse_const(item)])
    if model and not props:
        candidate = Path(model).with_suffix(".props")
        if candidate.exists():
            props = str(candidate)
    if props and not model:
        candidate = Path(props).with_suffix(".prism")
        if candidate.exists():
            model = str(candidate)
    if not model:
        raise CassureError("no model file given (use --model or a config file)")
    if not props:
        raise CassureError(f"no props file given and no sibling "
                           f"{Path(model).stem}.props found")
    if not out:
        out = str(Path(model).parent)
    cfg = PipelineConfig(model, props, out, constants)
    if epsilon is None and "epsilon" in base:
        epsilon = _config_number(base, "epsilon", float)
    if poll_ms is None and "poll_ms" in base:
        poll_ms = _config_number(base, "poll_ms", int)
    if epsilon is not None:
        if not epsilon > 0:
            raise CassureError(f"epsilon must be positive, got {epsilon}")
        cfg.epsilon = epsilon
    if poll_ms is not None:
        cfg.poll_ms = poll_ms
    cfg.dot = dot or base.get("dot", "").lower() in ("1", "true", "yes")
    return cfg


# --------------------------------------------------------------------------
# Pipeline core (shared by check/generate/watch)
# --------------------------------------------------------------------------

def run_check(config: PipelineConfig):
    """Parse, build, verify.  Returns (model text, state space, props, results)."""
    model_text = Path(config.model).read_text()
    props_text = Path(config.props).read_text()
    ast = parse_model(model_text, file=config.model)
    diags = type_check(ast)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ParseError(errors)
    props = parse_properties(props_text, file=config.props)
    bound = bind_constants(ast, config.constants)
    space = build_dtmc(bound)
    results = check_properties(space, props, config.solver())
    return model_text, space, props, results


def check_exit_code(results):
    return 1 if any(r.verdict is False for r in results) else 0


def run_generate(config: PipelineConfig, model_text, props, results):
    """Build (or regenerate) the argument and write all artifacts.

    Returns (argument, orphan warnings)."""
    ref = ModelRef.for_text(config.stem, config.model, model_text)
    fresh = build_argument(ref, props, results)
    warnings = []
    arg_path = config.argument_path()
    if arg_path.exists():
        previous = parse_dsl(arg_path.read_text())
        fresh = regenerate(previous, fresh)
        for orphan in fresh.orphans:
            warnings.append(f"orphaned annotation on missing node "
                            f"'{orphan.node_id}' quarantined")
    problems = [d for d in validate_argument(fresh) if d.severity == "error"]
    if problems:
        raise CassureError("generated argument failed validation: "
                           + "; ".join(d.message for d in problems))
    atomic_write(config.results_path(), serialize_results(results))
    atomic_write(arg_path, serialize_dsl(fresh))
    if config.dot:
        atomic_write(config.dot_path(), export_dot(fresh))
    return fresh, warnings


def run_cycle(config: PipelineConfig):
    """One check+generate cycle.  Returns (exit code, summary line);
    failures leave previous artifacts untouched."""
    try:
        model_text, _, props, results = run_check(config)
        run_generate(config, model_text, props, results)
    except _FAILURES as e:
        return 2, f"cycle failed: {e}"
    violated = sum(1 for r in results if r.verdict is False)
    code = check_exit_code(results)
    return code, (f"checked {len(results)} properties "
                  f"({violated} violated), wrote {config.argument_path()}")


def _fingerprint_file(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:  # absent or unreadable: wait for it
        return None


def watch_loop(config: PipelineConfig, max_cycles=None, log=None,
               sleep=time.sleep):
    """Poll model+props fingerprints; run one cycle per observed change.

    ``max_cycles`` bounds the number of cycles (None = run forever); the
    first cycle runs immediately against the initial content.
    """
    log = log or (lambda line: click.echo(line))
    seen = (None, None)
    cycles = 0
    while max_cycles is None or cycles < max_cycles:
        current = (_fingerprint_file(config.model),
                   _fingerprint_file(config.props))
        if current != seen and all(current):
            seen = current
            code, summary = run_cycle(config)
            cycles += 1
            log(f"[cycle {cycles}] exit={code} {summary}")
        else:
            sleep(config.poll_ms / 1000.0)
    return cycles


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _common_options(f):
    for opt in reversed([
        click.option("--model", type=click.Path(), default=None),
        click.option("--props", type=click.Path(), default=None),
        click.option("--out", type=click.Path(), default=None),
        click.option("--const", multiple=True, metavar="NAME=VALUE"),
        click.option("--epsilon", type=float, default=None),
        click.option("--poll-ms", type=int, default=None),
        click.option("--dot", is_flag=True, default=False),
        click.option("--config", "config_file", type=click.Path(exists=True),
                     default=None, help="key=value config file"),
    ]):
        f = opt(f)
    return f


def _build_config(kwargs):
    try:
        return resolve_config(kwargs.pop("config_file"), kwargs.pop("model"),
                              kwargs.pop("props"), kwargs.pop("out"),
                              kwargs.pop("const"), kwargs.pop("epsilon"),
                              kwargs.pop("poll_ms"), kwargs.pop("dot"))
    except _FAILURES as e:
        _fail(e)


def _fail(e):
    click.echo(f"error: {e}", err=True)
    if isinstance(e, ParseError):
        for d in e.diagnostics:
            click.echo(f"  {d}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Continuous assurance for probabilistic models: verify PCTL properties
    over a DTMC and keep a GSN argument in sync with the evidence."""


@main.command()
@_common_options
def check(**kwargs):
    """Verify all properties and write result records."""
    config = _build_config(kwargs)
    try:
        _, space, _, results = run_check(config)
        atomic_write(config.results_path(), serialize_results(results))
    except _FAILURES as e:
        _fail(e)
    d = space.diagnostics
    click.echo(f"built {space.n_states} states, {space.indices.size} transitions "
               f"({d.nondeterministic_states} states resolved by uniform choice, "
               f"{d.deadlock_states_fixed} deadlocks fixed)")
    for r in results:
        click.echo(f"{r.property}: "
                   + ("holds" if r.verdict else "violated" if r.verdict is False
                      else ("+inf" if r.infinite else f"{r.value:.6g}")))
    click.echo(f"wrote {config.results_path()}")
    sys.exit(check_exit_code(results))


@main.command()
@_common_options
def generate(**kwargs):
    """Verify and (re)generate the assurance argument."""
    config = _build_config(kwargs)
    try:
        model_text, _, props, results = run_check(config)
        arg, warnings = run_generate(config, model_text, props, results)
    except _FAILURES as e:
        _fail(e)
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"wrote {config.argument_path()} "
               f"({len(arg.nodes)} nodes, version {arg.version})")
    sys.exit(0)


@main.command()
@_common_options
@click.option("--max-cycles", type=int, default=None,
              help="stop after N cycles (testing aid)")
def watch(max_cycles, **kwargs):
    """Re-run check+generate whenever the model or props file changes."""
    config = _build_config(kwargs)
    if not Path(config.model).exists():
        _fail(CassureError(f"model file {config.model} does not exist"))
    try:
        watch_loop(config, max_cycles=max_cycles)
    except KeyboardInterrupt:
        pass
    sys.exit(0)


def _load_argument(config):
    path = config.argument_path()
    if not path.exists():
        _fail(CassureError(f"no argument file at {path}; run generate first"))
    return parse_dsl(path.read_text())


@main.command()
@_common_options
@click.option("--events", type=click.Path(exists=True), required=True,
              help="monitor event log (JSON lines)")
def ingest(events, **kwargs):
    """Fold runtime monitor events into the argument."""
    config = _build_config(kwargs)
    try:
        arg = _load_argument(config)
        evs = parse_monitor_events(Path(events).read_text())
        arg, report = ingest_monitor_events(arg, evs)
        atomic_write(config.argument_path(), serialize_dsl(arg))
    except _FAILURES as e:
        _fail(e)
    for gid, reason in report.reopened:
        click.echo(f"reopened {gid} ({reason})")
    for mid in report.unmatched:
        click.echo(f"warning: no goal monitors '{mid}'", err=True)
    sys.exit(0)


@main.command()
@_common_options
@click.option("--package", "package_dir", type=click.Path(exists=True),
              default=None, help="evolution package directory")
@click.option("--fresh-results", type=click.Path(exists=True), default=None)
@click.option("--baseline-results", type=click.Path(exists=True), default=None)
def impact(package_dir, fresh_results, baseline_results, **kwargs):
    """Classify every goal as valid / invalid / uncertain."""
    config = _build_config(kwargs)
    try:
        arg = _load_argument(config)
        pkg = load_package(package_dir) if package_dir else EvolutionPackage()
        fresh = parse_results(Path(fresh_results).read_text()) \
            if fresh_results else None
        baseline = parse_results(Path(baseline_results).read_text()) \
            if baseline_results else None
        report, arg = impact_analysis(arg, pkg, fresh, baseline)
        atomic_write(config.argument_path(), serialize_dsl(arg))
        atomic_write(Path(config.out) / "impact_report.json", report.to_json())
    except _FAILURES as e:
        _fail(e)
    click.echo(report.summary)
    sys.exit(0)


@main.command()
@_common_options
def plan(**kwargs):
    """Order invalid/uncertain goals into a regeneration plan."""
    config = _build_config(kwargs)
    report_path = Path(config.out) / "impact_report.json"
    try:
        arg = _load_argument(config)
        if not report_path.exists():
            raise CassureError(f"no impact report at {report_path}; run impact first")
        report = ImpactReport.from_json(report_path.read_text())
        entries, arg, warnings = plan_regeneration(report, arg)
        atomic_write(config.argument_path(), serialize_dsl(arg))
        atomic_write(Path(config.out) / "plan.json", serialize_plan(entries))
    except _FAILURES as e:
        _fail(e)
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    for e in entries:
        cost = e.evidence_cost or "?"
        click.echo(f"{e.rank}. {e.goal_id} [{e.strategy}] cost={cost}")
    sys.exit(0)


@main.command(name="apply")
@_common_options
@click.option("--fresh-results", type=click.Path(exists=True), required=True)
def apply_cmd(fresh_results, **kwargs):
    """Discharge planned goals with fresh verification results."""
    config = _build_config(kwargs)
    plan_path = Path(config.out) / "plan.json"
    try:
        arg = _load_argument(config)
        if not plan_path.exists():
            raise CassureError(f"no plan at {plan_path}; run plan first")
        entries = parse_plan(plan_path.read_text())
        fresh = parse_results(Path(fresh_results).read_text())
        arg = apply_regeneration(arg, entries, fresh)
        atomic_write(config.argument_path(), serialize_dsl(arg))
    except _FAILURES as e:
        _fail(e)
    click.echo(f"applied {len(entries)} plan entries; wrote "
               f"{config.argument_path()}")
    sys.exit(0)


if __name__ == "__main__":
    main()
