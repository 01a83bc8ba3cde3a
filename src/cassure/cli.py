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
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

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
from .model import bind_constants
from .parsing import parse_model, parse_properties
from .statespace import StateSpace, build_dtmc
from .transform import ModelRef, build_argument, regenerate

# Failures a command reports as an error (exit 2) and a watch cycle as a
# failed cycle: the toolkit's own errors, unreadable or non-UTF-8 input and
# unwritable output files.
_FAILURES = (CassureError, OSError, UnicodeDecodeError)


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

    def props_path(self):
        """The props file, which only the commands that verify read."""
        if not self.props:
            raise CassureError(f"no props file given and no sibling "
                               f"{self.stem}.props found")
        return Path(self.props)

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


def _read_file(path, parse):
    """``parse`` applied to the text of ``path``; the error of a malformed
    file names it."""
    try:
        return parse(Path(path).read_text())
    except (CassureError, UnicodeDecodeError) as e:
        raise CassureError(f"{path}: {e}") from None


def load_config_file(path):
    """key=value lines; '#' starts a comment.  The keys are those of
    _OPTIONS; each command reads those of its own flags."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CassureError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise CassureError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
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


def resolve_config(config_file, flags) -> PipelineConfig:
    """Layer ``flags`` (option key -> value) over the optional key=value
    config file; of the file, only the keys of ``flags`` are read."""
    base = load_config_file(config_file) if config_file else {}
    base = {key: value for key, value in base.items() if key in flags}
    model = flags["model"] or base.get("model")
    props = flags["props"] or base.get("props")
    out = flags["out"] or base.get("out")
    constants = {}
    for item in base.get("const", "").split(","):
        if item.strip():
            constants.update([_parse_const(item)])
    for item in flags.get("const", ()):
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
    if not out:
        out = str(Path(model).parent)
    cfg = PipelineConfig(model, props, out, constants)
    epsilon, poll_ms = flags.get("epsilon"), flags.get("poll_ms")
    if epsilon is None and "epsilon" in base:
        epsilon = _config_number(base, "epsilon", float)
    if poll_ms is None and "poll_ms" in base:
        poll_ms = _config_number(base, "poll_ms", int)
    if epsilon is not None:
        if not epsilon > 0:
            raise CassureError(f"epsilon must be positive, got {epsilon}")
        cfg.epsilon = epsilon
    if poll_ms is not None:
        if poll_ms < 0:
            raise CassureError(f"poll_ms must not be negative, got {poll_ms}")
        cfg.poll_ms = poll_ms
    cfg.dot = flags.get("dot") or base.get("dot", "").lower() in ("1", "true", "yes")
    return cfg


# --------------------------------------------------------------------------
# Pipeline core (shared by check/generate/watch)
# --------------------------------------------------------------------------

class Checked(NamedTuple):
    """What one run_check read and computed, for the next run to reuse."""
    space: StateSpace
    props_text: str
    props: list
    results: list

    @property
    def model_text(self):
        return self.space.bound.ast.source


def run_check(config: PipelineConfig, last: Checked | None = None) -> Checked:
    """Parse, build, verify.

    ``last``, from an earlier run_check with this config, saves the work on
    the inputs that have not changed since.  An unchanged model text is not
    parsed, type-checked, bound or built: its state space is checked again,
    with the results in its memo.  A changed one is built with that space as
    build_dtmc's ``previous``.  An unchanged props text is not parsed.
    """
    model_text = Path(config.model).read_text()
    props_text = config.props_path().read_text()
    rebuild = last is None or last.model_text != model_text
    if rebuild:
        bound = bind_constants(parse_model(model_text, file=config.model),
                               config.constants)
    if last and last.props_text == props_text:
        props = last.props
    else:
        props = parse_properties(props_text, file=config.props)
    space = build_dtmc(bound, previous=last and last.space) if rebuild else last.space
    return Checked(space, props_text, props,
                   check_properties(space, props, config.solver()))


def check_exit_code(results):
    return 1 if any(r.verdict is False for r in results) else 0


def run_generate(config: PipelineConfig, checked: Checked):
    """Build (or regenerate) the argument from ``checked`` and write all
    artifacts.

    Returns (argument, orphan warnings)."""
    model_text, props, results = checked.model_text, checked.props, checked.results
    ref = ModelRef.for_text(config.stem, config.model, model_text)
    fresh = build_argument(ref, props, results)
    warnings = []
    arg_path = config.argument_path()
    if arg_path.exists():
        previous = _read_file(arg_path, parse_dsl)
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


def run_cycle(config: PipelineConfig, last: Checked | None = None):
    """One check+generate cycle, reusing ``last`` as run_check does.
    Returns (exit code, summary line, Checked to pass to the next cycle);
    failures leave previous artifacts untouched and return ``last``.

    The summary ends with what became of the state space: ``reused`` (the
    model text is unchanged), ``re-evaluated`` (the edit kept the states and
    the transition pattern, see build_dtmc) or ``built``."""
    try:
        checked = run_check(config, last)
        run_generate(config, checked)
    except _FAILURES as e:
        return 2, f"cycle failed: {e}", last
    results, space = checked.results, checked.space
    violated = sum(1 for r in results if r.verdict is False)
    reuse = ("reused" if last and space is last.space else
             "re-evaluated" if last and space.states is last.space.states else
             "built")
    return check_exit_code(results), (
        f"checked {len(results)} properties ({violated} violated), wrote "
        f"{config.argument_path()}; state space {reuse}"), checked


def _fingerprint_file(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:  # absent or unreadable: wait for it
        return None


def _watched(config, max_cycles, sleep):
    """Poll model+props fingerprints and run one cycle per observed change,
    yielding its exit code and its log line; see watch_loop."""
    seen = (None, None)
    last = None
    cycles = 0
    while max_cycles is None or cycles < max_cycles:
        current = (_fingerprint_file(config.model),
                   _fingerprint_file(config.props_path()))
        if current != seen and all(current):
            seen = current
            code, summary, last = run_cycle(config, last)
            cycles += 1
            yield code, f"[cycle {cycles}] exit={code} {summary}"
        else:
            sleep(config.poll_ms / 1000.0)


def watch_loop(config: PipelineConfig, max_cycles=None, log=None,
               sleep=time.sleep):
    """Poll model+props fingerprints; run one cycle per observed change.

    ``max_cycles`` bounds the number of cycles (None = run forever); the
    first cycle runs immediately against the initial content.  What the
    last good cycle read and computed is kept for the next one.  Returns
    the number of cycles run.
    """
    log = log or click.echo
    cycles = 0
    for _, line in _watched(config, max_cycles, sleep):
        log(line)
        cycles += 1
    return cycles


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

# Every option a command may take, declared once; a command lists the keys
# of those it reads (see _command).
_OPTIONS = {
    "model": click.option("--model", type=click.Path(), default=None),
    "props": click.option("--props", type=click.Path(), default=None),
    "out": click.option("--out", type=click.Path(), default=None),
    "const": click.option("--const", multiple=True, metavar="NAME=VALUE"),
    "epsilon": click.option("--epsilon", type=float, default=None),
    "dot": click.option("--dot", is_flag=True, default=False),
    "poll_ms": click.option("--poll-ms", type=int, default=None),
}
_LIFECYCLE = ("model", "props", "out")
_CHECK = _LIFECYCLE + ("const", "epsilon")
_GENERATE = _CHECK + ("dot",)
_WATCH = _GENERATE + ("poll_ms",)


def _fail(e):
    for line in e.diagnostics if isinstance(e, ParseError) else [e]:
        click.echo(f"error: {line}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Continuous assurance for probabilistic models: verify PCTL properties
    over a DTMC and keep a GSN argument in sync with the evidence."""


def _command(options):
    """Register the decorated body as a ``main`` subcommand taking
    ``--config`` plus ``options`` (keys of _OPTIONS) and its own options.
    The body gets the resolved PipelineConfig and returns the exit code;
    any of _FAILURES it raises is an error, exit 2."""
    def register(body):
        def run(config_file, **kwargs):
            flags = {key: kwargs.pop(key) for key in options}
            try:
                code = body(resolve_config(config_file, flags), **kwargs)
            except _FAILURES as e:
                _fail(e)
            sys.exit(code)
        run.__click_params__ = list(getattr(body, "__click_params__", []))
        for key in reversed(options):
            run = _OPTIONS[key](run)
        run = click.option("--config", "config_file", type=click.Path(exists=True),
                           default=None, help="key=value config file")(run)
        return main.command(body.__name__, help=body.__doc__)(run)
    return register


@_command(_CHECK)
def check(config):
    """Verify all properties and write result records."""
    checked = run_check(config)
    space, results = checked.space, checked.results
    atomic_write(config.results_path(), serialize_results(results))
    d = space.diagnostics
    click.echo(f"built {space.n_states} states, {space.indices.size} transitions "
               f"({d.nondeterministic_states} states resolved by uniform choice, "
               f"{d.deadlock_states_fixed} deadlocks fixed)")
    for r in results:
        click.echo(f"{r.property}: "
                   + ("holds" if r.verdict else "violated" if r.verdict is False
                      else ("+inf" if r.infinite else f"{r.value:.6g}")))
    click.echo(f"wrote {config.results_path()}")
    return check_exit_code(results)


@_command(_GENERATE)
def generate(config):
    """Verify and (re)generate the assurance argument."""
    arg, warnings = run_generate(config, run_check(config))
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(f"wrote {config.argument_path()} "
               f"({len(arg.nodes)} nodes, version {arg.version})")
    return 0


@_command(_WATCH)
@click.option("--max-cycles", type=click.IntRange(min=1), default=None,
              help="stop after N cycles (testing aid)")
def watch(config, max_cycles):
    """Re-run check+generate whenever the model or props file changes."""
    if not Path(config.model).exists():
        raise CassureError(f"model file {config.model} does not exist")
    code = 0
    try:
        for code, line in _watched(config, max_cycles, time.sleep):
            click.echo(line)
    except KeyboardInterrupt:
        pass
    return 2 if code == 2 else 0  # a violated bound is a cycle that ran


def _load_argument(config):
    path = config.argument_path()
    if not path.exists():
        raise CassureError(f"no argument file at {path}; run generate first")
    return _read_file(path, parse_dsl)


@_command(_LIFECYCLE)
@click.option("--events", type=click.Path(exists=True), required=True,
              help="monitor event log (JSON lines)")
def ingest(config, events):
    """Fold runtime monitor events into the argument."""
    arg = _load_argument(config)
    evs = _read_file(events, parse_monitor_events)
    arg, report = ingest_monitor_events(arg, evs)
    atomic_write(config.argument_path(), serialize_dsl(arg))
    for gid, reason in report.reopened:
        click.echo(f"reopened {gid} ({reason})")
    for mid in report.unmatched:
        click.echo(f"warning: no goal monitors '{mid}'", err=True)
    return 0


@_command(_LIFECYCLE)
@click.option("--package", "package_dir", type=click.Path(exists=True),
              default=None, help="evolution package directory")
@click.option("--fresh-results", type=click.Path(exists=True), default=None)
@click.option("--baseline-results", type=click.Path(exists=True), default=None)
def impact(config, package_dir, fresh_results, baseline_results):
    """Classify every goal as valid / invalid / uncertain."""
    arg = _load_argument(config)
    pkg = load_package(package_dir) if package_dir else EvolutionPackage()
    fresh = _read_file(fresh_results, parse_results) if fresh_results else None
    baseline = _read_file(baseline_results, parse_results) \
        if baseline_results else None
    report, arg = impact_analysis(arg, pkg, fresh, baseline)
    atomic_write(config.argument_path(), serialize_dsl(arg))
    atomic_write(Path(config.out) / "impact_report.json", report.to_json())
    click.echo(report.summary)
    return 0


@_command(_LIFECYCLE)
def plan(config):
    """Order invalid/uncertain goals into a regeneration plan."""
    report_path = Path(config.out) / "impact_report.json"
    arg = _load_argument(config)
    if not report_path.exists():
        raise CassureError(f"no impact report at {report_path}; run impact first")
    report = _read_file(report_path, ImpactReport.from_json)
    entries, arg, warnings = plan_regeneration(report, arg)
    atomic_write(config.argument_path(), serialize_dsl(arg))
    atomic_write(Path(config.out) / "plan.json", serialize_plan(entries))
    for w in warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo("".join(f"{e.rank}. {e.goal_id} [{e.strategy}] "
                       f"cost={e.evidence_cost or '?'}\n" for e in entries), nl=False)
    return 0


@_command(_LIFECYCLE)
@click.option("--fresh-results", type=click.Path(exists=True), required=True)
def apply(config, fresh_results):
    """Discharge planned goals with fresh verification results."""
    plan_path = Path(config.out) / "plan.json"
    arg = _load_argument(config)
    if not plan_path.exists():
        raise CassureError(f"no plan at {plan_path}; run plan first")
    entries = _read_file(plan_path, parse_plan)
    fresh = _read_file(fresh_results, parse_results)
    arg = apply_regeneration(arg, entries, fresh)
    atomic_write(config.argument_path(), serialize_dsl(arg))
    click.echo(f"applied {len(entries)} plan entries; wrote "
               f"{config.argument_path()}")
    return 0


if __name__ == "__main__":
    main()
