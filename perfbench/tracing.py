"""Spans around calls into each module, and the replay of the CLI pipeline
from public calls.

The tracer lives in the benchmark, not in the program: it times the calls the
benchmark itself makes.  Spans stay in memory and are written out as JSON
lines when the run ends.  A span's stage says which CLI operation the call
belongs to ("check", "argument", "lifecycle"), or "probe" for the extra
labelling and 0/1 precomputation that attribute check time to those steps.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from cassure import (
    ModelRef, bind_constants, build_argument, build_dtmc, check_property,
    impact_analysis, ingest_monitor_events, label_states, load_package,
    parse_dsl, parse_model, parse_monitor_events, parse_properties,
    parse_results, plan_regeneration, apply_regeneration, regenerate,
    serialize_dsl, serialize_results, type_check, validate_argument,
)
from cassure.cli import atomic_write
from cassure.engine import prob0_states, prob1_states
from cassure.lifecycle import ImpactReport, parse_plan, serialize_plan
from cassure.model import Lit

# Spans whose summed time per round is a per-layer metric "<span>_ms".
TIMED_SPANS = (
    "parsing.model", "parsing.props", "model.type_check", "model.bind",
    "statespace.build", "statespace.label", "engine.precompute", "engine.check",
    "transform.build", "transform.regenerate", "gsn.parse", "gsn.serialize",
    "gsn.validate", "lifecycle.ingest", "lifecycle.impact", "lifecycle.plan",
    "lifecycle.apply", "cli.write",
)
COUNT_METRICS = ("statespace.states", "statespace.transitions",
                 "engine.iterations", "engine.unknown_states", "gsn.nodes",
                 "lifecycle.plan_entries")
UNITS = dict({f"{name}_ms": "ms" for name in TIMED_SPANS},
             **{name: "count" for name in COUNT_METRICS},
             **{"statespace.us_per_state": "us", "engine.max_rel_error": "1",
                "cli.self_ms": "ms"})


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._stack = []
        self.stage = None

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "stage": self.stage, "start": time.perf_counter() - self.t0,
               "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name, start, end, **attrs):
        """Record a span measured elsewhere (perf_counter start and end)."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "stage": self.stage, "start": start - self.t0, "end": end - self.t0}
        rec.update(attrs)
        self.spans.append(rec)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(s) + "\n" for s in self.spans))


def _ms(span):
    return (span["end"] - span["start"]) * 1000.0


def round_metrics(spans, round_id, op_stages):
    """Per-layer metrics of one traced round: the spans recorded inside the
    span `round_id`.

    cli.self_ms is the CLI operation's time minus the replayed public calls
    of the stages that operation covers: what the CLI adds on top of them.
    """
    out = {f"{name}_ms": sum(_ms(s) for s in spans if s["name"] == name)
           for name in TIMED_SPANS}
    counts = {}
    for s in spans:
        for key, value in s.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    states = counts.get("statespace.states", 0)
    out["statespace.us_per_state"] = (out["statespace.build_ms"] * 1000.0 / states
                                      if states else 0.0)
    cli = sum(_ms(s) for s in spans if s["name"] == "cli.op")
    replayed = sum(_ms(s) for s in spans if s["stage"] in op_stages
                   and s["parent"] == round_id)
    out["cli.self_ms"] = cli - replayed
    return out


def median_metrics(rounds):
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


# ------------------------------------------------------------------ replay

def replay_check(tr, cfg):
    """cli.run_check and the results write, as public calls."""
    tr.stage = "check"
    model_text = Path(cfg.model).read_text()
    props_text = Path(cfg.props).read_text()
    ast = tr.call("parsing.model", parse_model, model_text, file=cfg.model)
    tr.call("model.type_check", type_check, ast)
    props = tr.call("parsing.props", parse_properties, props_text, file=cfg.props)
    bound = tr.call("model.bind", bind_constants, ast, cfg.constants)
    with tr.span("statespace.build") as s:
        space = build_dtmc(bound)
        s["counts"] = {"statespace.states": space.n_states,
                       "statespace.transitions": int(space.indices.size)}
    solver = cfg.solver()
    results = []
    for p in props:
        with tr.span("engine.check") as s:
            res = check_property(space, p, solver)
            s["counts"] = {"engine.iterations": res.stats.get("iterations", 0)}
        results.append(res)
    text = tr.call("engine.serialize", serialize_results, results)
    tr.call("cli.write", atomic_write, cfg.results_path(), text)
    return model_text, space, props, results


def replay_generate(tr, cfg, model_text, props, results):
    """cli.run_generate after a check, as public calls."""
    tr.stage = "argument"
    ref = ModelRef.for_text(cfg.stem, cfg.model, model_text)
    with tr.span("transform.build") as s:
        arg = build_argument(ref, props, results)
        s["counts"] = {"gsn.nodes": len(arg.nodes)}
    if cfg.argument_path().exists():
        previous = tr.call("gsn.parse", parse_dsl, cfg.argument_path().read_text())
        arg = tr.call("transform.regenerate", regenerate, previous, arg)
    tr.call("gsn.validate", validate_argument, arg)
    text = tr.call("gsn.serialize", serialize_dsl, arg)
    tr.call("cli.write", atomic_write, cfg.argument_path(), text)
    return arg


def probe(tr, space, props):
    """Label each property's state sets and compute the 0/1 sets the engine
    computes for it inside check_property; counts the states left to the
    numeric solve."""
    tr.stage = "probe"
    for p in props:
        path = p.path
        with tr.span("statespace.label"):
            target = label_states(space, path.target)
            phi = label_states(space, path.constraint if path.kind == "U" else Lit(True))
        if path.kind == "F<=":
            continue  # step-bounded: no graph precomputation
        if path.kind == "G":
            target = ~target  # P(G t) = 1 - P(F !t)
        with tr.span("engine.precompute") as s:
            if p.kind == "P_bound" and p.bound in (0.0, 1.0):
                # Decided on the graph alone: one fixpoint, nothing to solve.
                at_one = (p.bound_op == ">=") != (path.kind == "G")
                (prob1_states if at_one else prob0_states)(space, phi, target)
            elif p.kind == "R_query":
                one = prob1_states(space, phi, target)
                s["counts"] = {"engine.unknown_states": int((one & ~target).sum())}
            else:
                zero = prob0_states(space, phi, target)
                one = prob1_states(space, phi, target)
                s["counts"] = {"engine.unknown_states": int((~zero & ~one).sum())}


def replay_evolve(tr, cfg, inputs):
    """The ingest, impact, plan and apply commands, as public calls."""
    tr.stage = "lifecycle"
    gsn_path = cfg.argument_path()
    out = Path(cfg.out)

    def load():
        return tr.call("gsn.parse", parse_dsl, gsn_path.read_text())

    def save(arg):
        tr.call("cli.write", atomic_write, gsn_path,
                tr.call("gsn.serialize", serialize_dsl, arg))

    arg = load()
    events = tr.call("lifecycle.read", parse_monitor_events,
                     inputs.events.read_text())
    arg, _ = tr.call("lifecycle.ingest", ingest_monitor_events, arg, events)
    save(arg)

    arg = load()
    pkg = tr.call("lifecycle.read", load_package, inputs.package)
    fresh = tr.call("engine.parse", parse_results, inputs.fresh_partial.read_text())
    base = tr.call("engine.parse", parse_results, inputs.baseline.read_text())
    report, arg = tr.call("lifecycle.impact", impact_analysis, arg, pkg, fresh, base)
    save(arg)
    tr.call("cli.write", atomic_write, out / "impact_report.json", report.to_json())

    arg = load()
    report = ImpactReport.from_json((out / "impact_report.json").read_text())
    with tr.span("lifecycle.plan") as s:
        entries, arg, _ = plan_regeneration(report, arg)
        s["counts"] = {"lifecycle.plan_entries": len(entries)}
    save(arg)
    tr.call("cli.write", atomic_write, out / "plan.json", serialize_plan(entries))

    arg = load()
    entries = tr.call("lifecycle.read", parse_plan, (out / "plan.json").read_text())
    fresh = tr.call("engine.parse", parse_results, inputs.fresh_full.read_text())
    arg = tr.call("lifecycle.apply", apply_regeneration, arg, entries, fresh)
    save(arg)
