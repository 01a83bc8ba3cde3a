"""Runtime-evidence ingestion and evolution-time change management.

Monitor events reopen goals; evolution packages drive impact analysis; the
resulting plan orders evidence regeneration by cost; applying fresh results
closes goals out again.  Every operation takes and returns argument values.

Stereotype lifecycle per goal: (none) -> Reopened/DeferredEvidence ->
RegenerationPlan -> EvidenceProvided; a goal never holds DeferredEvidence and
EvidenceProvided at the same time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .diagnostics import CassureError
from .engine import render_value, result_fingerprint
from .gsn import Annotation, ArgumentModel
from .transform import DEFAULT_TEMPLATE, _render

VALUE_CHANGE_TOL = 1e-6


class LifecycleError(CassureError):
    pass


# --------------------------------------------------------------------------
# Monitor events
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonitorEvent:
    timestamp: str          # ISO-8601
    monitor_id: str
    kind: str               # "violation" | "confidence"
    value: float | None = None   # confidence score in [0,1]
    detail: str | None = None    # violation description
    payload: str | None = None   # log excerpt / reference

    def __post_init__(self):
        if self.kind not in ("violation", "confidence"):
            raise LifecycleError(f"unknown event kind {self.kind!r}")
        if self.kind == "confidence":
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise LifecycleError(
                    f"confidence event needs a value in [0,1], got {self.value!r}")


def parse_monitor_events(text: str):
    """One JSON object per line: timestamp, monitor_id, kind, value, detail,
    payload (trailing fields optional)."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
            events.append(MonitorEvent(
                rec["timestamp"], rec["monitor_id"], rec["kind"],
                rec.get("value"), rec.get("detail"), rec.get("payload")))
        except (KeyError, ValueError, TypeError) as e:
            raise LifecycleError(f"malformed event record on line {lineno}: {e}")
    return events


@dataclass
class IngestReport:
    reopened: list = field(default_factory=list)     # (goal id, reason)
    unmatched: list = field(default_factory=list)    # monitor ids with no goal
    unchanged: list = field(default_factory=list)    # confidence above threshold


def ingest_monitor_events(arg: ArgumentModel, events):
    """Apply monitor events; returns (argument, IngestReport).

    Append-only on annotations: existing placeholders are never removed.
    """
    report = IngestReport()
    monitors = {}
    for a in arg.annotations:
        if a.kind == "placeholder" and a.name == "monitor_id":
            monitors.setdefault(a.value, []).append(a.node_id)

    add = []
    for ev in events:
        goal_ids = monitors.get(ev.monitor_id)
        if not goal_ids:
            report.unmatched.append(ev.monitor_id)
            continue
        for gid in goal_ids:
            if ev.kind == "violation":
                ref = ev.payload or ev.detail or ev.timestamp
                add += (Annotation.stereotype(gid, "Reopened"),
                        Annotation.placeholder(gid, "runtime_log", ref))
                report.reopened.append((gid, "violation"))
            else:
                raw = arg.placeholder_of(gid, "confidence_threshold")
                if raw is None:
                    report.unmatched.append(ev.monitor_id)
                    continue
                try:
                    threshold = float(raw)
                except ValueError:
                    raise LifecycleError(
                        f"unparseable confidence_threshold {raw!r} on {gid}")
                if ev.value < threshold:
                    add += (Annotation.stereotype(gid, "Reopened"),
                            Annotation.stereotype(gid, "DeferredEvidence"))
                    report.reopened.append((gid, "confidence"))
                else:
                    report.unchanged.append(gid)
    return arg.edit_annotations(add=add, drop=()), report


# --------------------------------------------------------------------------
# Evolution packages and impact analysis
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FileDelta:
    path: str
    old_fingerprint: str
    new_fingerprint: str

    @property
    def changed(self):
        return self.old_fingerprint != self.new_fingerprint


@dataclass(frozen=True)
class EvolutionPackage:
    changed_files: tuple = ()
    monitor_logs: tuple = ()
    incident_notes: str = ""
    reopened_goals: tuple = ()

    def is_empty(self):
        return not (any(d.changed for d in self.changed_files)
                    or self.monitor_logs or self.reopened_goals)


def load_package(directory) -> EvolutionPackage:
    """Read a package directory; the manifest is ``package.json``."""
    path = Path(directory) / "package.json"
    if not path.exists():
        raise LifecycleError(f"no package manifest at {path}")
    rec = json.loads(path.read_text())
    deltas = tuple(FileDelta(d["path"], d.get("old_fingerprint", ""),
                             d.get("new_fingerprint", ""))
                   for d in rec.get("changed_files", []))
    pkg = EvolutionPackage(deltas, tuple(rec.get("monitor_logs", [])),
                           rec.get("incident_notes", ""),
                           tuple(rec.get("reopened_goals", [])))
    if pkg.is_empty():
        raise LifecycleError("evolution package has no triggering element")
    return pkg


@dataclass
class ImpactReport:
    classifications: dict = field(default_factory=dict)  # goal id -> class
    rationales: dict = field(default_factory=dict)
    summary: str = ""

    def goals_in(self, cls):
        return sorted(g for g, c in self.classifications.items() if c == cls)

    def to_json(self):
        return json.dumps({
            "classifications": self.classifications,
            "rationales": self.rationales,
            "summary": self.summary,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text):
        rec = json.loads(text)
        return ImpactReport(rec["classifications"], rec["rationales"],
                            rec["summary"])


def _goal_reopen_reason(arg, gid):
    stereos = arg.stereotypes_of(gid)
    if "Reopened" not in stereos:
        return None
    if arg.placeholder_of(gid, "runtime_log") is not None:
        return "violation"
    return "confidence"


def impact_analysis(arg: ArgumentModel, pkg: EvolutionPackage,
                    fresh_results=None, baseline_results=None):
    """Classify every goal as valid / invalid / uncertain.

    A goal is invalid when it is trace-linked to a changed artifact and a
    fresh re-check disagrees with the baseline, or when it was reopened by a
    violation; uncertain when the artifact changed without a fresh re-check,
    or it was confidence-reopened; valid otherwise.  Returns
    (ImpactReport, annotated argument).
    """
    changed_paths = {d.path for d in pkg.changed_files if d.changed}
    reopened_extra = set(pkg.reopened_goals)
    fresh_by_name = {r.property: r for r in (fresh_results or [])}
    base_by_name = {r.property: r for r in (baseline_results or [])}
    # The recorded fingerprint of each property's result; the first link wins.
    recorded = {t.ref: t.fingerprint for t in reversed(arg.trace_links)
                if t.artifact_kind == "verification-result"}

    report = ImpactReport()
    for goal in arg.goals():
        gid = goal.id
        prop_name = None
        artifact_changed = False
        for t in arg.trace_links_of(gid):
            if t.artifact_kind == "property":
                prop_name = t.ref
            if t.artifact_kind in ("model-file", "property") and changed_paths:
                # File-level granularity: any changed model/props file touches
                # every goal linked into the verification pipeline.
                artifact_changed = True
        if gid == "G.root" and changed_paths:
            artifact_changed = True

        reason = _goal_reopen_reason(arg, gid)
        if gid in reopened_extra and reason is None:
            reason = "violation"

        cls, why = "valid", "no linked artifact changed"
        if reason == "violation":
            cls, why = "invalid", "reopened by runtime assumption violation"
        elif artifact_changed and prop_name is not None:
            fresh = fresh_by_name.get(prop_name)
            if fresh is None:
                cls, why = "uncertain", "linked artifact changed, no fresh re-check"
            else:
                base = base_by_name.get(prop_name)
                if base is not None and not _result_changed(base, fresh):
                    cls, why = "valid", "fresh re-check confirms baseline"
                elif base is None:
                    if recorded.get(prop_name) == result_fingerprint(fresh):
                        cls, why = "valid", "fresh re-check matches recorded result"
                    else:
                        cls, why = "invalid", "fresh re-check changed the result"
                else:
                    cls, why = "invalid", "fresh re-check changed the result"
        elif artifact_changed:
            cls, why = "uncertain", "model artifact changed, goal not re-checkable"
        elif reason == "confidence":
            cls, why = "uncertain", "reopened by confidence drop"
        report.classifications[gid] = cls
        report.rationales[gid] = why

    counts = {c: sum(1 for v in report.classifications.values() if v == c)
              for c in ("valid", "invalid", "uncertain")}
    report.summary = (f"valid={counts['valid']} invalid={counts['invalid']} "
                      f"uncertain={counts['uncertain']}")

    return report, arg.edit_annotations(
        add=(Annotation.stereotype("S.byProperty", "ImpactAnalysis"),
             Annotation.placeholder("S.byProperty", "impact_summary",
                                    report.summary)),
        drop=(("S.byProperty", "placeholder", "impact_summary"),))


def _result_changed(base, fresh):
    if base.verdict is not None or fresh.verdict is not None:
        if base.verdict != fresh.verdict:
            return True
    if base.infinite != fresh.infinite:
        return True
    if base.value is None or fresh.value is None:
        return base.value != fresh.value
    return abs(base.value - fresh.value) > VALUE_CHANGE_TOL


# --------------------------------------------------------------------------
# Regeneration planning
# --------------------------------------------------------------------------

_COST_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(h|d)\s*$")


def parse_evidence_cost(text):
    """Cost grammar '<number>(h|d)', 1d = 24h; returns hours or None."""
    if text is None:
        return None
    m = _COST_RE.match(text)
    if not m:
        return None
    hours = float(m.group(1))
    return hours * 24.0 if m.group(2) == "d" else hours


@dataclass(frozen=True)
class RegenerationPlanEntry:
    goal_id: str
    strategy: str           # "re-verify" | "simulate" | "manual-review"
    rank: int
    evidence_cost: str | None
    cost_hours: float | None
    critical: bool = False


def serialize_plan(entries) -> str:
    return json.dumps([e.__dict__ for e in entries], indent=2)


def parse_plan(text):
    return [RegenerationPlanEntry(**rec) for rec in json.loads(text)]


def plan_regeneration(report: ImpactReport, arg: ArgumentModel):
    """Prioritized repair schedule over invalid and uncertain goals.

    Order: invalid before uncertain; within a class ascending parsed
    evidence_cost (missing cost sorts last); ties broken by goal id.
    Returns (entries, argument annotated with RegenerationPlan stereotypes);
    unparseable costs are reported as warnings in the third tuple element.
    """
    warnings = []
    candidates = []
    for cls_rank, cls in enumerate(("invalid", "uncertain")):
        for gid in report.goals_in(cls):
            cost_text = arg.placeholder_of(gid, "evidence_cost")
            hours = parse_evidence_cost(cost_text)
            if cost_text is not None and hours is None:
                warnings.append(f"unparseable evidence_cost {cost_text!r} on {gid}")
            kinds = {t.artifact_kind for t in arg.trace_links_of(gid)}
            strategy = "re-verify" if "property" in kinds else "manual-review"
            critical = (arg.placeholder_of(gid, "safety_critical") or "") == "true"
            candidates.append((cls_rank, hours if hours is not None else float("inf"),
                               gid, strategy, cost_text, hours, critical))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))

    entries, add = [], []
    for rank, c in enumerate(candidates, 1):
        _, _, gid, strategy, cost_text, hours, critical = c
        entries.append(RegenerationPlanEntry(gid, strategy, rank, cost_text,
                                             hours, critical))
        add.append(Annotation.stereotype(gid, "RegenerationPlan"))
        if arg.placeholder_of(gid, "regeneration_plan") is None:
            add.append(Annotation.placeholder(gid, "regeneration_plan", strategy))
    return entries, arg.edit_annotations(add=add, drop=()), warnings


# --------------------------------------------------------------------------
# Applying regenerated evidence
# --------------------------------------------------------------------------

def apply_regeneration(arg: ArgumentModel, plan, fresh_results,
                       tmpl=DEFAULT_TEMPLATE) -> ArgumentModel:
    """Discharge planned goals with fresh verification results.

    Re-verify entries require a fresh result; a still-failing result keeps
    DeferredEvidence and withholds EvidenceProvided, but the version still
    increments (the evidence was refreshed even though the claim stands
    undischarged).
    """
    fresh_by_name = {r.property: r for r in fresh_results}
    nodes = {n.id: n for n in arg.nodes}
    fingerprints = {}   # solution id -> fingerprint of its fresh result
    add, drop = [], []
    for entry in plan:
        if entry.strategy != "re-verify":
            continue
        gid = entry.goal_id
        prop_name = next((t.ref for t in arg.trace_links_of(gid)
                          if t.artifact_kind == "property"), None)
        res = fresh_by_name.get(prop_name)
        if res is None:
            raise LifecycleError(
                f"no fresh result for planned goal {gid} (property {prop_name})")

        eid = f"E.{prop_name}"
        if eid in nodes:
            new_desc = _render(tmpl.solution,
                               {"name": prop_name, "result": render_value(res)})
            sol = nodes[eid]
            if sol.description != new_desc:
                nodes[eid] = replace(sol, description=new_desc,
                                     version=sol.version + 1)
            fingerprints[eid] = result_fingerprint(res)

        # One goal's drops and adds never touch another goal's annotations,
        # and a goal's adds are never among its drops, so collecting them
        # and editing once equals editing entry by entry.
        drop += ((gid, "stereotype", "RegenerationPlan"),
                 (gid, "placeholder", "regeneration_plan"))
        if res.verdict is not False:
            drop += ((gid, "stereotype", "DeferredEvidence"),
                     (gid, "stereotype", "Reopened"))
            add.append(Annotation.stereotype(gid, "EvidenceProvided"))
        else:
            drop.append((gid, "stereotype", "EvidenceProvided"))
            add.append(Annotation.stereotype(gid, "DeferredEvidence"))
        goal = nodes[gid]
        nodes[gid] = replace(goal, version=goal.version + 1)

    trace_links = tuple(
        replace(t, fingerprint=fingerprints[t.node_id])
        if t.artifact_kind == "verification-result" and t.node_id in fingerprints
        else t for t in arg.trace_links)
    return replace(arg.edit_annotations(add=add, drop=drop),
                   nodes=tuple(nodes[n.id] for n in arg.nodes),
                   trace_links=trace_links)


def stereotype_state_violations(arg: ArgumentModel):
    """Goals holding DeferredEvidence and EvidenceProvided simultaneously."""
    bad = []
    for goal in arg.goals():
        s = arg.stereotypes_of(goal.id)
        if "DeferredEvidence" in s and "EvidenceProvided" in s:
            bad.append(goal.id)
    return bad
