"""Runtime-evidence ingestion and evolution-time change management.

Monitor events reopen goals; evolution packages drive impact analysis; the
resulting plan orders evidence regeneration by cost; applying fresh results
closes goals out again.  Every operation takes and returns argument values.

Stereotype lifecycle per goal: (none) -> Reopened/DeferredEvidence ->
RegenerationPlan -> EvidenceProvided; a goal never holds DeferredEvidence and
EvidenceProvided at the same time.

One evidence rule (`engine.evidence`) serves generate, regenerate, impact and
apply: a result changed exactly when its rendered value (6 significant
digits), verdict, +∞ or `marginal` flag did.  A violated or marginal result
gives its goal DeferredEvidence, any other EvidenceProvided.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .diagnostics import (
    CassureError, json_field, malformed, read_json_lines, read_record,
)
from .engine import evidence, result_fingerprint
from .gsn import Annotation, ArgumentModel
from .transform import solution_description


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
    payload (trailing fields optional); lines starting with '#' are skipped."""
    return read_json_lines(text, MonitorEvent, "event record", LifecycleError,
                           comments=True)


@dataclass
class IngestReport:
    reopened: list = field(default_factory=list)     # (goal id, reason)
    unmatched: list = field(default_factory=list)    # monitor ids with no goal
    unchanged: list = field(default_factory=list)    # confidence above threshold


def ingest_monitor_events(arg: ArgumentModel, events):
    """Apply monitor events; returns (argument, IngestReport).

    Existing placeholders are never removed; a reopened goal loses its
    EvidenceProvided.
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
    drop = {(gid, "stereotype", "EvidenceProvided") for gid, _ in report.reopened}
    return arg.edit_annotations(add=add, drop=drop), report


# --------------------------------------------------------------------------
# Evolution packages and impact analysis
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FileDelta:
    path: str
    old_fingerprint: str = ""
    new_fingerprint: str = ""

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
    try:
        rec = json.loads(path.read_text())
        deltas = tuple(read_record(FileDelta, d)
                       for d in json_field(rec, "changed_files", list, []))
        reopened = json_field(rec, "reopened_goals", list, [])
        if not all(isinstance(gid, str) for gid in reopened):
            raise TypeError(f"'reopened_goals' holds a non-string: {reopened!r}")
        pkg = EvolutionPackage(deltas,
                               tuple(json_field(rec, "monitor_logs", list, [])),
                               json_field(rec, "incident_notes", str, ""),
                               tuple(reopened))
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise LifecycleError(
            f"{path}: " + malformed("package manifest", e)) from None
    if pkg.is_empty():
        raise LifecycleError("evolution package has no triggering element")
    return pkg


@dataclass
class ImpactReport:
    classifications: dict  # goal id -> class
    rationales: dict
    summary: str

    def goals_in(self, cls):
        return sorted(g for g, c in self.classifications.items() if c == cls)

    def to_json(self):
        return json.dumps(vars(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text):
        try:
            return read_record(ImpactReport, json.loads(text))
        except (KeyError, ValueError, TypeError) as e:
            raise LifecycleError(malformed("impact report", e)) from None


def _property_of(arg, gid):
    """The property a goal is trace-linked to; the first link wins, as for
    recorded results.  None for a goal with no property link."""
    return next((t.ref for t in arg.trace_links_of(gid)
                 if t.artifact_kind == "property"), None)


def impact_analysis(arg: ArgumentModel, pkg: EvolutionPackage,
                    fresh_results=None, baseline_results=None):
    """Classify every goal as valid / invalid / uncertain.

    A goal is invalid when it is trace-linked to a changed artifact and a
    fresh re-check changed the result, or when it was reopened by a
    violation; uncertain when the artifact changed without a fresh re-check,
    or it was confidence-reopened; valid otherwise.  The result changed when
    its rendered value, verdict, +∞ or `marginal` flag did: its fingerprint
    differs from the baseline record's, or without one from the recorded.
    Returns (ImpactReport, annotated argument).
    """
    changed_paths = {d.path for d in pkg.changed_files if d.changed}
    reopened_extra = set(pkg.reopened_goals)
    fresh_by_name = {r.property: r for r in (fresh_results or [])}
    # Per property: the fingerprint to compare and the rationale on a match.
    before = {t.ref: (t.fingerprint, "fresh re-check matches recorded result")
              for t in reversed(arg.trace_links)
              if t.artifact_kind == "verification-result"}
    for r in baseline_results or ():
        before[r.property] = (result_fingerprint(r), "fresh re-check confirms baseline")

    classifications, rationales = {}, {}
    for goal in arg.goals():
        gid = goal.id
        prop_name = _property_of(arg, gid)
        # File-level granularity: any changed model/props file touches every
        # goal linked into the verification pipeline.
        artifact_changed = bool(changed_paths) and any(
            t.artifact_kind in ("model-file", "property")
            for t in arg.trace_links_of(gid))
        reason = None
        if "Reopened" in arg.stereotypes_of(gid):
            reason = ("violation" if arg.placeholder_of(gid, "runtime_log") is not None
                      else "confidence")
        elif gid in reopened_extra:
            reason = "violation"

        cls, why = "valid", "no linked artifact changed"
        if reason == "violation":
            cls, why = "invalid", "reopened by runtime assumption violation"
        elif artifact_changed and prop_name is not None:
            fresh = fresh_by_name.get(prop_name)
            recorded, confirms = before.get(prop_name, (None, None))
            if fresh is None:
                cls, why = "uncertain", "linked artifact changed, no fresh re-check"
            elif result_fingerprint(fresh) == recorded:
                cls, why = "valid", confirms
            else:
                cls, why = "invalid", "fresh re-check changed the result"
        elif artifact_changed:
            cls, why = "uncertain", "model artifact changed, goal not re-checkable"
        elif reason == "confidence":
            cls, why = "uncertain", "reopened by confidence drop"
        classifications[gid], rationales[gid] = cls, why

    classes = list(classifications.values())
    report = ImpactReport(classifications, rationales, " ".join(
        f"{c}={classes.count(c)}" for c in ("valid", "invalid", "uncertain")))

    return report, arg.edit_annotations(
        add=(Annotation.stereotype("S.byProperty", "ImpactAnalysis"),
             Annotation.placeholder("S.byProperty", "impact_summary",
                                    report.summary)),
        drop=(("S.byProperty", "placeholder", "impact_summary"),))


# --------------------------------------------------------------------------
# Regeneration planning
# --------------------------------------------------------------------------

_COST_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(h|d)\s*$")


def parse_evidence_cost(text):
    """Cost grammar '<number>(h|d)', 1d = 24h; returns hours or None."""
    m = _COST_RE.match(text or "")
    return m and float(m.group(1)) * (24.0 if m.group(2) == "d" else 1.0)


@dataclass(frozen=True)
class RegenerationPlanEntry:
    goal_id: str
    strategy: str           # "re-verify" | "simulate" | "manual-review"
    rank: int
    evidence_cost: str | None
    cost_hours: float | None
    critical: bool = False


def serialize_plan(entries) -> str:
    return json.dumps([vars(e) for e in entries], indent=2)


def parse_plan(text):
    try:
        return [read_record(RegenerationPlanEntry, r) for r in json.loads(text)]
    except (KeyError, ValueError, TypeError) as e:
        raise LifecycleError(malformed("plan", e)) from None


def plan_regeneration(report: ImpactReport, arg: ArgumentModel):
    """Prioritized repair schedule over invalid and uncertain goals.

    Order: invalid before uncertain; within a class ascending parsed
    evidence_cost (missing cost sorts last); ties broken by goal id.
    Returns (entries, argument annotated with RegenerationPlan stereotypes);
    unparseable costs are reported as warnings in the third tuple element.
    """
    warnings, ranked = [], []
    for cls_rank, cls in enumerate(("invalid", "uncertain")):
        for gid in report.goals_in(cls):
            cost_text = arg.placeholder_of(gid, "evidence_cost")
            hours = parse_evidence_cost(cost_text)
            if cost_text is not None and hours is None:
                warnings.append(f"unparseable evidence_cost {cost_text!r} on {gid}")
            strategy = ("re-verify" if _property_of(arg, gid) is not None
                        else "manual-review")
            critical = (arg.placeholder_of(gid, "safety_critical") or "") == "true"
            key = (cls_rank, float("inf") if hours is None else hours, gid)
            ranked.append((key, RegenerationPlanEntry(gid, strategy, 0, cost_text,
                                                      hours, critical)))

    entries, add = [], []
    for rank, (_, entry) in enumerate(sorted(ranked), 1):  # the keys are unique
        gid = entry.goal_id
        entries.append(replace(entry, rank=rank))
        add.append(Annotation.stereotype(gid, "RegenerationPlan"))
        if arg.placeholder_of(gid, "regeneration_plan") is None:
            add.append(Annotation.placeholder(gid, "regeneration_plan", entry.strategy))
    return entries, arg.edit_annotations(add=add, drop=()), warnings


# --------------------------------------------------------------------------
# Applying regenerated evidence
# --------------------------------------------------------------------------

def apply_regeneration(arg: ArgumentModel, plan, fresh_results) -> ArgumentModel:
    """Discharge planned goals with fresh verification results.

    Re-verify entries require a fresh result; a violated or marginal one
    keeps DeferredEvidence and withholds EvidenceProvided, any other drops
    DeferredEvidence and Reopened for EvidenceProvided.  The goal's version
    increments either way (the evidence was refreshed even when the claim
    stands undischarged); its solution's increments when the description
    or the result fingerprint changes, as in `transform.regenerate`.
    """
    fresh_by_name = {r.property: r for r in fresh_results}
    nodes = {n.id: n for n in arg.nodes}
    fingerprints = {}   # solution id -> fingerprint of its fresh result
    add, drop = [], []
    for entry in plan:
        if entry.strategy != "re-verify":
            continue
        gid = entry.goal_id
        prop_name = _property_of(arg, gid)
        res = fresh_by_name.get(prop_name)
        if res is None:
            raise LifecycleError(
                f"no fresh result for planned goal {gid} (property {prop_name})")

        ev = evidence(res)
        sol = nodes.get(f"E.{prop_name}")
        if sol is not None:
            desc = solution_description(prop_name, res)
            recorded = {t.fingerprint for t in arg.trace_links_of(sol.id)
                        if t.artifact_kind == "verification-result"}
            if sol.description != desc or recorded - {ev.fingerprint}:
                nodes[sol.id] = sol._replace(description=desc, version=sol.version + 1)
            fingerprints[sol.id] = ev.fingerprint

        # One goal's drops and adds never touch another goal's annotations,
        # and a goal's adds are never among its drops, so collecting them
        # and editing once equals editing entry by entry.
        drop += ((gid, "stereotype", "RegenerationPlan"),
                 (gid, "placeholder", "regeneration_plan"))
        if ev.deferred:
            drop.append((gid, "stereotype", "EvidenceProvided"))
            add.append(Annotation.stereotype(gid, "DeferredEvidence"))
        else:
            drop += ((gid, "stereotype", "DeferredEvidence"),
                     (gid, "stereotype", "Reopened"))
            add.append(Annotation.stereotype(gid, "EvidenceProvided"))
        goal = nodes[gid]
        nodes[gid] = goal._replace(version=goal.version + 1)

    trace_links = tuple(
        t._replace(fingerprint=fingerprints[t.node_id])
        if t.artifact_kind == "verification-result" and t.node_id in fingerprints
        else t for t in arg.trace_links)
    return arg.edit_annotations(add=add, drop=drop).revise(
        tuple(nodes[n.id] for n in arg.nodes), trace_links)

