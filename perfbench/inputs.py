"""Seeded inputs for every workload: model texts, property sets, edits and
the evolution mix.

Each generated property carries a small spec next to its PRISM text, so the
reference side (``reference.py``) can evaluate it without the program's
parser.  The same seed always gives the same files.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

# ---------------------------------------------------------------- grid model

GRID_TEXT = """dtmc

const int N = {N};

module walk
  x : [0..N] init 0;
  y : [0..N] init 0;
  [] x<N & y<N -> 0.4:(x'=x+1) + 0.4:(y'=y+1) + 0.2:(x'=0);
  [] x=N | y=N -> (x'=x);
endmodule

rewards "steps"
  true : 1;
endrewards
"""


def grid_model(n):
    return GRID_TEXT.format(N=n)


def grid_solve_props(n, rng):
    """Reward to absorption, reachability of x>=K and a threshold until.

    Only the threshold b varies with the seed, so the solve work does not.
    """
    k = n // 2
    b = f"{10 ** rng.uniform(-6.0, -2.0):.9f}"
    return [
        ("R_steps", 'R{"steps"}=? [ F x=N|y=N ]', ("R",)),
        ("P_reach", f"P=? [ F x>={k} ]", ("F", k)),
        ("P_thr", f"P<={b} [ y<N U x>={k} ]", ("U<=", k, b)),
    ]


def grid_build_props(n, rng):
    """Two qualitative verdicts and one step-bounded query whose value sits
    well inside (0, 1): y grows by one with probability 0.4 per step, so
    P(F<=k y>=M) is a binomial tail near its median.  Only M varies with the
    seed, which leaves the work the same."""
    k = 60
    m = min(24 + rng.randint(-2, 2), n - 1)
    return [
        ("P_absorb", "P>=1 [ F x=N|y=N ]", ("absorb",)),
        ("P_corner", "P<=0 [ F x=N & y=N ]", ("corner",)),
        ("P_bounded", f"P=? [ F<={k} y>={m} ]", ("F<=", k, m)),
    ]


# ---------------------------------------------------------- case-study mix
#
# A state predicate is a tuple of atoms joined by "&" or "|"; an atom is
# (variable, operator, value).  Variables index the case-study state tuple
# (loc, batt, rad, sw, vel, op_used).

VARS = {"loc": 0, "batt": 1, "rad": 2, "sw": 3, "vel": 4}
_ATOM_VALUES = {
    "loc": range(0, 7), "batt": range(0, 101, 10), "rad": range(0, 3),
    "sw": range(0, 3), "vel": range(0, 3),
}
_OPS = ("=", "!=", "<", "<=", ">=", ">")


def pred_text(pred):
    joiner, atoms = pred
    parts = [f"{v} {op} {c}" for v, op, c in atoms]
    if len(parts) == 1:
        return parts[0]
    return "(" + f" {joiner} ".join(parts) + ")"


def _atom(rng):
    var = rng.choice(sorted(VARS))
    return (var, rng.choice(_OPS), rng.choice(list(_ATOM_VALUES[var])))


def _pred(rng):
    atoms = tuple(_atom(rng) for _ in range(rng.randint(1, 2)))
    return (rng.choice("&|"), atoms)


def _threshold(rng):
    # Off-grid thresholds, so no exact value of the model can sit on one.
    return f"{rng.randint(1, 19) / 20 + 0.0037:.4f}"


def case_study_props(count, rng):
    """`count` generated properties: step-bounded, qualitative (bounds 0 and
    1), threshold and battery queries.  Returns (name, text, spec) triples."""
    out = []
    for i in range(count):
        name = f"g{i:04d}"
        roll = rng.random()
        psi = _pred(rng)
        if roll < 0.30:
            k = rng.randint(1, 8)
            out.append((name, f"P=? [ F<={k} {pred_text(psi)} ]", ("F<=", k, psi)))
        elif roll < 0.60:
            op, b = (">=", 1) if rng.random() < 0.5 else ("<=", 0)
            out.append((name, f"P{op}{b} [ F {pred_text(psi)} ]",
                        ("qual", op, psi)))
        elif roll < 0.85:
            op, b = rng.choice(("<=", ">=")), _threshold(rng)
            if rng.random() < 0.5:
                text = f"P{op}{b} [ F {pred_text(psi)} ]"
                out.append((name, text, ("thr", op, b, None, psi)))
            else:
                phi = _pred(rng)
                text = f"P{op}{b} [ {pred_text(phi)} U {pred_text(psi)} ]"
                out.append((name, text, ("thr", op, b, phi, psi)))
        else:
            t = rng.randrange(30, 100, 10)
            if rng.random() < 0.5:
                out.append((name, f"P=? [ F batt < {t} ]",
                            ("F", ("&", (("batt", "<", t),)))))
            else:
                b = _threshold(rng)
                out.append((name, f"P>={b} [ G batt >= {t} ]",
                            ("G>=", b, ("&", (("batt", ">=", t),)))))
    return out


def props_file(props):
    return "".join(f'"{name}": {text};\n' for name, text, _ in props)


# ---------------------------------------------------------- assurance loop

P_ERR_LINE = re.compile(r"const double p_err = [0-9.]+;")
P_ERR_VALUES = ("0.01", "0.015")


def with_p_err(model_text, value):
    new, count = P_ERR_LINE.subn(f"const double p_err = {value};", model_text)
    if count != 1:
        raise ValueError("case-study model has no single p_err declaration")
    return new


def loop_bounds(rng):
    """Two bounds for the added property P_bench: P<=b [ F loc = 5 ].
    P(F loc=5) is 0.039 at p_err=0.01 and 0.058 at 0.015, so one bound lies
    below both values and one above."""
    return (f"{rng.uniform(0.02, 0.035):.4f}", f"{rng.uniform(0.07, 0.2):.4f}")


def bench_prop_line(bound):
    return f'"P_bench": P<={bound} [ F loc = 5 ];\n'


# Annotations written by hand after the first cycle of the loop; every
# later argument must still carry them.
LOOP_ANNOTATIONS = (
    ("G.P_succ", "placeholder", "evidence_cost", "4h"),
    ("G.P_forb", "placeholder", "monitor_id", "zone_monitor"),
    ("G.P_forb", "stereotype", "RuntimeAssumptionMonitor", None),
)


def annotation_line(node, kind, name, value):
    if kind == "placeholder":
        return f'annotate {node} placeholder {name}="{value}"'
    return f"annotate {node} stereotype <<{name}>>"


# ---------------------------------------------------------- evolution mix

def evolution_annotations(goal_ids, rng):
    """Hand annotations on property goals: (goal, key, value) triples.

    A seeded 40% of the goals get an evidence cost and a seeded 10% a
    monitor, two or three goals to a monitor.  Monitors alternate between
    two kinds: runtime-assumption monitors, whose events are violations,
    and confidence monitors with a threshold.  The seed picks the goals and
    the values, not how many there are.  These fractions are assumptions:
    nothing in the repository gives a field mix.
    """
    anns = [(gid, "evidence_cost", f"{rng.randint(1, 40)}{rng.choice('hd')}")
            for gid in sorted(rng.sample(goal_ids, round(0.4 * len(goal_ids))))]
    watched = sorted(rng.sample(goal_ids, max(2, len(goal_ids) // 10)))
    count = max(2, len(watched) * 2 // 5)
    monitors = {f"mon{i:03d}": ("violation", "confidence")[i % 2]
                for i in range(count)}
    for j, gid in enumerate(watched):
        mid = f"mon{j % count:03d}"
        anns.append((gid, "monitor_id", mid))
        if monitors[mid] == "confidence":
            anns.append((gid, "confidence_threshold", "0.8"))
    return anns, monitors


# Events each monitor reports in the log.  With 5, the four lifecycle
# phases of one evolution round take about the shares an earlier probe of
# the CLI measured at 2,000 properties (ingest 2.0 s, impact 1.1 s, plan
# 3.0 s, apply 5.1 s: 18, 10, 27 and 45%); see README.md.
EVENTS_PER_MONITOR = 5


def monitor_events(monitors, rng):
    """EVENTS_PER_MONITOR sweeps over the monitors, one event each, JSON
    lines: violations for runtime-assumption monitors, scores above or below
    0.8 for confidence monitors."""
    lines = []
    for _ in range(EVENTS_PER_MONITOR):
        for mid, kind in sorted(monitors.items()):
            t = len(lines)
            rec = {"timestamp": f"2026-01-01T{t // 3600:02d}:{t // 60 % 60:02d}:"
                                f"{t % 60:02d}Z",
                   "monitor_id": mid, "kind": kind}
            if kind == "violation":
                rec["detail"] = f"assumption broken at {mid}"
                rec["payload"] = f"log/{mid}.txt"
            else:
                rec["value"] = rng.choice((0.35, 0.6, 0.9, 0.95))
            lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def package_manifest(model_path, old_text, new_text):
    sha = lambda t: hashlib.sha256(t.encode()).hexdigest()
    return json.dumps({
        "changed_files": [{"path": model_path, "old_fingerprint": sha(old_text),
                           "new_fingerprint": sha(new_text)}],
        "incident_notes": "p_err raised after field data",
    }, indent=2)


def rng_for(seed, name):
    """Independent stream per input, so adding one input leaves the others."""
    return random.Random(f"{seed}:{name}")
