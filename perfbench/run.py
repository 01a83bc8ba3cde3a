"""cassure benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and the case-study oracle from ``tests/oracle.py``.  Scratch files
go under ``.perfbench/`` in the checkout and are removed at the end; a
traced run leaves its spans in ``.perfbench/traces/``.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  ``--smoke``
shrinks every input so all workloads and checks finish in seconds.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # set-ups per run; setup_s takes their median
WORKLOAD_NAMES = ("grid-solve", "grid-build", "loop-props", "loop-model",
                  "generate", "evolution")


@dataclass
class Context:
    root: Path
    seed: int
    sizes: object
    oracle_path: Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src, oracle = ROOT / "src" / "cassure", ROOT / "tests" / "oracle.py"
    if not src.is_dir() or not oracle.is_file():
        print(f"error: run from a cassure checkout ({src} and {oracle} are "
              "needed)", file=sys.stderr)
        return 2
    # One thread per numeric library: the load is this one process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # imports_s, on the "#" line, is this process's import of the program;
    # the benchmark's modules and the reference side's scipy come after.
    import cassure.cli  # noqa: F401  (the package imports every module)
    imports_s = time.perf_counter() - _T0
    import tracing
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    ctx = Context(ROOT, args.seed, sizes, oracle)
    wl = workloads.WORKLOADS[args.workload](ctx)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # One set-up: a fresh interpreter that imports the program, then the
        # workload's inputs and warm-up.  Each set-up needs its own
        # interpreter, because this process can import the program only once.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        prep = []
        for i in range(SETUP_REPS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import cassure.cli"],
                           env=env, check=True)
            wl.prepare(work / f"setup{i}")
            prep.append(time.perf_counter() - t)
        setup_s = statistics.median(prep)

        deadline = time.perf_counter() + args.seconds
        if args.trace:
            tr = tracing.Tracer()
            rounds = []
            while True:
                with tr.span("round") as rnd:
                    wl.traced_round(tr)
                inside = [s for s in tr.spans if rnd["start"] <= s["start"]
                          and s["end"] <= rnd["end"] and s is not rnd]
                rounds.append(tracing.round_metrics(inside, rnd["id"], wl.op_stages))
                if time.perf_counter() >= deadline:
                    break
            wl.finish()
            layer = tracing.median_metrics(rounds)
            layer["engine.max_rel_error"] = wl.samples.max_rel_error
            tr.write(ROOT / ".perfbench" / "traces" /
                     f"{args.workload}-{args.seed}.jsonl")
            metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                       for k, v in sorted(layer.items())}
        else:
            wl.measure(deadline)
            wl.finish()
            s = wl.samples
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "op_ref_ms": {"value": wl.cal.scaled_ms(), "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    s = wl.samples
    for err in s.errors[:10]:
        print(f"MISMATCH: {err}")
    info = dict(wl.info(), ops=len(s.durations), max_rel_error=s.max_rel_error,
                op_ms=statistics.median(s.durations) * 1000.0 if s.durations else None,
                cal_ms=wl.cal.ms if wl.cal.samples else None,
                setup_reps_s=[round(p, 4) for p in prep], imports_s=imports_s)
    print(f"# {args.workload} seed={args.seed} " + json.dumps(info))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not s.errors, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
