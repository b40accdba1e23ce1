"""devmimo benchmark harness.

Run from the repository root, with the package under ``src/``:

    python3 bench/run.py --workload dl_diversity --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload ul_rank --seed 0 --seconds 30 --trace 1
    python3 bench/run.py --workload all --seed 0 --seconds 30 --steadiness 5

``--trace 0`` runs iterations of one workload back to back for about
``--seconds`` seconds and reports the end-to-end metrics; iteration and
set-up times are given in seconds at a fixed reference speed, measured
with a reference kernel timed alongside them (speed.py), since the host's
speed drifts.  ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics.  ``--steadiness K`` runs K fresh-process
runs on the seed and K on the next seed and says, per workload and metric,
whether the medians agree within the bounds in ``BENCHMARK.json``.  The
last line of standard output is one JSON object; see bench/README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy loads; children inherit it
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("dl_diversity", "ul_rank", "calibrate_ftp", "loc_ladder")
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 600

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import devmimo, workloads
workloads.WORKLOADS[{name!r}]({seed}, {tiny})
t1 = time.perf_counter()
import speed
print(t1 - t0, speed.SpeedProbe().speed())
"""


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """HEAD commit read from .git in the checkout, None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, wl) -> dict:
    import numpy
    import scipy
    import speed
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration") or blas.get("name"),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "workload": wl.name, "seed": args.seed, "inputs": wl.inputs,
            "work_per_iteration": [wl.work, wl.work_unit],
            "reference_s": speed.REFERENCE_S,
            "tiny": args.tiny}


def setup_sample(args) -> tuple:
    """One fresh process importing devmimo and building the workload's plan
    and config, interpreter start excluded: (seconds, seconds at the
    reference speed, timed right after it in the same process)."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR),
                              name=args.workload, seed=args.seed,
                              tiny=args.tiny)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=RUN_TIMEOUT_S)
    seconds, speed = map(float, out.stdout.split()[-2:])
    return seconds, seconds * speed


def run_iterations(wl, seconds: float, tracer=None, probe=None,
                   between=None):
    """Closed loop, one client: iterations back to back until the next one
    would end after `seconds`.  With a tracer, odd iterations are traced;
    with a speed probe, each iteration runs under it.  `between()` is
    called after every iteration.

    Returns (walls {traced: [s]}, reference seconds of the probed
    iterations, attempted, failed, fingerprint of the first iteration).
    Walls under the probe leave the probe's own time out.
    """
    walls = {False: [], True: []}
    ref_s = []
    attempted = failed = 0
    first = None
    min_iters = 2 if tracer else 1
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        work_dir = tempfile.mkdtemp(prefix="iter-", dir=OUT_DIR)
        with probe or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                it = tracer.run(lambda: wl.run(work_dir)) if traced \
                    else wl.run(work_dir)
                problems = list(it.problems)
            except Exception as exc:    # a failed iteration is counted
                traceback.print_exc()
                it, problems = None, [f"{type(exc).__name__}: {exc}"]
            t1 = time.perf_counter()
        if probe is None:
            wall = t1 - t0
        else:
            wall, r = probe.reference_seconds(t0, t1)
            ref_s.append(r)
        shutil.rmtree(work_dir, ignore_errors=True)
        if it is not None:
            if first is None:
                first = it.fingerprint
            elif it.fingerprint != first:
                problems.append("outputs differ from the first iteration's")
        attempted += 1
        walls[traced].append(wall)
        if problems:
            failed += 1
            print(f"check failed (iteration {attempted}): "
                  + "; ".join(problems), file=sys.stderr)
        if between is not None:
            between()
        done = walls[False] + walls[True]
        elapsed = time.perf_counter() - t_start
        if attempted >= min_iters and \
                elapsed + statistics.median(done) > seconds:
            return walls, ref_s, attempted, failed, first


def print_result(metrics: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))


def run_workload(args) -> None:
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    print("manifest " + json.dumps(manifest(args, wl), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        walls, _, attempted, failed, fp = run_iterations(
            wl, args.seconds, tracer=tracer)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(str(path))
        print(f"spans {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
        metrics = tracing.layer_metrics(tracer, walls[True], walls[False])
    else:
        import speed
        setup = [setup_sample(args)]

        def between():                  # spread set-up samples over the run
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(args))

        probe = speed.SpeedProbe()
        walls, ref_s, attempted, failed, fp = run_iterations(
            wl, args.seconds, probe=probe, between=between)
        while len(setup) < SETUP_SAMPLES:
            between()
        wall_s = statistics.median(ref_s)
        metrics = {
            "wall_s": (wall_s, "s"),
            "work_per_s": (wl.work / wall_s, "1/s"),
            "setup_s": (statistics.median(r for _, r in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        print("iteration walls s at reference speed: "
              + " ".join(f"{r:.4f}" for r in ref_s))
        print("set-up samples s (at reference speed): " + " ".join(
            f"{t:.4f} ({r:.4f})" for t, r in setup))
    print("outputs sha256 " + json.dumps(fp, sort_keys=True))
    print("iteration walls s: untraced "
          + " ".join(f"{w:.4f}" for w in walls[False])
          + (" | traced " + " ".join(f"{w:.4f}" for w in walls[True])
             if args.trace else ""))
    print_result(metrics, attempted, failed)


def one_run(name: str, seed: int, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", "0"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=RUN_TIMEOUT_S)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        fail(f"{name} seed {seed}: {res['failed']} of {res['attempted']} "
             "iterations failed their checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    seeds = (args.seed, args.seed + 1)
    steady = True
    report = {}
    for name in names:
        sets = [[one_run(name, s, args) for _ in range(args.steadiness)]
                for s in seeds]
        report[name] = {}
        for metric, bound in bounds.items():
            vals = [[r[metric] for r in runs] for runs in sets]
            m1, m2 = (statistics.median(v) for v in vals)
            drift = abs(m2 - m1) / m1
            spreads = [spread(v) for v in vals]
            ok = drift <= bound and (metric == "setup_s"
                                     or max(spreads) <= bound)
            steady &= ok
            report[name][metric] = {"median": [m1, m2], "drift": drift,
                                    "spread": spreads, "bound": bound,
                                    "agree": ok}
            print(f"{name} {metric}: medians {m1:.6g} / {m2:.6g} "
                  f"(seeds {seeds[0]} / {seeds[1]}), drift {drift:.3f}, "
                  f"spreads {spreads[0]:.3f} / {spreads[1]:.3f}, "
                  f"bound {bound} -> {'agree' if ok else 'DISAGREE'}")
    print(json.dumps({"steady": steady, "runs_per_set": args.steadiness,
                      "seeds": list(seeds), "workloads": report}))
    return 0 if steady else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",),
                    help="workload to run ('all' only with --steadiness)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--steadiness", type=int, default=0, metavar="K",
                    help="compare K runs on --seed with K runs on --seed+1")
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few cells and users "
                         "(smoke test; the output checks may fail)")
    args = ap.parse_args()

    if not (SRC / "devmimo" / "__init__.py").is_file():
        fail(f"no devmimo package under {SRC}; run from a devmimo checkout")
    sys.path.insert(0, str(SRC))
    import devmimo
    if Path(devmimo.__file__).resolve().parent != SRC / "devmimo":
        fail(f"imported devmimo from {devmimo.__file__}, not from {SRC}")

    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        fail("--workload all needs --steadiness")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
