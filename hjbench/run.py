"""hjlab benchmark: fixed lists of documented CLI commands, timed end to end.

    python3 hjbench/run.py --workload hj_march --seed 1 --seconds 25 --trace 0

Run from the repository root.  One run, in one process with one client:

1. set-up, three times, each in a fresh process: import hjlab and generate
   the workload's input files (`setup_s` is the median);
2. passes through `hjlab.cli.main(argv)`, each command starting after the
   previous one returns, until `--seconds` have elapsed (`pass_s` is the
   median pass).  Every command's outputs are checked after its pass.
   `peak_rss_mb` is the process's high-water RSS after its first pass: the
   process keeps the heap of freed LU factorizations, so RSS after more
   passes would depend on the pass count.

With `--trace 1` traced and untraced passes alternate (at least two traced),
and the traced ones give the per-layer metrics (see hjbench/spans.py).  BLAS
and OpenMP are pinned to one thread.  Human-readable lines go first; the last
line of standard output is the JSON result.  Work files go to .hjbench_work/
at the root.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["hj_march", "seminorm_scan", "dual_budget"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_lab():
    """Import hjlab from this checkout's src/, and the benchmark modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hjlab

    if Path(hjlab.__file__).resolve().parent != src / "hjlab":
        raise ImportError(f"hjlab imported from {hjlab.__file__}, not from {src}")
    import workloads

    return workloads


def work_dir(workload) -> Path:
    return ROOT / ".hjbench_work" / workload


def run_pass(ops):
    """One closed-loop pass; returns (wall seconds per command, exit code per command)."""
    from hjlab.cli import main

    rcs, times = [], []
    for argv, _ in ops:
        t0 = time.perf_counter()
        try:
            rcs.append(main(argv))
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            rcs.append(-1)
        times.append(time.perf_counter() - t0)
    return times, rcs


def traced_pass(tracer, ops):
    """run_pass with the layer wrappers installed; returns (root span, times, exit codes)."""
    tracer.install()
    root = tracer.begin_pass()
    try:
        dt, rcs = run_pass(ops)
    finally:
        tracer.end_pass(root)
        tracer.uninstall()
    return root, dt, rcs


def check_pass(ops, rcs):
    """Run each succeeded command's output check; returns (ratios, failed ops, check failures)."""
    ratios, failed, bad_checks = [], 0, 0
    for (argv, check), rc in zip(ops, rcs):
        if rc != 0:
            failed += 1
            continue
        try:
            got = check()
        except Exception:
            traceback.print_exc()
            got = [(argv[0], math.inf)]
        ratios += got
        if any(not r <= 1.0 for _, r in got):
            print(f"check failed: hjlab {' '.join(argv)}: {got}", file=sys.stderr)
            failed += 1
            bad_checks += 1
    return ratios, failed, bad_checks


# -- set-up processes -----------------------------------------------------------------


def setup_main(args):
    """Set-up in this (fresh) process; prints its seconds, import included."""
    t0 = time.perf_counter()
    wl = import_lab()
    os.chdir(work_dir(args.workload))
    wl.WORKLOADS[args.workload][0](args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def timed_setup(args):
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- main run -------------------------------------------------------------------------


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main_run(args):
    wl = import_lab()
    wd = work_dir(args.workload)
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    setup_s = [timed_setup(args) for _ in range(SETUPS)]

    os.chdir(wd)
    _, commands, seed_sets = wl.WORKLOADS[args.workload]
    ops = commands(args.seed)
    if args.trace:
        from spans import COUNTERS, PER_LAYER, Tracer

        tracer = Tracer()
    plain, traced, roots = [], [], []
    ratios, failed, bad_checks, attempted = [], 0, 0, 0
    t_start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) <= len(plain)
        if use_trace:
            root, dt, rcs = traced_pass(tracer, ops)
            traced.append(dt)
            roots.append(root)
        else:
            dt, rcs = run_pass(ops)
            plain.append(dt)
        if attempted == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += len(ops)
        r, f, b = check_pass(ops, rcs)
        ratios, failed, bad_checks = ratios + r, failed + f, bad_checks + b
        enough = len(traced) >= 2 if args.trace else True
        if enough and time.perf_counter() - t_start >= args.seconds:
            break

    correct = bad_checks == 0
    err_ratio = max((r for _, r in ratios), default=0.0)
    worst = max(ratios, key=lambda nr: nr[1])[0] if ratios else "-"
    passes = [sum(p) for p in plain]
    q1, q3 = quartiles(passes)
    print(f"workload {args.workload}: seed {args.seed} sets {seed_sets}")
    print(f"  setup_s      {statistics.median(setup_s):.4f} s   (median of {SETUPS} set-ups)")
    print(f"  pass_s       {statistics.median(passes):.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}; "
          f"{len(passes)} untraced passes of {len(ops)} commands)")
    print("  passes (s)   " + " ".join(f"{x:.3f}" for x in passes))
    for i, (argv, _) in enumerate(ops):
        print(f"    {statistics.median(p[i] for p in plain):8.4f} s  hjlab {' '.join(argv)}")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB  (after the first pass)")
    print(f"  failed_frac  {failed / attempted:.4f}     ({failed} of {attempted} operations)")
    print(f"  err_ratio    {err_ratio:.4g}     (largest deviation / tolerance: {worst})")

    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        per_pass = [tracer.metrics(root) for root in roots]
        for m in per_pass:
            if abs(m["self_time_sum"] - m["trace.pass_s"]) > 1e-6 * m["trace.pass_s"]:
                print("self times do not add up to the traced pass", file=sys.stderr)
                correct = False
        if any(m[c] != per_pass[0][c] for m in per_pass for c in COUNTERS):
            print("counters differ between traced passes", file=sys.stderr)
            correct = False
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                value = statistics.median(map(sum, traced)) / statistics.median(passes) - 1.0
            elif name in COUNTERS:
                value = per_pass[0][name]
            else:
                value = statistics.median(m[name] for m in per_pass)
            metrics[name] = {"value": value, "unit": unit}
        for name, _, _ in PER_LAYER:
            print(f"  {name:38s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        tracer.dump("trace.json", {"workload": args.workload, "seed": args.seed, "pass_roots": roots})

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup:
            setup_main(args)
        else:
            main_run(args)
    except Exception:
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
