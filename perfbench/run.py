"""Benchmark driver: one seeded workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own src/ directory, never from an installed copy.  The last
line of standard output is the result object; the line before it is a
{"detail": ...} object with the sample counts, the tail percentile, the
host probe and the failures by kind.

--trace 0 measures the end-to-end metrics: the workload's fixed pass of
cases runs again and again, in the whole number of passes whose case time
is nearest to --seconds (at least MIN_PASSES), and each case's time is its
mean over the passes; set-up is timed in separate fresh interpreters, one
before each pass and the rest after the last.
--trace 1 runs a fixed number of passes with the per-layer tracer
installed, then the same passes untraced in a child process to measure the
tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WALL_CAP_S = 120.0
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170.0


def ref_loop_s():
    """Time of a fixed pure-Python integer loop: a probe of host speed,
    recorded next to the metrics and never used to rescale them."""
    start = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def tail(durations, pct):
    """Nearest-rank percentile (pct a whole number, so the rank is exact)
    and the number of samples beyond it."""
    ordered = sorted(durations)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--passes", type=int, default=0,
                   help="run exactly this many passes instead of --seconds")
    p.add_argument("--limit", type=int, default=0,
                   help="run only the first N cases of the pass")
    p.add_argument("--setup-samples", type=int, default=7,
                   help="fresh interpreters timed for setup_s")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the pass, then exit")
    p.add_argument("--plant-wrong", action="store_true",
                   help="check every case against a wrong expected answer")
    return p.parse_args(argv)


def child(args, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    start = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child {extra} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return elapsed, done.stdout


def enough_passes(measured, passes, seconds):
    """Stop at the whole number of passes nearest to `seconds` of case time:
    one more pass would overshoot by more than stopping now falls short."""
    return measured + measured / passes / 2 >= seconds


def measure(cases, passes, seconds, plant, tracer, between):
    """Run the pass until done; per case, the list of its times.

    The host's speed shifts by tens of percent for seconds to a minute at
    a time, so each case runs once per pass, in an order shuffled per pass
    (the same for every seed), and is reported at its mean over the
    passes: every case is averaged over the whole run rather than over
    the stretch it happened to fall in.  (The least of the passes spreads
    more from run to run: it follows the fastest stretch a run caught.)"""
    times = [[] for _ in cases]
    pass_s = []
    fails = Counter()
    errors = []
    wall = perf_counter()
    while True:
        between()
        order = list(range(len(cases)))
        random.Random(f"order:{len(pass_s)}").shuffle(order)
        if tracer is not None:
            tracer.on = True
        total = 0.0
        for i in order:
            kind, thunk = cases[i]
            start = perf_counter()
            try:
                ok = thunk(plant)
            except Exception:  # a case that raises is a failed case
                ok = False
                if len(errors) < 3:
                    errors.append(traceback.format_exc(limit=3))
            times[i].append(perf_counter() - start)
            total += times[i][-1]
            if not ok:
                fails[kind] += 1
        if tracer is not None:
            tracer.on = False
        pass_s.append(total)
        if passes:
            if len(pass_s) >= passes:
                break
        elif ((len(pass_s) >= MIN_PASSES
               and enough_passes(sum(pass_s), len(pass_s), seconds))
              or perf_counter() - wall > WALL_CAP_S):
            break
    for text in errors:
        sys.stderr.write(text)
    return times, pass_s, fails, perf_counter() - wall


# counters that must stay 0 on a workload, so that workload shows "no
# change" for the layer by construction
ISOLATION = {
    "classify": ["cyclo.mul_calls", "cyclo.lift_calls", "incidence.mul_calls",
                 "rowspan.add_calls", "rowspan.contains_calls"],
    "product-sweep": ["oracle.verify_grading.calls"],
}


def isolation_breaches(workload, metrics):
    return [name for name in ISOLATION.get(workload, ()) if metrics[name][0] != 0]


def run(args, workloads, tracing):
    wl_cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        if args.setup_only:
            wl_cls(args.seed, workdir).cases()
            return 0
        # set-up samples are spread over the run, so a slow stretch of the
        # host does not land on all of them
        setup = []

        def take_setup():
            if not args.trace and len(setup) < args.setup_samples:
                setup.append(child(args, "--setup-only")[0])

        wl = wl_cls(args.seed, workdir)
        cases = wl.cases()[:args.limit or None]
        host = [ref_loop_s()]
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install([workloads])
        passes = args.passes or (wl.trace_passes if args.trace else 0)
        times, pass_s, fails, wall = measure(
            cases, passes, args.seconds, args.plant_wrong, tracer, take_setup)
        host.append(ref_loop_s())
        for _ in range(args.setup_samples):
            take_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mean = [statistics.fmean(t) for t in times]
    by_kind = {}
    for (kind, _), t in zip(cases, mean):
        by_kind.setdefault(kind, []).append(t)
    attempted = len(cases) * len(pass_s)
    failed = sum(fails.values())
    measured = sum(pass_s)
    tail_s, beyond = tail(mean, wl.tail_pct)
    detail = {
        "workload": args.workload, "seed": args.seed, "passes": len(pass_s),
        "pass_s": pass_s, "cases_per_pass": len(cases),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failed_by_kind": dict(fails), "measured_s": measured, "wall_s": wall,
        "tail_pct": wl.tail_pct, "tail_beyond": beyond,
        "setup_samples_s": setup, "host_ref_loop_s": host,
        "kind_mean_ms": {k: 1000 * statistics.fmean(v) for k, v in sorted(by_kind.items())},
    }
    correct = failed == 0
    if args.trace:
        metrics = tracer.metrics()
        metrics["host.ref_loop_s"] = (statistics.mean(host), "s")
        _, out = child(args, "--trace", "0", "--passes", str(len(pass_s)),
                       "--limit", str(args.limit), "--setup-samples", "0")
        untraced = json.loads(out.strip().splitlines()[-2])["detail"]
        metrics["trace.overhead_frac"] = (measured / untraced["measured_s"] - 1, "frac")
        detail["untraced_measured_s"] = untraced["measured_s"]
        broken = isolation_breaches(args.workload, metrics)
        detail["isolation_breaches"] = broken
        correct = correct and not broken and untraced["failed"] == 0
    else:
        metrics = {
            "cases_per_s": (attempted / measured, "1/s"),
            "case_p50_ms": (statistics.median(mean) * 1000, "ms"),
            "case_tail_ms": (tail_s * 1000, "ms"),
            "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "incidence_gradings" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    return run(args, workloads, tracing)


if __name__ == "__main__":
    sys.exit(main())
