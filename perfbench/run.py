#!/usr/bin/env python3
"""Benchmark of the coactive pipeline, end to end and per layer.

    python3 perfbench/run.py --workload piston-pair --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload (see workloads.py) from this process
until --seconds have passed, checks the last round's outputs, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s, the median over five
fresh processes of the time from process start to the first timed call;
wall_s and cpu_s, the median wall and CPU time of one round; and
peak_rss_mib. --trace 1 alternates untraced and traced rounds and reports
the per-layer self times and counts of the traced ones (see tracing.py).
The program runs with its default threading: nothing here sets a BLAS or
pool thread variable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_PROBES = 5
PROBE_TIMEOUT = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["piston-pair", "ensemble-cluster", "highdim-pair"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args) -> None:
    """Child process: import the program, make the inputs, print the clock.

    time.perf_counter reads CLOCK_MONOTONIC, which parent and child share,
    so the parent turns this reading into a start-to-ready time."""
    import coactive  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        WORKLOADS[args.workload].setup(args.seed, tmp)
        ready = time.perf_counter()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(repr(ready))


def measure_setup(args) -> float:
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise SystemExit(f"set-up probe failed with exit code {res.returncode}")
        times.append(float(res.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def run_rounds(args, wl, state, workdir, tracer):
    """Whole rounds until --seconds have passed; the last round's outputs
    are kept for the checks. Returns (rounds, output, failure)."""
    from tracing import BENCH

    rounds = []  # dicts: wall, cpu, traced, digest, layers, counts
    out = None
    # one path for every round: the CLI's artifacts embed a hash of its
    # arguments, output paths included
    rdir = os.path.join(workdir, "round")
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        shutil.rmtree(rdir, ignore_errors=True)
        os.makedirs(rdir)
        root = None
        if traced:
            tracer.reset()
            tracer.install()
            root = tracer.open(BENCH)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.round(state, rdir, tracer if traced else None)
        except Exception:  # a failed operation is reported, not fatal
            return rounds, None, traceback.format_exc()
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.close(root)
                tracer.uninstall()
        r = {"wall": w1 - w0, "cpu": c1 - c0, "traced": traced, "digest": wl.digest(out)}
        if traced:
            r["wall"] = root.end - root.start
            r["layers"] = tracer.self_times()
            r["counts"] = dict(tracer.counts)
        rounds.append(r)
        i += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or i >= 2):
            return rounds, out, None


def trace_metrics(rounds) -> dict:
    from tracing import COUNTS, SELF_TIMES

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    m = {name: (mean([r["layers"][name] for r in traced]), "s") for name in SELF_TIMES}
    for name in COUNTS:
        m[name] = (mean([r["counts"].get(name, 0) for r in traced]), "count")
    m["cli.bytes_written"] = (m["cli.bytes_written"][0], "B")
    m["trace.wall_s"] = (mean([r["wall"] for r in traced]), "s")
    m["trace.overhead_s"] = (
        statistics.median([r["wall"] for r in traced]) - statistics.median([r["wall"] for r in plain]),
        "s",
    )
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup_s = measure_setup(args)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs)
        state = wl.setup(args.seed, inputs)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        rounds, out, failure = run_rounds(args, wl, state, workdir, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = failure is None
        if failure is not None:
            sys.stderr.write(failure)
        else:
            for name, ok, detail in wl.check(state, out):
                print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
                correct = correct and ok
            digests = {r["digest"] for r in rounds}
            print(f"check {'PASS' if len(digests) == 1 else 'FAIL'}: "
                  f"identical outputs in all {len(rounds)} rounds")
            correct = correct and len(digests) == 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = (len(rounds) + (failure is not None)) * wl.ops_per_round
    failed = wl.ops_per_round if failure is not None else 0
    if args.trace:
        metrics = trace_metrics(rounds) if failure is None else {}
    else:
        walls = [r["wall"] for r in rounds] or [float("nan")]
        cpus = [r["cpu"] for r in rounds] or [float("nan")]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, round wall times (s): "
          + " ".join(f"{r['wall']:.3f}{'t' if r['traced'] else ''}" for r in rounds))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
