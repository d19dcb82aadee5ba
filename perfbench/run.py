#!/usr/bin/env python3
"""Open-loop end-to-end benchmark of the live BATE controller.

Builds perfbench/ (which compiles the repository's src/ into the benchmark
binary) and runs one workload:

    python3 perfbench/run.py --workload paper_b4 --seed 3 --seconds 25 --trace 0

The last line of standard output is the benchmark's JSON result. --trace 1
reports the per-layer metrics instead of the end-to-end ones and writes a
Chrome trace next to the build.

Steadiness mode runs every workload (or --workload) N times per set with
distinct seeds and prints, per end-to-end metric, the median, the quartiles
and the spread against the bound recorded in BENCHMARK.json; with --sets 2
it also compares the second set's median with the first's:

    python3 perfbench/run.py --steady 10 --sets 2

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default .bench_build).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--chrome", os.path.join(
            build_dir(), "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s seed %d timed out\n" % (workload, seed))
        return 124, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def steady(binary, spec, workloads, runs, sets, seconds):
    """Steadiness mode; returns the process exit code."""
    ok = True
    for w in workloads:
        medians = []
        for s in range(sets):
            values = {}
            for i in range(runs):
                seed = 1 + s * runs + i
                code, res = run_once(binary, w, seed, seconds, 0, False)
                if code != 0 or res is None or not res["correct"]:
                    print("%s seed %d: FAILED (exit %d)" % (w, seed, code))
                    ok = False
                    continue
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print("\n%s, set %d (%d runs, seeds %d-%d)" %
                  (w, s + 1, runs, 1 + s * runs, (s + 1) * runs))
            print("  %-24s %6s %12s %12s %12s %8s %6s" %
                  ("metric", "unit", "q1", "median", "q3", "spread", "bound"))
            meds = {}
            for m in spec["end_to_end"]:
                v = values.get(m["name"], [])
                if len(v) < 2:
                    continue
                q1, med, q3, sp = spread(v)
                meds[m["name"]] = med
                flag = ""
                if sp > m["bound"]:
                    flag = "  OVER"
                    ok = False
                elif sp > m["bound"] / 3:
                    flag = "  >1/3"
                print("  %-24s %6s %12.5g %12.5g %12.5g %8.4f %6.2f%s" %
                      (m["name"], m["unit"], q1, med, q3, sp, m["bound"], flag))
            medians.append(meds)
        if len(medians) == 2:
            print("\n%s, set 2 vs set 1 medians" % w)
            for m in spec["end_to_end"]:
                a = medians[0].get(m["name"])
                b = medians[1].get(m["name"])
                if a is None or b is None or a == 0:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  WORSE" if worse > m["bound"] else ""
                if flag:
                    ok = False
                print("  %-24s %12.5g %12.5g %+8.4f %6.2f%s" %
                      (m["name"], a, b, worse, m["bound"], flag))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="runs per set in steadiness mode")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (have %s)" %
                         (args.workload, ", ".join(names)))
    binary = build()
    if args.steady:
        workloads = [args.workload] if args.workload else names
        return steady(binary, spec, workloads, args.steady, args.sets,
                      seconds)
    if args.workload is None:
        raise SystemExit("perfbench: --workload is required")
    code, _ = run_once(binary, args.workload, args.seed, seconds, args.trace,
                       True)
    return code


if __name__ == "__main__":
    sys.exit(main())
