#!/usr/bin/env python3
"""Build and run the jsmm benchmark (perfbench), or report its steadiness.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

builds the benchmark (CMake, Release, into .bench_build/perfbench) from the
checkout's sources if needed, runs one workload and prints its result as the
last line of stdout: one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones and writes the spans to .bench_build/traces/<workload>.jsonl.

Steadiness report:

    python3 perfbench/run.py --steadiness 10 [--workload W ...] [--sets 2]

runs each workload N times (seeds 1..N, then N+1..2N for a second set, and
so on) and prints, per metric, the median, the quartiles and the spread
(quartile distance over median) against the bound in BENCHMARK.json, plus
the shift of each later set's median against the first.

Exit status: 0 on success; 1 when the build, the run or a check fails (no
result line is printed then); 2 on a usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ["corpus", "gen-racy", "large", "search"]
RUN_TIMEOUT_S = 170

# The five pairings that moved 6-8% between two sets of runs of identical
# code when this benchmark was first proposed, and what stands for each now.
EARLIER_UNSTEADY = [
    ("gen-small", "setup_s", "gen-racy", "setup_s"),
    ("gen-small", "job_p99_ms", "gen-racy", "job_p99_ms"),
    ("gen-large", "job_p99_ms", "large", "job_p99_ms"),
    ("search", "job_p99_ms", "search", "job_p99_ms"),
    ("corpus", "setup_s", "corpus", "setup_s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark. Returns the binary path."""
    for needed in ("src/service/LitmusService.h", "tools/LitmusParser.cpp"):
        if not (ROOT / needed).is_file():
            raise RuntimeError(f"no jsmm sources: {ROOT / needed} is missing")
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "3"],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload. Returns (result dict, report dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--fixtures", str(HERE / "fixtures")]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACES / f"{workload}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} seed {seed}: malformed result line")
    report = None
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-report "):
            report = json.loads(line[len("perfbench-report "):])
    return result, report


def spread_row(values):
    """Median, quartiles and quartile distance over median of a sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or WORKLOADS
    # figures[workload][set] -> list of report dicts
    figures = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.steadiness):
                seed = s * args.steadiness + i + 1
                result, report = run_once(binary, w, seed, seconds, 0)
                if not result["correct"]:
                    raise RuntimeError(f"{w} seed {seed}: incorrect result")
                figures[w][s].append(report)

    ok = True
    print(f"steadiness: {args.steadiness} runs x {args.sets} set(s), "
          f"{seconds} s each; spread = (q3 - q1) / median")
    print(f"{'workload':9} {'metric':12} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  {'shift':>7}  verdict")
    for w in workloads:
        names = [n for n in figures[w][0][0]
                 if n not in ("workload", "seed")]
        for name in names:
            sets = [[r[name] for r in runs if name in r]
                    for runs in figures[w]]
            if any(len(v) < 2 for v in sets):
                continue
            med, q1, q3, spread = spread_row(sets[0])
            bound = bounds.get(name)
            shifts = [statistics.median(v) / med - 1 if med else 0.0
                      for v in sets[1:]]
            shift = max(shifts, key=abs) if shifts else 0.0
            if bound is None:
                verdict = "reported, not gated"
            else:
                steady = name == "setup_s" or spread <= bound / 3
                agree = abs(shift) <= bound
                verdict = ("steady" if steady else "SPREAD") + (
                    "" if agree else " SHIFT")
                ok = ok and steady and agree
            print(f"{w:9} {name:12} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {bound if bound is not None else '-':>6}  "
                  f"{shift:+7.3f}  {verdict}")

    print("\nPairings that were unsteady when the benchmark was first "
          "proposed, and where each sits now:")
    for old_w, old_m, w, m in EARLIER_UNSTEADY:
        if w not in figures:
            continue
        values = [r[m] for r in figures[w][0] if m in r]
        if len(values) < 2:
            samples = [r["samples"] for r in figures[w][0]]
            print(f"  {old_w}/{old_m}: {w}/{m} not reported: runs have "
                  f"{min(samples)}-{max(samples)} samples, a tail needs "
                  f"ten beyond its rank")
            continue
        med, _, _, spread = spread_row(values)
        gate = ("gated" if m in bounds else
                "reported on stderr, not gated")
        print(f"  {old_w}/{old_m}: {w}/{m} median {med:.5g}, spread "
              f"{spread:.3f} ({gate})")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run each workload N times and report spreads")
    ap.add_argument("--sets", type=int, default=1,
                    help="sets of N runs in --steadiness mode")
    args = ap.parse_args()
    if args.steadiness is None and (not args.workload or
                                    len(args.workload) != 1 or
                                    not args.seconds):
        ap.error("one --workload and --seconds are required")
    if args.steadiness is not None and (args.steadiness < 2 or
                                        args.sets < 1):
        ap.error("--steadiness needs N >= 2 and --sets >= 1")
    try:
        binary = build()
        if args.steadiness is not None:
            return steadiness(binary, args)
        result, _ = run_once(binary, args.workload[0], args.seed,
                             args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
