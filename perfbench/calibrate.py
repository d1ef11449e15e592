#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

Each run is one workload in its own fresh process (perfbench/run.sh).
Runs alternate between workloads, seed by seed, and the workload order
rotates from seed to seed, so slow drift of the machine spreads over all
workloads instead of landing on one. For every workload and end-to-end
metric the script prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), with op counts
and failures out of attempts.

With --write it also regenerates BENCHMARK.json: every bound is three
times the largest spread seen for that metric, at least --min-bound and
at most 0.25; setup_s always gets 0.25, the largest bound. The runs
behind the bounds are written to perfbench/calibration.json.

Run from the repository root:

    python3 perfbench/calibrate.py --runs 10 --seconds 15 --write
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = [
    ("fig5", "Figure 5 campaign: fast-path, decode-to-dense and 2:4 compute-direct storage trials"),
    ("xbar", "crossbar compute-in-memory campaign: analog tiles, ADCs and online detect/remap, no storage decode"),
    ("serve", "HTTP evaluation server: decoding, admission, queueing and coalescing over the ares trial path"),
    ("explore", "Table 4 design-space exploration on LeNet5: quant, core and nvsim, no inference"),
]

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# The seed recorded for later claims; calibration never runs it.
HELD_OUT_SEED = 9001
MAX_BOUND = 0.25


def run_one(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--seconds", type=int, default=15, help="measured seconds per run")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w for w, _ in WORKLOADS))
    ap.add_argument("--min-bound", type=float, default=0.10)
    ap.add_argument("--write", action="store_true", help="regenerate BENCHMARK.json")
    args = ap.parse_args()

    names = args.workloads.split(",")
    seeds = [s for s in range(args.first_seed, args.first_seed + args.runs + 1) if s != HELD_OUT_SEED][: args.runs]
    results = {w: [] for w in names}
    started = time.time()
    for i, seed in enumerate(seeds):
        order = names[i % len(names):] + names[: i % len(names)]
        for w in order:
            out = run_one(w, seed, args.seconds, 0)
            if not out["correct"]:
                raise SystemExit(f"{w} seed {seed}: output check failed ({out['failed']}/{out['attempted']} failed)")
            results[w].append({"seed": seed, **out})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(out["metrics"].items()))
            print(f"[{time.time() - started:6.0f}s] {w:8s} seed {seed:3d} ops {out['attempted']:6d} "
                  f"failed {out['failed']} {vals}", flush=True)

    worst = {m: 0.0 for m, _, _ in END_TO_END}
    print(f"\n{'workload':8s} {'metric':12s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for w in names:
        for m, unit, _ in END_TO_END:
            q1, q2, q3, s = spread([r["metrics"][m]["value"] for r in results[w]])
            worst[m] = max(worst[m], s)
            print(f"{w:8s} {m:12s} {unit:6s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {s:8.3f}")
        ops = [r["attempted"] for r in results[w]]
        print(f"{w:8s} ops per run {min(ops)}..{max(ops)}, failed {sum(r['failed'] for r in results[w])} of {sum(ops)}")

    if not args.write:
        return
    if set(names) != {w for w, _ in WORKLOADS}:
        raise SystemExit("--write needs every workload")
    per_layer = subprocess.run(["bash", "perfbench/run.sh", "--list-per-layer"], capture_output=True,
                               text=True, check=True).stdout.strip().splitlines()[-1]
    bench = {
        "command": ["bash", "perfbench/run.sh"],
        "paths": ["perfbench"],
        "run_seconds": args.seconds,
        "workloads": [{"name": w, "why": why} for w, why in WORKLOADS],
        "end_to_end": [],
        "per_layer": json.loads(per_layer),
    }
    for m, unit, better in END_TO_END:
        b = MAX_BOUND if m == "setup_s" else min(MAX_BOUND, max(args.min_bound, math.ceil(300 * worst[m]) / 100))
        bench["end_to_end"].append({"name": m, "unit": unit, "better": better, "bound": b})
    with open("BENCHMARK.json", "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    with open(os.path.join("perfbench", "calibration.json"), "w") as f:
        json.dump({
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "processor": cpu_model()},
            "seconds": args.seconds,
            "seeds": seeds,
            "held_out_seed": HELD_OUT_SEED,
            "worst_spread": worst,
            "runs": results,
        }, f, indent=1)
        f.write("\n")
    print("wrote BENCHMARK.json and perfbench/calibration.json")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    main()
