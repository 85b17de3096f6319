#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload city-border --seeds 1-10 [--seconds N]

Runs perfbench/run.py once per seed (untraced) and prints, per metric,
the median, the quartile spread (Q3 - Q1 over the median, quartiles from
statistics.quantiles(n=4)) and that spread against the metric's bound
in BENCHMARK.json. The benchmark counts as steady when every spread
except setup_s stays below a third of its bound. Raw results are kept
under .bench_build/spread/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    out_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)

    results = []
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            print("seed %d: exit code %d" % (seed, run.returncode))
            return 1
        result = json.loads(run.stdout.splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print("seed %-3d correct=%s %s" % (seed, result["correct"], values), flush=True)
    with open(os.path.join(out_dir, "%s.json" % args.workload), "w") as f:
        json.dump(results, f, indent=1)

    steady = all(r["correct"] for r in results)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        ok = name == "setup_s" or spread < metric["bound"] / 3
        steady = steady and ok
        print("%-14s median %-12.6g spread %.4f  bound %.2f  %s"
              % (name, med, spread, metric["bound"], "ok" if ok else "WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
