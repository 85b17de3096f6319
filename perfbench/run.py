#!/usr/bin/env python3
"""Build and run the holtwlan repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake project that compiles the library from ../src) in
Release into .bench_build/; later calls rebuild incrementally. The
benchmark binary prints a header, deterministic work counts and other
informational JSON lines, then one result line. This wrapper checks the
result's metric names and units against BENCHMARK.json, reports every
per-layer metric of a traced run (a layer the workload never enters
reads 0 and is listed in a "not_exercised" line), and prints the result
as the last line of stdout.

--selftest runs all three workloads at short size, untraced and traced,
and fails unless every output check passes and every metric is present.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("phy-link", "city-shards", "city-border")
RUN_TIMEOUT_S = 175

_child = None


def _terminate(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout=None, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        raise
    finally:
        code = _child.wait()
        _child = None
    return code, out


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as logf:
        for step in steps:
            code, _ = run_child(step, stdout=logf, stderr=subprocess.STDOUT)
            if code != 0:
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log("build failed (%s); full log in %s" % (" ".join(step[:2]), log_path))
                return False
    return True


def revision():
    """Git commit when available, plus a digest of the library sources."""
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    commit = "no-git"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "%s/src-%s" % (commit, digest.hexdigest()[:16])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete_result(result, spec, trace):
    """Checks the metric set against BENCHMARK.json; fills unexercised
    per-layer metrics with 0. Returns (result, not_exercised) or raises."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            raise ValueError("metric %s is not declared in BENCHMARK.json" % name)
        if m["unit"] != units[name]:
            raise ValueError("metric %s reports unit %s, BENCHMARK.json says %s"
                             % (name, m["unit"], units[name]))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise ValueError("end-to-end metrics missing: %s" % ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    result["metrics"] = {name: metrics[name] for name in units}
    return result, missing


def run_workload(workload, seed, seconds, trace, size="full", echo=True):
    """Runs one workload; returns the completed result dict or None."""
    spec = load_spec()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size, "--rev", revision()]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%s-seed%s.jsonl" % (workload, size, seed))]
    try:
        code, out = run_child(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = out.splitlines()
    if code != 0 or not lines:
        if echo:
            sys.stdout.write(out)
        log("%s exited with code %d" % (workload, code))
        return None
    try:
        result = json.loads(lines[-1])
        result, missing = complete_result(result, spec, trace)
    except (ValueError, KeyError) as e:
        log("%s: bad result line: %s" % (workload, e))
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
        if missing:
            print(json.dumps({"not_exercised": missing}))
        print(json.dumps(result), flush=True)
    return result


def selftest():
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 11, 1, trace, size="short", echo=False)
            good = (result is not None and result["correct"] is True
                    and result["failed"] == 0 and result["attempted"] >= 1)
            ok = ok and good
            print("%-12s trace=%d short: %s" % (workload, trace, "ok" if good else "FAILED"),
                  flush=True)
    return 0 if ok else 1


def main():
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--size", choices=("full", "short"), default="full")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size)
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
