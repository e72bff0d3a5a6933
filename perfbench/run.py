#!/usr/bin/env python3
"""Builds and runs the middleware benchmark (see README.md).

    python3 perfbench/run.py --workload client_rtt --seed 1 --seconds 10 --trace 0

builds perfbench/ (and the middleware sources it compiles) into
$CARGO_TARGET_DIR/perfbench (default .bench_build), runs one workload
and passes its output through: the last stdout line is the result JSON.

    python3 perfbench/run.py --smoke
        Runs every workload for one second, untraced and traced, and
        checks that every metric BENCHMARK.json names is printed with
        its unit.
    python3 perfbench/run.py --predictions [--seconds S] [--seed N]
        Runs the traced run of every workload and checks the layer-share
        predictions README.md lists.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("client_rtt", "wide_domain", "durable_fanin")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configures once, then rebuilds (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("middleware sources not found under " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    state = os.path.join(build_dir(), "state")
    os.makedirs(state, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--state-dir", state, "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    return done.returncode, done.stdout.splitlines()


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(lines, trace):
    """Problems with a run's result line, as a list of strings."""
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run not correct: failed=%s" % result.get("failed"))
    metrics = result.get("metrics", {})
    for name, unit in expected_metrics(trace):
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s has unit %s, expected %s"
                            % (name, metrics[name].get("unit"), unit))
    return problems


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(binary, workload, 1, 1, trace)
            problems = check_result(lines, trace)
            if code != 0:
                problems.append("exit code %d" % code)
            print("smoke %-14s trace %d: %s" % (workload, trace,
                                                "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def shares(lines):
    for line in lines:
        if line.startswith("info shares "):
            words = line.split()
            return {words[i]: float(words[i + 1])
                    for i in range(2, len(words) - 1)
                    if re.fullmatch(r"[a-z_]+", words[i])
                    and re.fullmatch(r"-?[0-9.]+", words[i + 1])}
    return None


def predictions(binary, seed, seconds):
    share = {}
    for workload in WORKLOADS:
        code, lines = run(binary, workload, seed, seconds, 1)
        share[workload] = shares(lines)
        if code != 0 or share[workload] is None:
            print("predictions: traced %s run failed (exit %d)" % (workload, code))
            return 1
    checks = [
        ("clocks share: wide_domain > client_rtt",
         share["wide_domain"]["clocks"], share["client_rtt"]["clocks"]),
        ("store share: durable_fanin > client_rtt",
         share["durable_fanin"]["store"], share["client_rtt"]["store"]),
        ("net+gateway share: client_rtt > durable_fanin",
         share["client_rtt"]["net"] + share["client_rtt"]["gateway"],
         share["durable_fanin"]["net"] + share["durable_fanin"]["gateway"]),
    ]
    held = True
    for text, left, right in checks:
        verdict = "holds" if left > right else "FAILS"
        held = held and left > right
        print("prediction %-46s %s (%.4f vs %.4f)" % (text, verdict, left, right))
    return 0 if held else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--predictions", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.predictions or args.workload):
        parser.error("--workload, --smoke or --predictions is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.predictions:
        return predictions(binary, args.seed, args.seconds)
    code, lines = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    problems = check_result(lines, args.trace)
    for problem in problems:
        print("run.py: " + problem, file=sys.stderr)
    if code == 0 and problems:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
