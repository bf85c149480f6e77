#!/usr/bin/env python3
"""Build and run the gMark pipeline benchmark.

    python3 perfbench/run.py --workload generate|relational|selectivity \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. The
driver binary runs one workload in one process and prints a JSON result
line; with --trace 1 this script also reads the Chrome trace the driver
wrote and adds the share of the pass wall time that the layer spans
cover. The last line of standard output is the
result object; the exit code is non-zero when any check failed.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("generate", "relational", "selectivity")
MIN_SPAN_COVERAGE = 0.9
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "graph", "graph.h")):
        raise RuntimeError("gMark sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pipeline_bench")


def pass_coverage(trace_path):
    """Share of the traced passes' wall time that the spans nested in
    them cover: 1 - (bench.pass self time / bench.pass duration). Self
    time is a span's duration minus the part its child spans on the
    same thread cover. Spans on one thread nest properly (RAII), so a
    stack sweep in (start, -duration) order finds each span's parent."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    pass_us = pass_self_us = 0.0
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if e["name"] == "bench.pass" and not stack:
                pass_us += e["dur"]
                pass_self_us += e["dur"]
            elif len(stack) == 1 and stack[0]["name"] == "bench.pass":
                pass_self_us -= e["dur"]
            stack.append(e)
    return 1.0 - pass_self_us / pass_us if pass_us else 0.0


def add_trace_metrics(result, trace_path):
    coverage = pass_coverage(trace_path)
    result["metrics"]["obs.span_coverage_frac"] = {"value": coverage,
                                                   "unit": "frac"}
    if coverage < MIN_SPAN_COVERAGE:
        log("CHECK FAILED: layer spans cover %.3f of the traced pass wall "
            "time (< %.2f)" % (coverage, MIN_SPAN_COVERAGE))
        result["correct"] = False


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        log("build failed: %s" % err)
        return 1

    trace_path = os.path.join(build_dir, "trace_%s_%d.json" % (args.workload,
                                                               args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out", trace_path]
    log("running: %s" % shlex.join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("driver printed no result (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if args.trace == "1" and proc.returncode == 0:
        add_trace_metrics(result, trace_path)
    # The full command line and seed travel with every result.
    print("command: %s" % shlex.join(
        [os.path.basename(sys.executable)] + sys.argv))
    print("seed: %d" % args.seed)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
