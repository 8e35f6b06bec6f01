#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

Run one workload (from the root of a checkout):

  python3 e2ebench/run.py --workload plm_hnsw_serve --seed 1 --seconds 25 \
      --trace 0

It builds e2ebench/ (and the libraries it links) into .bench_build/e2ebench,
runs the benchmark binary, stores the full report with its context block
under .bench_build/e2ebench/results/, prints every metric with its unit
and the operations attempted and failed per phase, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. It exits 1 when a correctness gate fails.

Compare stored results (refused when their contexts differ):

  python3 e2ebench/run.py compare --base A.json ... --new B.json ...
  python3 e2ebench/run.py overhead RESULT.json ...   # traced vs untraced
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 170

# Workloads the binary runs that BENCHMARK.json does not gate (README.md,
# "Workloads").
UNGATED_WORKLOADS = ("ft_flat_serve",)

# Context fields that must match for two results to be compared. The code
# revision and the seed are recorded but may differ: comparing revisions
# over several seeds is the point.
COMPARABLE = ("nproc", "cpu_model", "build_type", "compiler", "kernel_tier",
              "workload", "seconds", "smoke")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree to build at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER") or "c++"
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.SubprocessError):
        return cxx


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """Identifies the measured code in checkouts that are not git trees."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def context(args, report):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "kernel_tier": report["kernel_tier"],
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "args": sys.argv[1:],
    }


def pick_metrics(spec, report, trace, smoke):
    """The metrics BENCHMARK.json names for this mode, checked against the
    report: each present, with its unit, and measured (a percentile the
    sample could not support is only tolerated in smoke runs)."""
    section, source = ("per_layer", "layers") if trace else \
        ("end_to_end", "e2e")
    measured = report.get(source, {})
    out = {}
    for m in spec[section]:
        got = measured.get(m["name"])
        if got is None:
            fail("report lacks metric " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if value is None:
            if not smoke:
                fail("metric %s: too few samples (%d) for its percentile" %
                     (m["name"], got["n"]))
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one setup: for the tests")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]] + list(
            UNGATED_WORKLOADS):
        fail("unknown workload " + args.workload)
    build()

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        cmd.append("--spans=" + os.path.join(
            BUILD, "spans", "%s-s%d.csv" % (args.workload, args.seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark exited with status %d" % proc.returncode)
    report = json.loads(lines[-1])
    metrics = pick_metrics(spec, report, args.trace, args.smoke)

    result = {"context": context(args, report), "report": report}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-s%d-t%d-%d.json" % (
            args.workload, args.seed, args.trace, time.time_ns())), "w") as f:
        json.dump(result, f, indent=1)

    print("context: " + json.dumps(result["context"]))
    for ph in report["phases"]:
        lat = ph["latency_ms"]
        print("phase %-10s attempted %6d failed %4d (rejected %d, expired "
              "%d, other %d)  latency p50 %s p99 %s ms (n=%d)" % (
                  ph["name"], ph["attempted"], ph["failed"], ph["rejected"],
                  ph["expired"], ph["other_failed"], lat["p50"], lat["p99"],
                  lat["n"]))
    mu = report["mutations"]
    print("phase %-10s attempted %6d failed %4d" % (
        mu["name"], mu["stats"]["attempted"], mu["stats"]["failed"]))
    for g in report["gates"]:
        print("gate %-24s %s  %s" % (g["name"], "ok" if g["ok"] else "FAILED",
                                     g["detail"]))
    source = report["layers" if args.trace else "e2e"]
    for name, m in metrics.items():
        print("metric %-30s %14.6g %-6s (n=%d)" % (
            name, m["value"], m["unit"], source[name]["n"]))
    for name, m in source.items():
        if name not in metrics:
            print("ungated %-29s %14s %-6s (n=%d)" % (
                name, "%.6g" % m["value"] if m["value"] is not None else
                "-", m["unit"], m["n"]))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


def load_results(paths):
    out = []
    for p in paths:
        for path in sorted(glob.glob(p)) or [p]:
            with open(path) as f:
                out.append(json.load(f))
    if not out:
        fail("no result files")
    return out


def check_comparable(results):
    first = results[0]["context"]
    for r in results[1:]:
        diff = [k for k in COMPARABLE if r["context"].get(k) != first.get(k)]
        if diff:
            fail("refusing to compare: contexts differ in " + ", ".join(diff))


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def compare(argv):
    p = argparse.ArgumentParser(description="Compare two sets of results.")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load_results(args.base), load_results(args.new)
    check_comparable(base + new)
    if len({r["context"]["trace"] for r in base + new}) > 1:
        fail("refusing to compare traced with untraced runs (see overhead)")
    spec = load_spec()
    regressions = 0
    for m in spec["end_to_end"]:
        b = [r["report"]["e2e"][m["name"]]["value"] for r in base]
        n = [r["report"]["e2e"][m["name"]]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
        flag = "REGRESSION" if worse > m["bound"] else ""
        regressions += bool(flag)
        print("%-18s base %12.6g (spread %.3f)  new %12.6g (spread %.3f)  "
              "worse by %+.3f (bound %.2f) %s" % (
                  m["name"], mb, spread(b), mn, spread(n), worse, m["bound"],
                  flag))
    return 1 if regressions else 0


def overhead(argv):
    p = argparse.ArgumentParser(
        description="Tracing overhead: traced minus untraced medians of the "
                    "end-to-end metrics, per workload.")
    p.add_argument("results", nargs="+")
    args = p.parse_args(argv)
    results = load_results(args.results)
    check_comparable(results)
    groups = {0: [], 1: []}
    for r in results:
        groups[int(r["context"]["trace"])].append(r)
    if not groups[0] or not groups[1]:
        fail("need traced and untraced results of one workload")
    for name in groups[0][0]["report"]["e2e"]:
        off = statistics.median(
            [r["report"]["e2e"][name]["value"] for r in groups[0]])
        on = statistics.median(
            [r["report"]["e2e"][name]["value"] for r in groups[1]])
        print("%-18s untraced %12.6g  traced %12.6g  overhead %+12.6g" % (
            name, off, on, on - off))
    return 0


def main():
    commands = {"compare": compare, "overhead": overhead}
    if len(sys.argv) > 1 and sys.argv[1] in commands:
        return commands[sys.argv[1]](sys.argv[2:])
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
