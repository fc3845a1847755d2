#!/usr/bin/env python3
"""Repository benchmark: builds pga from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json (fleet-backlog, dag-large,
assembly; see perfbench/README.md for what each runs and why).
The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls only rebuild what changed.

Each call runs the workload in its own process, so its peak RSS is its
own. The program checks its outputs; any failed check makes the result
incorrect and the exit code 1. Standard output ends with two lines: a
report (host record, checks and the workload's named results, each with
its unit) and the result object, whose metrics are the end-to-end metrics
of BENCHMARK.json with --trace 0 and its per-layer metrics with --trace 1.
Layers a workload does not exercise read 0 in a traced run.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pga_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in f.read():
                # A build tree configured for another checkout: start over.
                subprocess.run(["cmake", "-E", "rm", "-rf", BUILD_DIR], check=True)
                os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(cache):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD_DIR, "configure.log"))
    jobs = str(len(os.sched_getaffinity(0)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "pga_perfbench"],
               os.path.join(BUILD_DIR, "build.log"))


def fixed_layout():
    """Turns off address-space randomization for the program about to exec.

    Its heap and stack layout then repeats from run to run; with it on, the
    sub-microsecond set-ups flip between two speeds from one process to the
    next. Best effort: where personality(2) is refused the run goes ahead
    randomized, and the report says so.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_workload(args):
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_out = os.path.join(TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if done.returncode != 0:
        fail("%s exited with code %d" % (args.workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no report" % args.workload)
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    started = time.time()
    build()
    report = run_workload(args)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report["layers"] if args.trace else report["end_to_end"]
    checks = list(report["checks"])
    checks.append({"name": "report is for the requested workload and seed",
                   "ok": report["workload"] == args.workload and report["seed"] == args.seed,
                   "detail": ""})
    host = report["host"]
    checks.append({"name": "workers within host cores",
                   "ok": 1 <= host["workers"] <= host["host_cores"], "detail": ""})
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    checks.append({"name": "every reported metric is declared in BENCHMARK.json",
                   "ok": not unknown, "detail": ", ".join(unknown)})

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            checks.append({"name": "end-to-end metric %s reported" % m["name"],
                           "ok": False, "detail": ""})
            continue
        value = got["value"] if got is not None else 0.0
        if got is not None and got["unit"] != m["unit"]:
            checks.append({"name": "unit of %s" % m["name"], "ok": False,
                           "detail": "%s != %s" % (got["unit"], m["unit"])})
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = all(c["ok"] for c in checks)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "passes": report["passes"], "digest": report["digest"],
        "pass_seconds": report["pass_seconds"],
        "setup_seconds": report["setup_seconds"],
        "elapsed_s": round(time.time() - started, 3),
        "checks": checks, "results": report["results"],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct and report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
