#!/usr/bin/env python3
"""Build sbd_bench from this checkout and run one workload.

    python3 sbd_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds into .bench_build/ at the checkout
root; later runs rebuild only what changed. The benchmark's own report
is printed first. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, where metrics
holds the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Without the SBD sources next to
sbd_bench/ the script exits non-zero without printing a result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "sbd_bench")
# Every run must end within 180 s; the build is not counted against it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"sbd_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no SBD sources in {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "sbd_bench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so that a timeout also ends the set-up
    # processes it spawns.
    proc = subprocess.Popen(cmd, cwd=BUILD_DIR, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"no result from sbd_bench (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"sbd_bench reported {m['name']} as {got}, expected unit {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
