#!/usr/bin/env python3
"""Build and run one workload of the CAMAL end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-gateway --seed 1 \
        --seconds 15 --trace 0

The benchmark is built from source (perfbench/CMakeLists.txt, which links
the repository's `camal_core`) into `$CARGO_TARGET_DIR/perfbench`, or
`.bench_build/perfbench` when the variable is unset. Engine files live
under `.bench_work/` in the repository root and are removed afterwards.
The last line of standard output is the run's JSON result, carrying the
end-to-end metrics of BENCHMARK.json (or with --trace 1 its per-layer
metrics) with their units; the exit code is non-zero when the build
fails, a correctness check fails, or an end-to-end metric is missing.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune-offline", "serve-gateway", "ingest-shift")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to perfbench/ in {ROOT}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, CCACHE_DIR=os.path.join(build_dir, "ccache"))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "camal_perfbench", "-j", jobs])
    # Concurrent runs in one checkout build one at a time.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "camal_perfbench")


def report(raw, trace):
    """Prints the result line for the binary's raw result; returns whether
    every end-to-end metric was measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = raw["values"]
    print("end-to-end: " + " ".join(
        f"{m['name']}={values[m['name']]:.6g}"
        for m in spec["end_to_end"] if m["name"] in values))
    metrics = {}
    complete = True
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            value = values[m["name"]]
        elif trace:
            value = 0.0  # a layer the workload bypasses did no work
        else:
            print(f"perfbench: {m['name']} was not measured", file=sys.stderr)
            complete = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return complete


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited {done.returncode} without a result")
    print("\n".join(lines[:-1]))
    complete = report(json.loads(lines[-1]), args.trace == 1)
    sys.exit(done.returncode if done.returncode != 0 else int(not complete))


if __name__ == "__main__":
    main()
