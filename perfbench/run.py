#!/usr/bin/env python3
"""Repository benchmark of the QECOOL reproduction.

Builds perfbench/qecool_perfbench against this checkout's library sources
(CMake, Release) and runs one workload. The program prints a readable
report and, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload stream_sparse --seed 2021 \\
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Seed 2021 is the reference seed: its outcomes are compared with
perfbench/reference.txt. Any other seed checks only the invariants.
Workloads and metrics are documented in perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_sparse", "pool_qos", "mc_threshold")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "qecool_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "qecool_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "work",
                           f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(workdir, exist_ok=True)

    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--workdir={workdir}",
               f"--reference={os.path.join(HERE, 'reference.txt')}"]
    with subprocess.Popen(command) as child:
        try:
            code = child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
