#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root. The first call configures and builds the
cyberdissect library and the perfbench program (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild incrementally. Each workload runs in its own
process, so its peak RSS is its own. The program's stdout is passed through;
its last line is the JSON result. With --trace 1 the spans of the last
traced call go to <build>/spans-<workload>.tsv.

--test builds the benchmark's own tests and runs them with ctest.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("aramco_wipe", "outbreak_sharded", "cnc_storm", "attribution_pile")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr, keeping stdout for results."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build(target, tests):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not here; run from a full checkout")
    out = build_dir()
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) or tests:
        run_quiet(configure, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs()],
              BUILD_TIMEOUT_S)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        out = build("perfbench_tests", tests=True)
        result = subprocess.run(["ctest", "--test-dir", out, "--output-on-failure"],
                                cwd=ROOT, check=False)
        sys.exit(result.returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build("perfbench", tests=False)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out, f"spans-{args.workload}.tsv")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        fail(f"{args.workload} failed with exit code {result.returncode}")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
