#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring-large-n --seed 42 --seconds 25 --trace 0

Every argument is passed to `dtbench` (perfbench/src/main.cpp); see
perfbench/README.md. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, and build output goes to stderr, so the
JSON result of `dtbench` stays the last line of stdout. Exits non-zero
without a result when the simulator sources or the build are missing.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "dtbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dtbench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the simulator sources (src/) are not in this "
              "checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    try:
        exe = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    args = [exe, "--out-dir", out_dir,
            "--digests", os.path.join(HERE, "digests.txt")] + argv
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
