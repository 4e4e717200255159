#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <log-bracha|log-ec|ba-faulty> \
        --seed <n> --seconds <s> --trace <0|1> [--units <k>] [--small]

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr so that the last
line of stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
