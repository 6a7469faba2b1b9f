#!/usr/bin/env python3
"""Build the engine and run one workload of the serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload job_adhoc|customer_adhoc|tpcds_templated \
        [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds servebench (perfbench/CMakeLists.txt)
in $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Build output goes to stderr, so the last line of stdout
is servebench's JSON result. Exits non-zero, printing no result, when the
engine's sources are not beside this directory or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "servebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["job_adhoc", "customer_adhoc",
                                 "tpcds_templated"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "server",
                                       "query_service.h")):
        sys.exit("perfbench: engine sources not found in " + ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
