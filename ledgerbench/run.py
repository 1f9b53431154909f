#!/usr/bin/env python3
"""Builds and runs the ledger benchmark from the root of a checkout.

    python3 ledgerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the program and the benchmark with
CMake under .bench_build/ledgerbench (build output goes to stderr); later
runs only check that the build is up to date. All other arguments are passed
to the benchmark binary, whose last line of stdout is the JSON result. Exits
non-zero, without a result, when the program's sources are missing or the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledgerbench")
BINARY = os.path.join(BUILD, "ledgerbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("ledgerbench: no program sources under %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    if not build():
        sys.stderr.write("ledgerbench: build failed\n")
        return 1
    sys.stdout.flush()
    return subprocess.call([BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
