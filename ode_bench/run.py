#!/usr/bin/env python3
"""Builds ode_bench from this checkout, then runs it with the given arguments.

    python3 ode_bench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the repository root (its output to
stderr, so stdout carries only the benchmark's); databases and traces are
kept under .bench_build/work/.  Exits non-zero without running anything if
the engine sources are missing.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator],
                       stdout=sys.stderr, check=True)
    # Four compile jobs: enough for the 4-core box, small in memory.
    subprocess.run(["cmake", "--build", BUILD, "--target", "ode_bench",
                    "--parallel", "4"], stdout=sys.stderr, check=True)
    # Write a fresh build's objects back now, not during the measurement.
    os.sync()


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ode_bench: no engine sources under " + ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("ode_bench: build failed: %s" % e, file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "ode_bench")
    work = os.path.join(BUILD, "work")
    sys.stdout.flush()
    os.execv(binary, [binary, "--work-dir", work, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
