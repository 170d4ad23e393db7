#!/usr/bin/env python3
"""Builds the retrace benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt into .bench_build/ (about a minute on 4 cores); later
calls only re-check the build. The traced run (--trace 1) writes its spans
to .bench_out/spans-<workload>-<seed>.json. The last line of stdout is the
benchmark's JSON result; build output goes to stderr. The exit code is
non-zero, and no result is printed, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "retrace_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.h")):
        sys.exit("perfbench: no retrace sources under %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True, stdout=sys.stderr,
                   cwd=ROOT)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
    sys.stdout.flush()
    result = subprocess.run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", args.trace,
                             "--spans", spans], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
