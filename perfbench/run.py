#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload paper99|gen-scale|serve-repeat \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the first run configures and
builds (about a minute on 4 cores), later runs only check that the build is
current. The last line on stdout is the run's JSON result; build output goes
to stderr. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper99", "gen-scale", "serve-repeat")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds within 1..600")
    return args


def build(root, build_dir):
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 1
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
