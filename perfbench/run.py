#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator libraries under src/ and tpred_perfbench in perfbench/ are
configured and built (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; an up-to-date build costs a second.  Build output
goes to stderr, so the JSON result stays the last line of
stdout.  Extra flags (--tiny, --record-reference) pass through to the
binary; see perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root, env):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "tpred_perfbench", "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "tpred_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and library temporaries stay inside the build tree.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(build_root, env)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--reference", os.path.join(HERE, "reference.tsv"),
               "--work-dir", os.path.join(build_root, "work")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command + passthrough, cwd=ROOT,
                            env=env).returncode)


if __name__ == "__main__":
    main()
