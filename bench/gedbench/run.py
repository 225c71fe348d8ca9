#!/usr/bin/env python3
"""Builds gedbench from the source checkout, then runs it.

    python3 bench/gedbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--data-dir DIR]

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build at the
root of the checkout; an up-to-date build is reused. Build output goes to
stderr, so gedbench's JSON lines are all that reaches stdout. WAL data and
traces go under <build dir>/gedbench-data unless --data-dir says otherwise.
A failed build exits nonzero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "gedbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "gedbench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"gedbench build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--data-dir" not in args:
        args += ["--data-dir", os.path.join(build_dir, "gedbench-data")]
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
