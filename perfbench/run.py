#!/usr/bin/env python3
"""Build the sleepwatch repo benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-mix --seed 7 --seconds 20 --trace 0

`--workload` is batch-35d, stream-35d, serve-mix or all. The benchmark
builds into $CARGO_TARGET_DIR (default .bench_build), keeps its scratch
files and span traces there, and prints one JSON result line last on
stdout; build output and progress go to stderr. The exit code is non-zero
when the build fails or any correctness check or output digest fails.
See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)  # no-op when already absolute
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--work", os.path.join(target, "perfbench-work")]
    return subprocess.run([exe] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
