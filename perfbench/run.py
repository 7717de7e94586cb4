#!/usr/bin/env python3
"""Build and run the simnet end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig6-ramp --seed 1 --seconds 25 --trace 0

Builds `perfbench/` (a Cargo package of its own that depends on the
simulator crates by path) in release mode, then runs it with the given
arguments. Cargo's output goes to standard error; the benchmark's output,
ending in one JSON result line, goes to standard output. Exits non-zero
without a result if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
