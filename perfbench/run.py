#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-reheat --seed 1 --seconds 20 --trace 0

Arguments are passed through to the benchmark binary (see README.md).
Builds go to $CARGO_TARGET_DIR, or .bench_build when it is unset. Cargo's
output goes to standard error, so the result stays the last line of
standard output.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    builds = [
        # The daemon, built from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "bfdn-service", "--bin", "bfdn-serve"],
        # The benchmark, a workspace of its own under perfbench/.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "bfdn-perfbench")
    serve = os.path.join(target, "release", "bfdn-serve")
    return subprocess.run([bench, *sys.argv[1:], "--serve-bin", serve], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
