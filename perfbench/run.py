#!/usr/bin/env python3
"""Build and run the BVF reproduction benchmark.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the release `reproduce` and
`bvf_serve` binaries and the `perfbench` harness with cargo (offline, into
$CARGO_TARGET_DIR or `target`), then runs the harness with the same
arguments. The harness prints the run's report and, as its last stdout
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
A failed build or run exits non-zero without printing that object.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "bvf-sim", "--bin", "reproduce", "--bin", "bvf_serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bin_dir = os.path.join(target, "release")
    harness = os.path.join(bin_dir, "perfbench")
    cmd = [harness, *sys.argv[1:], "--bin-dir", bin_dir, "--root", root]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
