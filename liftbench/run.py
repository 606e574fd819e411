#!/usr/bin/env python3
"""Builds the lifter benchmark from source and runs one workload.

Usage, from the repository root:

    python3 liftbench/run.py --workload suite_seq --seed 1 --seconds 20 --trace 0

It builds the workspace's `lift_server` and `lift_router` and the
benchmark package (`liftbench/Cargo.toml`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark with the remaining
arguments. Build output goes to standard error; the benchmark's result
object is the last line of standard output. See liftbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "gtl_serve", "--bin", "lift_server", "--bin", "lift_router"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("liftbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    work = os.path.join(target, "liftbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(release, "gtl_liftbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "lift_server"),
           "--router-bin", os.path.join(release, "lift_router"),
           "--work-dir", work]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
