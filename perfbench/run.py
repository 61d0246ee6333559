#!/usr/bin/env python3
"""Builds and runs the spatial-join benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size bench|tiny]

Workloads: nycb-within, lion500-nearestd, wwf-within. The benchmark is
built in release mode from perfbench/Cargo.toml into $CARGO_TARGET_DIR
(perfbench/target when unset); build output goes to stderr. The last
line of standard output is the result object; the exit code is 0 only
when every path run passed the correctness checks.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
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
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--git-sha", git_sha()]).returncode


if __name__ == "__main__":
    sys.exit(main())
