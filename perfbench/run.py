#!/usr/bin/env python3
"""Builds the benchmark and `served` from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The build lands in `$CARGO_TARGET_DIR`
(default `perfbench/target`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "perfbench", "-p", "macgame-serve", "--bins",
        ],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left to
    # stop and its exit code is the command's.
    os.execv(bench, [bench, "--served", os.path.join(release, "served")] + sys.argv[1:])


if __name__ == "__main__":
    main()
