#!/usr/bin/env python3
"""Build the MonSTer pipeline benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <live_ingest|fleet_history|dashboard_live> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build under the current
directory); build output goes to stderr. The benchmark binary then
replaces this process, so its last stdout line is the result object.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
