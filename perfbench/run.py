#!/usr/bin/env python3
"""Builds the daemon and the load generator from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs hit-weighted, hit-unit, miss-auto and race-exact in
turn. Run from the repository root. Both binaries go to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's own output goes to stderr. The last
line on stdout is the result object. See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hit-weighted", "hit-unit", "miss-auto", "race-exact"]


def main() -> int:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "service").is_dir():
        print("perfbench: the workspace sources are not next to perfbench/", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "bisched-bench", "--bin", "bisched_cli"],
        ["--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for build in builds:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *build],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = target / "release"
    command = [
        str(release / "bisched-perfbench"),
        "--cli",
        str(release / "bisched_cli"),
        "--state-dir",
        str(target / "perfbench"),
    ]
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is None or args[at : at + 1] != ["all"]:
        return subprocess.run(command + args, cwd=ROOT).returncode
    for workload in WORKLOADS:
        args[at] = workload
        code = subprocess.run(command + args, cwd=ROOT).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
