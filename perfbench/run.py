#!/usr/bin/env python3
"""Builds `kissc` and the benchmark binary, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload race_sweep|prop_sweep|serve_mix \
        --seed <n> --seconds <s> --trace 0|1

Build output goes to stderr; the benchmark's metric lines and its final
JSON result line go to stdout. Artifacts land in `$CARGO_TARGET_DIR`
(default `.bench_build`); working files in `.bench_work`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: needs the checker's sources (Cargo.toml, crates/) "
              "at the root of the checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "kiss-cli", "--bin", "kissc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "kbench"), *sys.argv[1:],
           "--kissc", os.path.join(release, "kissc")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
