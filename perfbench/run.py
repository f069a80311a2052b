#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); the run's scratch files and span dumps go to
<target>/perfbench-work. The benchmark's own stdout passes through, so its
JSON result is the last line. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # One malloc arena: peak RSS then measures the program, not how glibc
    # happened to spread allocations over per-thread arenas.
    env["MALLOC_ARENA_MAX"] = "1"
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
