#!/usr/bin/env python3
"""Builds the fuzzer and the benchmark from source, then makes one run.

Run from the root of the repository:

    python3 perfbench/run.py --workload behav-boom --seed 1 --seconds 30 --trace 0

Every argument goes to the `perfbench` binary (see README.md). Builds go
to $CARGO_TARGET_DIR (default `.bench_build`), with cargo's output on
stderr, so the last line on stdout is the run's JSON result.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

# A run measures for --seconds plus a few seconds of warm-up and set-up;
# this only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates/core/Cargo.toml").is_file():
        fail("the fuzzer's sources are missing: run from the root of the repository", 2)

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    for build in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dejavuzz", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(build)}", 1)

    command = [str(target / "release" / "perfbench"), *sys.argv[1:]]
    # A process group of its own, so a hung run's pool workers die with it.
    run = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail(f"no result within {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
