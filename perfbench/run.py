#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); scratch files (the daemon's journal) go to
`perfbench-scratch` inside it and are removed by the run. The last line
of standard output is the run's JSON result. A build failure exits
non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Longest one run may take once built: 180 s, less a margin.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH_DIR / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "qpdo-perfbench"
    scratch = target / "perfbench-scratch"
    # A session of its own, so a timeout can stop the benchmark together
    # with the daemon it may have started.
    run = subprocess.Popen(
        [str(binary), *sys.argv[1:], "--scratch", str(scratch)],
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
