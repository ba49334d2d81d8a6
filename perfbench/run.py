#!/usr/bin/env python3
"""Builds the perf benchmark binary from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload short_many_class --seed 1 \
        --seconds 40 --trace 0

The library and the benchmark are built once into .bench_build/perfbench
(Release, the repository's default ISA); later runs only re-check the build.
Every argument is forwarded to mvg_perfbench, whose last stdout line is the
JSON result. Build output goes to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
SCRATCH_DIR = Path(".bench_build") / "scratch"
BINARY = BUILD_DIR / "mvg_perfbench"
RUN_TIMEOUT_S = 170


def build():
    source = Path(__file__).resolve().parent
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(source), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "mvg_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), *sys.argv[1:], "--scratch", str(SCRATCH_DIR)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
