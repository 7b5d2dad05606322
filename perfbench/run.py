#!/usr/bin/env python3
"""End-to-end benchmark of the Bayonet library.

Builds the perfbench package (the library from src/ plus the
bayonet_perfbench program) and runs one workload in a single process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact_loadbalancing, translated_paper, smc_table1, sweep_small.
Build outputs and Chrome traces go to $CARGO_TARGET_DIR (default
.bench_build) below the repository root. The last line of standard output
is the JSON result; build output goes to standard error. Extra flags
(--reduced, --wrong-ref) are passed to the program; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def out_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def step(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(build_dir):
    """Configures once, then brings the program up to date; returns its
    path, or None when the build fails."""
    for need in ("src/CMakeLists.txt", "examples/programs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} is missing; run from a full checkout",
                  file=sys.stderr)
            return None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not step(["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "bayonet_perfbench"], BUILD_TIMEOUT_S):
        return None
    return os.path.join(build_dir, "bayonet_perfbench")


def main():
    base = out_base()
    exe = build(os.path.join(base, "perfbench"))
    if exe is None:
        return 2
    cmd = [exe, *sys.argv[1:], "--root", ROOT, "--out-dir", base]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
