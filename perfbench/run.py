#!/usr/bin/env python3
"""Builds and runs the StreamApprox repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark driver) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the result
object printed by the benchmark binary. With --trace 1 the spans of the
traced run are written to .bench_build/traces/.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "sa_perfbench"
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 165


def build():
    """Configures once, then builds incrementally. Raises on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the output checks catch a "
                             "corrupted reference")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    if args.selftest:
        command = [str(BINARY), "--selftest"]
    else:
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            traces = BUILD_ROOT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            command += ["--trace-file",
                        str(traces / f"{args.workload}-seed{args.seed}")]
    try:
        # run() kills and reaps the child if it overruns.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        print(f"run.py: benchmark exited with {result.returncode}",
              file=sys.stderr)
        return result.returncode
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
