#!/usr/bin/env python3
"""Runs the benchmark over several seeds and collects the results.

    python3 perfbench/sweep.py --out .bench_build/results/a.jsonl \
        [--workloads seq_interleaved,live_paced] [--seeds 1-10] [--trace 0]

Seeds are the outer loop and workloads the inner one, so slow drift of the
host spreads over every workload alike. Each result is appended to --out as
one JSON line {"workload", "seed", "trace", "elapsed_s", "result"}; a run
that fails is recorded with "result": null and its exit code. Compare sets
with compare.py.
"""
import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            start = time.monotonic()
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            elapsed = time.monotonic() - start
            result = None
            if run.returncode == 0 and run.stdout.strip():
                result = json.loads(run.stdout.strip().splitlines()[-1])
            else:
                failures += 1
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "elapsed_s": round(elapsed, 3), "exit": run.returncode,
                      "result": result}
            with out.open("a") as sink:
                sink.write(json.dumps(record) + "\n")
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed={seed} {status} {elapsed:.1f}s",
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
