#!/usr/bin/env python3
"""Sanity-checks the BENCH_*.json trajectory files the benches write.

The saved-benchmark harness (bench/bench_common.h: write_bench_json) gives
every file the same envelope; this checker keeps that format from silently
rotting — CI runs it over the artifacts of the bench-smoke job, so a bench
that stops writing runs, writes zero throughput, or drifts from the schema
fails the build instead of archiving garbage.

Usage: check_bench_json.py FILE [FILE...]
Exit code 0 when every file passes, 1 otherwise.
"""

import json
import sys


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def check_micro_exchange_run(path, index, run):
    """Routing-kernel ablation runs carry the ablation axes explicitly:
    which kernel ran, the run-length regime of the stream, the stratum
    count, and the headline records/s."""
    ok = True
    for key in ("kernel", "regime", "strata", "records_per_sec"):
        if key not in run:
            ok = fail(path, f"runs[{index}] missing key '{key}'")
    if not ok:
        return False
    if run["kernel"] not in ("bulk", "per_record"):
        ok = fail(path, f"runs[{index}].kernel = {run['kernel']!r} is not "
                        "'bulk' or 'per_record'")
    if not isinstance(run["regime"], str) or not run["regime"]:
        ok = fail(path, f"runs[{index}].regime is not a non-empty string")
    if not isinstance(run["strata"], int) or run["strata"] < 1:
        ok = fail(path, f"runs[{index}].strata is not a positive integer")
    rps = run["records_per_sec"]
    if not isinstance(rps, (int, float)) or rps <= 0:
        ok = fail(path, f"runs[{index}].records_per_sec = {rps!r} is not > 0")
    return ok


def check_micro_sketches_run(path, index, run):
    """Sketch-vs-sample ablation runs carry the ablation axes explicitly:
    which method answered (full-stream sketch or OASRS sample), which
    sketch kind the row ablates, the key universe ('strata'), the headline
    records/s, and the measured error against the exact stream answer.
    Count-Min sketch rows also carry Count-Min's own guarantee: the share
    of probed keys whose overcount exceeds eps*N ('overshoot_share') must
    not exceed the failure probability the sketch was sized for ('delta')."""
    ok = True
    for key in ("method", "sketch", "strata", "records_per_sec",
                "measured_error"):
        if key not in run:
            ok = fail(path, f"runs[{index}] missing key '{key}'")
    if not ok:
        return False
    if run["method"] not in ("sketch", "sample"):
        ok = fail(path, f"runs[{index}].method = {run['method']!r} is not "
                        "'sketch' or 'sample'")
    if run["sketch"] not in ("count_min", "hll", "kll"):
        ok = fail(path, f"runs[{index}].sketch = {run['sketch']!r} is not "
                        "'count_min', 'hll' or 'kll'")
    if not isinstance(run["strata"], int) or run["strata"] < 1:
        ok = fail(path, f"runs[{index}].strata is not a positive integer")
    rps = run["records_per_sec"]
    if not isinstance(rps, (int, float)) or rps <= 0:
        ok = fail(path, f"runs[{index}].records_per_sec = {rps!r} is not > 0")
    error = run["measured_error"]
    if not isinstance(error, (int, float)) or error < 0:
        ok = fail(path, f"runs[{index}].measured_error = {error!r} is not a "
                        "number >= 0")
    if run["method"] == "sketch" and run["sketch"] == "count_min":
        ok = check_count_min_guarantee(path, index, run) and ok
    return ok


def check_micro_samplers_run(path, index, run):
    """Sampling-kernel ablation runs name the kernel that ran, the offer
    path, the stream shape and the sampling fraction of their cell, and
    their throughput relative to the pinned Algorithm R row of the same
    cell and path ('ratio_vs_algorithm_r', exactly 1 on that row)."""
    ok = True
    for key in ("kernel", "path", "stream", "fraction",
                "ratio_vs_algorithm_r"):
        if key not in run:
            ok = fail(path, f"runs[{index}] missing key '{key}'")
    if not ok:
        return False
    if run["kernel"] not in ("algorithm_r", "adaptive"):
        ok = fail(path, f"runs[{index}].kernel = {run['kernel']!r} is not "
                        "'algorithm_r' or 'adaptive'")
    if run["path"] not in ("offer", "offer_run"):
        ok = fail(path, f"runs[{index}].path = {run['path']!r} is not "
                        "'offer' or 'offer_run'")
    if run["mode"] != f"{run['kernel']}_{run['path']}":
        ok = fail(path, f"runs[{index}].mode = {run['mode']!r} does not name "
                        "its kernel and path")
    if run["stream"] not in ("chunked", "interleaved"):
        ok = fail(path, f"runs[{index}].stream = {run['stream']!r} is not "
                        "'chunked' or 'interleaved'")
    fraction = run["fraction"]
    if not isinstance(fraction, (int, float)) or not 0 < fraction <= 1:
        ok = fail(path, f"runs[{index}].fraction = {fraction!r} is not in "
                        "(0, 1]")
    ratio = run["ratio_vs_algorithm_r"]
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        ok = fail(path, f"runs[{index}].ratio_vs_algorithm_r = {ratio!r} is "
                        "not > 0")
    elif run["kernel"] == "algorithm_r" and ratio != 1:
        ok = fail(path, f"runs[{index}] Algorithm R row has "
                        f"ratio_vs_algorithm_r = {ratio!r}, not 1")
    return ok


def check_count_min_guarantee(path, index, run):
    ok = True
    for key in ("overshoot_share", "delta"):
        if key not in run:
            ok = fail(path, f"runs[{index}] missing key '{key}'")
    if not ok:
        return False
    share, delta = run["overshoot_share"], run["delta"]
    if not isinstance(share, (int, float)) or not 0 <= share <= 1:
        return fail(path, f"runs[{index}].overshoot_share = {share!r} is "
                          "not in [0, 1]")
    if not isinstance(delta, (int, float)) or not 0 < delta < 1:
        return fail(path, f"runs[{index}].delta = {delta!r} is not in (0, 1)")
    if share > delta:
        return fail(path, f"runs[{index}] Count-Min overshoot share {share} "
                          f"exceeds delta {delta}")
    return True


# Benchmark-specific run validators, keyed by the 'benchmark' field. Every
# run still passes the universal envelope checks in check_run first.
RUN_CHECKS = {
    "micro_exchange": check_micro_exchange_run,
    "micro_samplers": check_micro_samplers_run,
    "micro_sketches": check_micro_sketches_run,
}


def check_run(path, index, run, benchmark=None):
    ok = True
    if not isinstance(run, dict):
        return fail(path, f"runs[{index}] is not an object")
    for key in ("mode", "workers", "throughput", "wall_seconds"):
        if key not in run:
            ok = fail(path, f"runs[{index}] missing key '{key}'")
    if not ok:
        return False
    if not isinstance(run["mode"], str) or not run["mode"]:
        ok = fail(path, f"runs[{index}].mode is not a non-empty string")
    if not isinstance(run["workers"], int) or run["workers"] < 1:
        ok = fail(path, f"runs[{index}].workers is not a positive integer")
    for key in ("throughput", "wall_seconds"):
        value = run[key]
        if not isinstance(value, (int, float)) or value <= 0:
            ok = fail(path, f"runs[{index}].{key} = {value!r} is not > 0")
    per_worker = run.get("records_per_sec_per_worker")
    if per_worker is not None:
        if not isinstance(per_worker, list):
            ok = fail(path, f"runs[{index}].records_per_sec_per_worker "
                            "is not an array")
        elif any(not isinstance(v, (int, float)) or v < 0 for v in per_worker):
            ok = fail(path, f"runs[{index}].records_per_sec_per_worker "
                            "has a negative or non-numeric entry")
    lag = run.get("watermark_lag")
    if lag is not None and not isinstance(lag, dict):
        ok = fail(path, f"runs[{index}].watermark_lag is not an object")
    extra = RUN_CHECKS.get(benchmark)
    if extra is not None:
        ok = extra(path, index, run) and ok
    return ok


def check_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(path, f"unreadable or invalid JSON ({error})")

    ok = True
    if not isinstance(data, dict):
        return fail(path, "top level is not an object")
    if not isinstance(data.get("benchmark"), str) or not data.get("benchmark"):
        ok = fail(path, "missing or empty 'benchmark'")
    if data.get("schema_version") != 1:
        ok = fail(path, f"schema_version {data.get('schema_version')!r} != 1")
    if not isinstance(data.get("meta"), dict):
        ok = fail(path, "'meta' missing or not an object")
    runs = data.get("runs")
    if not isinstance(runs, list) or not runs:
        return fail(path, "'runs' missing, not an array, or empty")
    for index, run in enumerate(runs):
        ok = check_run(path, index, run, data.get("benchmark")) and ok
    if ok:
        print(f"OK   {path}: {len(runs)} runs")
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 1
    results = [check_file(path) for path in argv[1:]]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
