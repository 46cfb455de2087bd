#!/usr/bin/env python3
"""The cmarks repository benchmark.

    python3 perfbench/run.py --workload <apps|control|load|serve> \\
        --seed <n> --seconds <s> --trace <0|1>

Builds the driver and the library from source (into .bench_build/),
feeds the driver the seeded inputs of one workload, checks every answer
against the committed ones, and prints one JSON object as its last line
of output. --trace 0 reports the end-to-end metrics; --trace 1 reports
the per-layer metrics, writes a Chrome trace under .bench_build/traces/,
and fails unless the work counts repeat exactly for the same seed. See
README.md beside this file.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "cmake", "perfbench_driver")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "ok_pct": "%",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "setup.bootstrap_ms": "ms",
    "setup.load_ms": "ms",
    "bench.ops": "count",
    "reader.busy_ms": "ms",
    "reader.forms": "count",
    "reader.bytes": "bytes",
    "compiler.busy_ms": "ms",
    "compiler.forms": "count",
    "compiler.code_bytes": "bytes",
    "compiler.attach_tail": "count",
    "compiler.attach_nontail_call": "count",
    "compiler.attach_nontail_nocall": "count",
    "compiler.attach_fused": "count",
    "vm.busy_ms": "ms",
    "vm.reifications": "count",
    "vm.reify_attach_call": "count",
    "vm.reify_capture": "count",
    "vm.captures": "count",
    "vm.applies": "count",
    "vm.oneshot_promotions": "count",
    "vm.underflow_fusions": "count",
    "vm.underflow_copies": "count",
    "vm.fuse_ratio": "ratio",
    "vm.segment_overflows": "count",
    "vm.segment_allocs": "count",
    "vm.segment_recycles": "count",
    "vm.segment_recycle_ratio": "ratio",
    "vm.fiber_spawns": "count",
    "vm.fiber_parks": "count",
    "control.pass_through_records": "count",
    "marks.frame_creates": "count",
    "marks.frame_extends": "count",
    "marks.frame_rebinds": "count",
    "marks.first_lookups": "count",
    "marks.first_cache_hit_ratio": "ratio",
    "marks.cells_walked_per_lookup": "cells",
    "marks.set_captures": "count",
    "heap.collections": "count",
    "heap.bytes_allocated": "bytes",
    "heap.live_bytes_after_gc": "bytes",
    "heap.nursery_allocs": "count",
    "heap.nursery_reset_ratio": "ratio",
    "heap.gc_op_pct": "%",
    "pool.queue_wait_ms_p50": "ms",
    "pool.queue_wait_ms_p99": "ms",
    "pool.run_ms_p50": "ms",
    "pool.run_ms_p99": "ms",
    "pool.jobs_not_ok": "count",
    "loadgen.lag_ms_p99": "ms",
    "loadgen.offered_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# Per-layer metrics that are a VMStats counter: metric -> counter name.
VM_COUNTERS = {
    "vm.reifications": "reifications",
    "vm.reify_attach_call": "reify-attach-call",
    "vm.reify_capture": "reify-capture",
    "vm.captures": "continuation-captures",
    "vm.applies": "continuation-applies",
    "vm.oneshot_promotions": "one-shot-promotions",
    "vm.underflow_fusions": "underflow-fusions",
    "vm.underflow_copies": "underflow-copies",
    "vm.segment_overflows": "segment-overflows",
    "vm.segment_allocs": "segment-allocs",
    "vm.segment_recycles": "segment-recycles",
    "vm.fiber_spawns": "fiber-spawns",
    "vm.fiber_parks": "fiber-parks",
    "control.pass_through_records": "pass-through-records",
    "marks.frame_creates": "mark-frame-creates",
    "marks.frame_extends": "mark-frame-extends",
    "marks.frame_rebinds": "mark-frame-rebinds",
    "marks.first_lookups": "mark-first-lookups",
    "marks.set_captures": "mark-set-captures",
    "heap.nursery_allocs": "nursery-allocs",
}

# Per-layer metrics the driver counts under the same name.
DRIVER_COUNTS = (
    "reader.forms", "reader.bytes", "compiler.forms", "compiler.code_bytes",
    "compiler.attach_tail", "compiler.attach_nontail_call",
    "compiler.attach_nontail_nocall", "compiler.attach_fused",
    "heap.collections", "heap.bytes_allocated", "heap.live_bytes_after_gc",
    "pool.queue_wait_ms_p50", "pool.queue_wait_ms_p99", "pool.run_ms_p50",
    "pool.run_ms_p99", "pool.jobs_not_ok",
)

# Set-ups timed per run; setup_s is their median. One set-up is a few to
# a few tens of ms, and a single one swings by 2-3x on a busy host.
SETUPS = 21
# latency_ms_p99 is the median of the p99s of this many consecutive, equal
# slices of a run's ops. A host stall (tens of ms, seen about once a
# minute on a shared 4-vCPU host) then moves one slice, not the result.
P99_SLICES = 5
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


class BenchError(Exception):
    pass


# --- Statistics and guards --------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise BenchError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values, q, min_beyond=10):
    """percentile(), refused when fewer than min_beyond samples lie
    beyond it: such a tail is one or two unlucky ops, not a percentile."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise BenchError(f"p{q:g} of {len(values)} samples has only {beyond} "
                         f"beyond it; need {min_beyond}")
    return percentile(values, q)


def sliced_p99(values, slices=P99_SLICES):
    """Median over `slices` consecutive equal slices of each slice's p99;
    every slice needs ten samples beyond its p99."""
    k = len(values) // slices
    return statistics.median(tail_percentile(values[i * k:(i + 1) * k], 99)
                             for i in range(slices))


def check_schema(metrics, table):
    """Every metric is named [A-Za-z0-9_.-]+, carries the unit its table
    gives, and is a finite number; the names are exactly the table's."""
    if set(metrics) != set(table):
        raise BenchError("metric names differ from the table: "
                         f"{sorted(set(metrics) ^ set(table))}")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise BenchError(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or m["unit"] != table[name]:
            raise BenchError(f"metric {name} lacks its unit {table[name]}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            raise BenchError(f"metric {name} is not a finite number: {v!r}")


def ratio(num, den):
    return num / den if den else 0.0


# --- Build and driver -------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise BenchError(f"no cmarks sources under {ROOT}")
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "perfbench_driver", "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
        if r.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_driver(spec_text, timeout):
    """Runs the driver on one spec; returns its parsed output."""
    r = subprocess.run([DRIVER], input=spec_text, capture_output=True,
                       text=True, timeout=timeout)
    out = {"setups": [], "ops": [], "fails": [], "counts": {}, "self": {},
           "measured_ns": None, "rss_kb": None}
    for line in r.stdout.splitlines():
        f = line.split("\t")
        if f[0] == "setup":
            out["setups"].append(tuple(int(x) for x in f[1:4]))
        elif f[0] == "op":
            out["ops"].append((f[1], int(f[2]), f[3] == "1", int(f[4])))
        elif f[0] == "fail":
            out["fails"].append(f[1:])
        elif f[0] == "count":
            out["counts"][f[1]] = float(f[2]) if "." in f[2] else int(f[2])
        elif f[0] == "self":
            out["self"][f[1]] = int(f[2])
        elif f[0] == "measured_ns":
            out["measured_ns"] = int(f[1])
        elif f[0] == "rss_kb":
            out["rss_kb"] = int(f[1])
    for fail in out["fails"]:
        print("perfbench: wrong answer: " + " | ".join(fail), file=sys.stderr)
    if r.returncode != 0 or out["measured_ns"] is None or not out["ops"]:
        sys.stderr.write(r.stderr)
        raise BenchError(f"driver exited with {r.returncode}")
    return out


# --- Metrics ----------------------------------------------------------------

def ops_per_s(out):
    """Completed, correct ops per second of measured time."""
    return sum(1 for o in out["ops"] if o[2]) / (out["measured_ns"] / 1e9)


def end_to_end(out):
    ops = out["ops"]
    ok = [o for o in ops if o[2]]
    lat_ms = [o[1] / 1e6 for o in ops]
    return {
        "setup_s": statistics.median(s[0] for s in out["setups"]) / 1e9,
        "ops_per_s": ops_per_s(out),
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_p99": sliced_p99(lat_ms),
        "ok_pct": 100.0 * len(ok) / len(ops),
        "peak_rss_mb": out["rss_kb"] / 1024.0,
    }


def per_layer(workload, untraced, traced, offered_per_s):
    """Per-layer metrics from an untraced run and the traced run."""
    c = traced["counts"]
    m = {name: c.get(name, 0) for name in DRIVER_COUNTS}
    m.update({name: c.get("vm:" + key, 0)
              for name, key in VM_COUNTERS.items()})
    m["bench.ops"] = c.get("ops", 0)
    selfs = traced["self"]
    m["setup.bootstrap_ms"] = statistics.median(
        s[1] for s in untraced["setups"]) / 1e6
    m["setup.load_ms"] = statistics.median(
        s[2] for s in untraced["setups"]) / 1e6
    m["reader.busy_ms"] = selfs.get("reader", 0) / 1e6
    m["compiler.busy_ms"] = selfs.get("compiler", 0) / 1e6
    m["vm.busy_ms"] = selfs.get("vm", 0) / 1e6
    m["vm.fuse_ratio"] = ratio(m["vm.underflow_fusions"],
                               m["vm.underflow_fusions"]
                               + m["vm.underflow_copies"])
    m["vm.segment_recycle_ratio"] = ratio(
        m["vm.segment_recycles"],
        m["vm.segment_recycles"] + m["vm.segment_allocs"])
    m["marks.first_cache_hit_ratio"] = ratio(
        c.get("vm:mark-first-cache-hits", 0), m["marks.first_lookups"])
    m["marks.cells_walked_per_lookup"] = ratio(
        c.get("vm:mark-first-cells-walked", 0), m["marks.first_lookups"])
    m["heap.nursery_reset_ratio"] = ratio(
        c.get("vm:nursery-resets", 0),
        c.get("vm:nursery-resets", 0) + c.get("vm:nursery-promotions", 0))
    m["heap.gc_op_pct"] = 100.0 * ratio(c.get("heap.gc_ops", 0),
                                        c.get("ops", 0))
    if workload == "serve":
        lags = [o[3] / 1e6 for o in untraced["ops"]]
        m["loadgen.lag_ms_p99"] = tail_percentile(lags, 99)
    else:
        m["loadgen.lag_ms_p99"] = 0.0
    m["loadgen.offered_per_s"] = offered_per_s
    un = ops_per_s(untraced)
    tr = ops_per_s(traced)
    m["trace.untraced_ops_per_s"] = un
    m["trace.traced_ops_per_s"] = tr
    m["trace.overhead_pct"] = 100.0 * (tr - un) / un
    return m


def wrap(values, table):
    return {k: {"value": values[k], "unit": table[k]} for k in sorted(values)}


def print_self_times(traced):
    """Summed self time per span name within the traced ops: per layer for
    the closed loops, per job kind (submit to resolve) for serve."""
    selfs = traced["self"]
    total = sum(selfs.values())
    print("self time per span over the traced ops:")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        print(f"  {name:10s} {selfs[name] / 1e6:10.2f} ms "
              f"{100.0 * ratio(selfs[name], total):6.1f}%")


# --- Runs -------------------------------------------------------------------

def untraced_run(workload, seed, seconds):
    spec = workloads.spec(workload, seed, seconds, "run", SETUPS)
    return run_driver(spec, timeout=seconds + 90)


def count_run(workload, seed, trace_path=None):
    spec = workloads.spec(workload, seed, 0, "count", 1, trace_path)
    return run_driver(spec, timeout=90)


def traced_share(seconds):
    """Length of each of the untraced and traced timed phases of a
    traced run."""
    return max(1.0, seconds * 0.4)


def traced_runs(workload, seed, seconds):
    """Returns the untraced run, the traced run and every run made. For the
    closed loops, also checks that every work count repeats for the same
    seed and that another seed changes the op order but not the metric
    names."""
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    trace_path = os.path.join(BUILD_DIR, "traces",
                              f"{workload}-seed{seed}.json")
    share = traced_share(seconds)
    untraced = untraced_run(workload, seed, share)
    if workload == "serve":
        spec = workloads.spec(workload, seed, share, "run", 1, trace_path)
        traced = run_driver(spec, timeout=share + 90)
        return untraced, traced, [untraced, traced], trace_path
    traced = count_run(workload, seed, trace_path)
    again = count_run(workload, seed)
    if again["counts"] != traced["counts"]:
        diff = sorted(k for k in traced["counts"]
                      if traced["counts"][k] != again["counts"].get(k))
        raise BenchError(f"work counts differ between two runs of seed "
                         f"{seed}: {diff}")
    other_seed = seed + 1
    n = workloads.COUNT_LENGTH[workload]
    if workloads.op_sequence(workload, seed, n) == \
            workloads.op_sequence(workload, other_seed, n):
        raise BenchError(f"seeds {seed} and {other_seed} give one order")
    other = count_run(workload, other_seed)
    if set(other["counts"]) != set(traced["counts"]):
        raise BenchError("another seed changed the metric names")
    return untraced, traced, [untraced, traced, again, other], trace_path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
        if args.trace:
            untraced, traced, runs, trace_path = traced_runs(
                args.workload, args.seed, args.seconds)
            offered = 0.0
            if args.workload == "serve":
                share = traced_share(args.seconds)
                offered = len(workloads.arrivals(args.seed, share)) / share
            values = per_layer(args.workload, untraced, traced, offered)
            table = PER_LAYER
            print(f"trace: {trace_path}")
            print_self_times(traced)
            print(f"tracing overhead: {values['trace.overhead_pct']:+.1f}% "
                  f"ops_per_s ({values['trace.traced_ops_per_s']:.1f} traced "
                  f"vs {values['trace.untraced_ops_per_s']:.1f} untraced)")
        else:
            out = untraced_run(args.workload, args.seed, args.seconds)
            runs = (out,)
            values = end_to_end(out)
            table = END_TO_END
        metrics = wrap(values, table)
        check_schema(metrics, table)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(1 for r in runs for o in r["ops"] if not o[2])
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
