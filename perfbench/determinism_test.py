#!/usr/bin/env python3
"""Determinism self-check of the logfs benchmark.

On the single-threaded workloads (smallfile, churn, serve_zipf) every count
the benchmark reports is a function of the seed alone: the simulated
machine, the op sequence and the count window (the first --count-ops ops)
do not depend on host speed. This test runs each workload twice with the
same seed, untraced and traced, and fails on any count that differs.

Usage, from the repository root:

    python3 perfbench/determinism_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# (workload, count window): long enough for churn's cleaner to run.
CASES = (("smallfile", 5000), ("churn", 15000), ("serve_zipf", 600))
END_TO_END = ("write_amp", "sim_ops_s", "sim_tail_ms")
# Per-layer counts. Host times, the span-derived metrics and the critical
# path shares (taken over the whole timed window) are left out.
PER_LAYER_PREFIXES = ("disk.read_ops", "disk.write_ops", "disk.read_mb", "disk.write_mb",
                      "disk.write_kb_mean", "disk.seq_ratio", "cache.", "lfs.cleaner.passes",
                      "lfs.cleaner.segments_cleaned", "lfs.cleaner.blocks_examined",
                      "lfs.cleaner.live_copied", "lfs.cleaner.yield", "lfs.checkpoint.count",
                      "obs.io.", "serve.rpc.", "serve.revokes", "serve.lease.",
                      "serve.dup_suppressed", "serve.client.")


def run(workload, count_ops, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--count-ops", str(count_ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit("FAIL: %s exited %d" % (" ".join(cmd[1:]), proc.returncode))
    metrics = json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]
    names = END_TO_END if trace == 0 else [
        n for n in metrics if n.startswith(PER_LAYER_PREFIXES)]
    return {n: metrics[n]["value"] for n in names}


def main():
    mismatches = 0
    for workload, count_ops in CASES:
        for trace in (0, 1):
            first = run(workload, count_ops, trace)
            second = run(workload, count_ops, trace)
            for name in first:
                same = first[name] == second[name]
                mismatches += not same
                print("%-4s %-10s trace=%d %-32s %r %r" % (
                    "ok" if same else "DIFF", workload, trace, name, first[name], second[name]))
    if mismatches:
        print("FAIL: %d counts differ between identical runs" % mismatches)
        return 1
    print("PASS: every count repeats exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
