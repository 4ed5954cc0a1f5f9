#!/bin/sh
# Regenerates the wall-clock reports of the three harnesses perfbench does not
# yet cover (BENCH_PR7.json, BENCH_PR8.json and BENCH_PR10.json at the repo
# root) from a fresh build. The simulated-time paper benches are separate
# binaries (bench_small_file, bench_cleaning, ...) whose shapes
# `ctest -L paper` checks; host throughput, latency and the per-layer split of
# the main workloads come from `python3 perfbench/run.py`. BENCH_PR2.json,
# BENCH_PR2.metrics.json, BENCH_PR5.json and BENCH_PR6.json are frozen: the
# harnesses that wrote them are gone.
#
# Usage: bench/run_benches.sh [--smoke]
set -e
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j --target bench_shard_scaling --target bench_trace_attribution --target bench_space_observatory >/dev/null

# The sharded multi-log scaling bench: host wall-clock write throughput
# over shards {1,2,4} x threads {1,2,4} driven by real OS threads.
./build/bench/bench_shard_scaling "$@" --out BENCH_PR7.json

# The trace-attribution bench: per-layer critical-path shares over a client
# sweep and a shard sweep, plus the tracer's own ns/span cost (enabled vs
# runtime-gated off).
./build/bench/bench_trace_attribution "$@" --out BENCH_PR8.json

# The space-observatory bench: per-source write-attribution shares and write
# amplification under uniform/Zipf/hot-cold churn at 70/80/90% of the usable
# bytes live, with the exact-sum invariant checked in every cell, plus the
# observatory's own ns/write self-cost.
./build/bench/bench_space_observatory "$@" --out BENCH_PR10.json
