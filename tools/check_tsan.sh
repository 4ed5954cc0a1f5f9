#!/bin/sh
# Proves the sharded front-end is race-free under ThreadSanitizer:
# configures a separate build tree with -DLOGFS_SANITIZE=thread, builds,
# and runs the serve/concurrent/obs suites — many OS threads driving one
# sharded mount through create/write/read/rename/unlink with the built-in
# content checker, plus the tracing structural suite (whose shard-lock
# section also spawns real threads against the tracer and registry). The
# concurrent suite includes the intent-log race case: cross-shard renames
# (publish + apply + retire on Sync/Tick) racing the ONLINE repairer
# (CheckShardedLfs in kRepair mode), which must self-serialize against the
# movers and never "repair" a mid-flight op, and the space-observatory case:
# racing shard front-ends all attributing device writes through the
# process-wide logfs.io.* counters, with the exact-sum invariant checked
# after the barrier. TSan halts on the first data
# race, so a green run is a real absence-of-races witness for every
# interleaving the suites explored.
#
# The address/undefined sweep for the single-threaded robustness surfaces
# lives in a second tree: `ctest -L "crash|fault|serve"` under
# -DLOGFS_SANITIZE=address,undefined (pass --asan to run it too). The
# crash and fault labels include the cross-shard intent matrix
# (sharded_crash_test) and the intent fault/repair suite
# (sharded_intent_test); the cache label adds the buffer cache's
# differential suite (iterators stored inside cached blocks). Two unlabelled
# suites run after the labels: sharded_lfs_test (the shard router) and
# lfs_cleaner_test (the cleaner and its space-liveness churn).
# UBSAN_OPTIONS=halt_on_error=1 makes every undefined-behaviour report fail
# its test; without it UBSan prints the report and the test passes.
# On a 4-core x86_64 VM, with both trees already built, the thread pass
# takes about 9 minutes (7 of them in serve_test) and the address/undefined
# pass about 10.5: 6 for the labels, 4.5 for lfs_cleaner_test.
#
# Usage: tools/check_tsan.sh [--asan] [build-dir]   (default: build-tsan)
set -e
cd "$(dirname "$0")/.."

RUN_ASAN=0
if [ "$1" = "--asan" ]; then
  RUN_ASAN=1
  shift
fi
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DLOGFS_SANITIZE=thread >/dev/null
cmake --build "$BUILD_DIR" -j --target sharded_concurrent_test --target serve_trace_test \
  --target serve_test --target serve_crash_test --target obs_test --target sampler_test \
  --target space_observatory_test
(cd "$BUILD_DIR" && ctest --output-on-failure -L "serve|concurrent|obs")

# The scaling bench is the other genuinely multi-threaded binary; its smoke
# sweep under TSan covers the shard router + host-latency device path.
cmake --build "$BUILD_DIR" -j --target bench_shard_scaling >/dev/null
"$BUILD_DIR"/bench/bench_shard_scaling --smoke --out "$BUILD_DIR"/BENCH_PR7.tsan.json

echo "LOGFS_SANITIZE=thread: concurrent suite + scaling bench race-free"

if [ "$RUN_ASAN" = "1" ]; then
  cmake -B build-asan -S . -DLOGFS_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  (cd build-asan && ctest --output-on-failure -L "crash|fault|serve|concurrent|obs|cache")
  (cd build-asan && ctest --output-on-failure -R '^(sharded_lfs_test|lfs_cleaner_test)$')
  echo "LOGFS_SANITIZE=address,undefined: crash|fault|serve|concurrent|obs|cache sweep," \
    "sharded_lfs_test and lfs_cleaner_test clean, undefined behaviour fatal"
fi
