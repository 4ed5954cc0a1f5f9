#!/bin/sh
# Proves zero-cost disablement of the observability layer: configures a
# separate build tree with -DLOGFS_METRICS=OFF (src/obs compiles to no-ops,
# the registry and tracer stay empty), builds everything, and runs the full
# test suite there. obs_test's and sampler_test's value-dependent cases skip
# themselves in this configuration; everything else must pass identically —
# the metrics layer may not change any simulated result.
#
# Usage: tools/check_metrics_off.sh [build-dir]   (default: build-nometrics)
set -e
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-nometrics}"

cmake -B "$BUILD_DIR" -S . -DLOGFS_METRICS=OFF >/dev/null
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j)

# The flight-recorder additions must be total no-ops in this configuration:
# run the sampler tests explicitly (their live-value cases self-skip, the
# compiled-out behaviour cases assert the no-op contract), including the
# phased-workload black-box case, which asserts that no ring is embedded on
# disk when metrics are compiled out.
(cd "$BUILD_DIR" && ctest --output-on-failure -R 'sampler_test|obs_test')

# The serve layer counts requests, grants, revokes, and parkings through the
# same registry; with metrics off the whole lease protocol must behave
# identically. Run its test surface, which includes the Zipf client sweep
# (zero drive errors, zero stale reads) — a deterministic simulation, so any
# behavioural drift fails loudly.
(cd "$BUILD_DIR" && ctest --output-on-failure -L serve)

# The tracing subsystem compiles out with the rest of src/obs: the trace-
# structure tests self-skip their span assertions (the runtime-parity case
# still runs and must hold trivially), and the attribution bench must
# complete with zero traces and report metrics_enabled=false.
(cd "$BUILD_DIR" && ctest --output-on-failure -R serve_trace_test)
cmake --build "$BUILD_DIR" -j --target bench_trace_attribution >/dev/null
"$BUILD_DIR"/bench/bench_trace_attribution --smoke --out "$BUILD_DIR"/BENCH_PR8.nometrics.json
grep -q '"metrics_enabled": false' "$BUILD_DIR"/BENCH_PR8.nometrics.json

# The per-op latency scope and the op's child spans compile out with the
# tracer: no OpScope, OpSpanParent or RecordDiskSpan code may survive in a
# binary that runs LFS ops.
cmake --build "$BUILD_DIR" -j --target lfs_inspect >/dev/null
if nm -C "$BUILD_DIR"/examples/lfs_inspect |
    grep -q 'LfsFileSystem::OpScope\|LfsFileSystem::OpSpanParent\|LfsFileSystem::RecordDiskSpan'; then
  echo "per-op latency code survived LOGFS_METRICS=OFF" >&2
  exit 1
fi

# The cross-shard intent log counts publishes, retirements, ring-full
# drains, media aborts, and mount-time reconciliations as logfs.intent.*;
# with metrics off those compile out and the intent discipline must behave
# identically. Run its crash/fault suites explicitly, then prove the
# inspector's intents and check verbs still work: reconciliation is
# metric-free, check exits nonzero on seeded damage and zero after repair.
(cd "$BUILD_DIR" && ctest --output-on-failure -R 'sharded_intent_test|sharded_crash_test')
cmake --build "$BUILD_DIR" -j --target lfs_inspect >/dev/null
"$BUILD_DIR"/examples/lfs_inspect intents >/dev/null
if "$BUILD_DIR"/examples/lfs_inspect check >/dev/null; then
  echo "lfs_inspect check failed to flag seeded damage" >&2
  exit 1
fi
"$BUILD_DIR"/examples/lfs_inspect check --repair >/dev/null

# The space observatory (per-source write attribution, segment lifecycle /
# heat, utilization distribution) compiles out entirely: its test suite
# self-skips the value-dependent cases, no observatory symbol may survive in
# the binary, the bench must run attribution-free and report
# metrics_enabled=false, and the inspector's iostat verb must report the
# compiled-out configuration (exit 1) rather than an empty table.
(cd "$BUILD_DIR" && ctest --output-on-failure -R space_observatory_test)
cmake --build "$BUILD_DIR" -j --target bench_space_observatory >/dev/null
if nm -C "$BUILD_DIR"/bench/bench_space_observatory | grep -q 'obs::RecordWrite\|obs::AttributionSnapshot\|obs::PublishUtilization'; then
  echo "observatory symbols survived LOGFS_METRICS=OFF" >&2
  exit 1
fi
"$BUILD_DIR"/bench/bench_space_observatory --smoke --out "$BUILD_DIR"/BENCH_PR10.nometrics.json
grep -q '"metrics_enabled": false' "$BUILD_DIR"/BENCH_PR10.nometrics.json
if grep -q 'logfs\.io\.\|logfs\.seg\.' "$BUILD_DIR"/BENCH_PR10.nometrics.json; then
  echo "logfs.io.*/logfs.seg.* leaked into the OFF-mode bench report" >&2
  exit 1
fi
if "$BUILD_DIR"/examples/lfs_inspect iostat >/dev/null 2>&1; then
  echo "lfs_inspect iostat should report metrics compiled out (nonzero)" >&2
  exit 1
fi

echo "LOGFS_METRICS=OFF: build + tests clean (sampler no-op, no black box on disk, serve + tracing + per-op latency + intent + observatory surfaces verified)"
