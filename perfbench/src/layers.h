// Per-layer metrics: program-side counters snapshotted around the count
// window, and the span rollup of the traced pass, turned into the named
// per-layer metrics listed in BENCHMARK.json.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/spans.h"
#include "src/lfs/lfs_file_system.h"
#include "src/obs/space_observatory.h"

namespace perfbench {

// Every per-layer metric name with its unit, in report order. A workload
// where a metric does not apply reports it as 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricList();

struct LayerCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_written_back = 0;
  logfs::DiskStats disk;
  uint64_t cleaner_passes = 0;
  uint64_t segments_cleaned = 0;
  uint64_t blocks_examined = 0;
  uint64_t live_copied = 0;
  uint64_t checkpoints = 0;
  uint64_t io_bytes[logfs::obs::kIoSourceCount] = {};

  // Adds one log's cache, cleaner and checkpoint counters.
  void AddLog(const logfs::LfsFileSystem& fs);
  // Reads the exact-sum write attribution counters (logfs.io.*.bytes).
  void ReadIoCounters();
  LayerCounters Minus(const LayerCounters& before) const;
};

// Appends the counter-derived metrics (cache, disk, cleaner and checkpoint
// counts, obs.io.*) and the span-derived ones (self times, busy times,
// stalls) to report->layer. `measured_s` is the host length of the span
// window; `sharded` files the write/fsync self times under lfs.shard.*.
void AddLayerMetrics(const LayerCounters& delta, const SpanRollup& rollup, double measured_s,
                     bool sharded, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
