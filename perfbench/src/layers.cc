#include "perfbench/src/layers.h"

#include "src/obs/metrics.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double Mb(uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricList() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"fsbase.path.self_us", "us"},
      {"fsbase.path.lookups_per_call", "count"},
      {"lfs.create.self_us", "us"},
      {"lfs.lookup.self_us", "us"},
      {"lfs.unlink.self_us", "us"},
      {"lfs.rename.self_us", "us"},
      {"lfs.write.self_us", "us"},
      {"lfs.read.self_us", "us"},
      {"lfs.fsync.self_us", "us"},
      {"lfs.tick.self_us", "us"},
      {"lfs.fsync.disk_share", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"cache.blocks_written_back", "count"},
      {"disk.read_ops", "count"},
      {"disk.write_ops", "count"},
      {"disk.read_mb", "MB"},
      {"disk.write_mb", "MB"},
      {"disk.read_busy_ms", "ms"},
      {"disk.write_busy_ms", "ms"},
      {"disk.write_kb_mean", "KB"},
      {"disk.seq_ratio", "ratio"},
      {"disk.inflight_mean", "ratio"},
      {"lfs.cleaner.passes", "count"},
      {"lfs.cleaner.segments_cleaned", "count"},
      {"lfs.cleaner.blocks_examined", "count"},
      {"lfs.cleaner.live_copied", "count"},
      {"lfs.cleaner.yield", "ratio"},
      {"lfs.cleaner.busy_ms", "ms"},
      {"lfs.cleaner.fg_stalls", "count"},
      {"lfs.cleaner.stall_us_mean", "us"},
      {"lfs.checkpoint.count", "count"},
      {"lfs.checkpoint.busy_ms", "ms"},
      {"obs.io.fg_data_mb", "MB"},
      {"obs.io.fg_meta_mb", "MB"},
      {"obs.io.cleaner_mb", "MB"},
      {"obs.io.checkpoint_mb", "MB"},
      {"obs.io.intent_mb", "MB"},
      {"obs.trace_overhead", "ratio"},
      {"lfs.shard.write.self_us", "us"},
      {"lfs.shard.fsync.self_us", "us"},
      {"lfs.shard.fsync.disk_share", "ratio"},
      {"lfs.shard.cross_ops", "count"},
      {"serve.rpc.attempts", "count"},
      {"serve.rpc.wasted", "count"},
      {"serve.rpc.useful_ratio", "ratio"},
      {"serve.revokes", "count"},
      {"serve.lease.grants", "count"},
      {"serve.dup_suppressed", "count"},
      {"serve.client.hit_ratio", "ratio"},
      {"serve.path.network_share", "ratio"},
      {"serve.path.retransmit_share", "ratio"},
      {"serve.path.dedup_parked_share", "ratio"},
      {"serve.path.lease_wait_share", "ratio"},
      {"serve.path.disk_share", "ratio"},
      {"serve.path.cache_share", "ratio"},
  };
  return kList;
}

void LayerCounters::AddLog(const logfs::LfsFileSystem& fs) {
  const logfs::CacheStats& c = fs.cache_stats();
  cache_hits += c.hits;
  cache_misses += c.misses;
  cache_evictions += c.evictions;
  cache_written_back += c.blocks_written_back;
  const logfs::LfsFileSystem::CleanerStats& cl = fs.cleaner_stats();
  cleaner_passes += cl.passes;
  segments_cleaned += cl.segments_cleaned;
  blocks_examined += cl.blocks_examined;
  live_copied += cl.live_blocks_copied;
  checkpoints += fs.checkpoint_count();
}

void LayerCounters::ReadIoCounters() {
  for (size_t i = 0; i < logfs::obs::kIoSourceCount; ++i) {
    const std::string name =
        "logfs.io." +
        std::string(logfs::obs::IoSourceName(static_cast<logfs::obs::IoSource>(i))) +
        ".bytes";
    const logfs::obs::Counter* counter = logfs::obs::Registry().FindCounter(name);
    io_bytes[i] = counter != nullptr ? counter->Value() : 0;
  }
}

LayerCounters LayerCounters::Minus(const LayerCounters& b) const {
  LayerCounters d = *this;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.cache_evictions -= b.cache_evictions;
  d.cache_written_back -= b.cache_written_back;
  d.disk = DiskDelta(disk, b.disk);
  d.cleaner_passes -= b.cleaner_passes;
  d.segments_cleaned -= b.segments_cleaned;
  d.blocks_examined -= b.blocks_examined;
  d.live_copied -= b.live_copied;
  d.checkpoints -= b.checkpoints;
  for (size_t i = 0; i < logfs::obs::kIoSourceCount; ++i) d.io_bytes[i] -= b.io_bytes[i];
  return d;
}

void AddLayerMetrics(const LayerCounters& d, const SpanRollup& r, double measured_s,
                     bool sharded, RunReport* report) {
  auto add = [report](const char* name, double value, const char* unit) {
    report->layer.push_back({name, value, unit});
  };
  using N = SpanName;
  const auto& path = r[N::kPath];
  add("fsbase.path.self_us", r.SelfUs(N::kPath), "us");
  add("fsbase.path.lookups_per_call",
      Ratio(static_cast<double>(path.lookup_children), static_cast<double>(path.count)),
      "count");
  const auto& fsync = r[N::kFsFsync];
  const double fsync_disk_share =
      Ratio(static_cast<double>(fsync.disk_child_ns), static_cast<double>(fsync.total_ns));
  if (sharded) {
    add("lfs.shard.write.self_us", r.SelfUs(N::kFsWrite), "us");
    add("lfs.shard.fsync.self_us", r.SelfUs(N::kFsFsync), "us");
    add("lfs.shard.fsync.disk_share", fsync_disk_share, "ratio");
  } else {
    add("lfs.create.self_us", r.SelfUs(N::kFsCreate), "us");
    add("lfs.lookup.self_us", r.SelfUs(N::kFsLookup), "us");
    add("lfs.unlink.self_us", r.SelfUs(N::kFsUnlink), "us");
    add("lfs.rename.self_us", r.SelfUs(N::kFsRename), "us");
    add("lfs.write.self_us", r.SelfUs(N::kFsWrite), "us");
    add("lfs.read.self_us", r.SelfUs(N::kFsRead), "us");
    add("lfs.fsync.self_us", r.SelfUs(N::kFsFsync), "us");
    add("lfs.tick.self_us", r.SelfUs(N::kFsTick), "us");
    add("lfs.fsync.disk_share", fsync_disk_share, "ratio");
  }

  const uint64_t lookups = d.cache_hits + d.cache_misses;
  add("cache.hit_ratio", Ratio(static_cast<double>(d.cache_hits), static_cast<double>(lookups)),
      "ratio");
  add("cache.misses", static_cast<double>(d.cache_misses), "count");
  add("cache.evictions", static_cast<double>(d.cache_evictions), "count");
  add("cache.blocks_written_back", static_cast<double>(d.cache_written_back), "count");

  const logfs::DiskStats& k = d.disk;
  const int64_t read_busy = r[N::kDiskRead].total_ns;
  const int64_t write_busy = r[N::kDiskWrite].total_ns;
  add("disk.read_ops", static_cast<double>(k.read_ops), "count");
  add("disk.write_ops", static_cast<double>(k.write_ops), "count");
  add("disk.read_mb", Mb(k.sectors_read * logfs::kSectorSize), "MB");
  add("disk.write_mb", Mb(k.sectors_written * logfs::kSectorSize), "MB");
  add("disk.read_busy_ms", Ms(read_busy), "ms");
  add("disk.write_busy_ms", Ms(write_busy), "ms");
  add("disk.write_kb_mean",
      Ratio(static_cast<double>(k.sectors_written * logfs::kSectorSize) / 1e3,
            static_cast<double>(k.write_ops)),
      "KB");
  add("disk.seq_ratio",
      Ratio(static_cast<double>(k.sequential_ops), static_cast<double>(k.read_ops + k.write_ops)),
      "ratio");
  add("disk.inflight_mean", Ratio(static_cast<double>(read_busy + write_busy) * 1e-9, measured_s),
      "ratio");

  add("lfs.cleaner.passes", static_cast<double>(d.cleaner_passes), "count");
  add("lfs.cleaner.segments_cleaned", static_cast<double>(d.segments_cleaned), "count");
  add("lfs.cleaner.blocks_examined", static_cast<double>(d.blocks_examined), "count");
  add("lfs.cleaner.live_copied", static_cast<double>(d.live_copied), "count");
  add("lfs.cleaner.yield",
      d.blocks_examined > 0 ? 1.0 - static_cast<double>(d.live_copied) /
                                        static_cast<double>(d.blocks_examined)
                            : 0.0,
      "ratio");
  add("lfs.cleaner.busy_ms", Ms(r.cleaner_ns), "ms");
  add("lfs.cleaner.fg_stalls", static_cast<double>(r.fg_stalls), "count");
  add("lfs.cleaner.stall_us_mean",
      Ratio(static_cast<double>(r.fg_stall_ns) / 1e3, static_cast<double>(r.fg_stalls)), "us");
  add("lfs.checkpoint.count", static_cast<double>(d.checkpoints), "count");
  add("lfs.checkpoint.busy_ms", Ms(r.checkpoint_ns), "ms");

  using logfs::obs::IoSource;
  auto io_mb = [&d](IoSource s) { return Mb(d.io_bytes[static_cast<size_t>(s)]); };
  add("obs.io.fg_data_mb", io_mb(IoSource::kForegroundData), "MB");
  add("obs.io.fg_meta_mb", io_mb(IoSource::kForegroundMeta), "MB");
  add("obs.io.cleaner_mb", io_mb(IoSource::kCleaner), "MB");
  add("obs.io.checkpoint_mb", io_mb(IoSource::kCheckpoint), "MB");
  add("obs.io.intent_mb", io_mb(IoSource::kIntent), "MB");
}

}  // namespace perfbench
