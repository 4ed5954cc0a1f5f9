#include "src/workload/benchmarks.h"

#include <algorithm>
#include <cmath>

#include "src/disk/striped_disk.h"
#include "src/disk/tracing_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/obs/tracer.h"

namespace logfs {
namespace {

std::vector<std::byte> Payload(size_t size, uint64_t seed) {
  std::vector<std::byte> data(size);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < size; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[i] = static_cast<std::byte>(x);
  }
  return data;
}

std::string SmallFilePath(const SmallFileParams& params, int index) {
  return "/bench/dir" + std::to_string(index % params.num_dirs) + "/file" +
         std::to_string(index);
}

// Every completed benchmark phase becomes a workload-category span (sim
// time), so a Chrome-trace export lines phases up against the cleaner and
// segment-writer spans they caused.
void RecordPhaseSpan(const Testbed& bed, const PhaseResult& phase) {
  if constexpr (obs::kMetricsEnabled) {
    obs::Tracer().RecordSpan("workload", phase.name, bed.Now() - phase.seconds, bed.Now(),
                             {{"operations", std::to_string(phase.operations)},
                              {"bytes", std::to_string(phase.bytes)}});
  }
}
}  // namespace

// --- Figure 3 -----------------------------------------------------------------

Result<std::vector<PhaseResult>> RunSmallFileBenchmark(Testbed& bed,
                                                       const SmallFileParams& params) {
  std::vector<PhaseResult> phases;
  RETURN_IF_ERROR(bed.paths->MkdirAll("/bench").status());
  for (int d = 0; d < params.num_dirs; ++d) {
    RETURN_IF_ERROR(bed.paths->Mkdir("/bench/dir" + std::to_string(d)).status());
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  const auto payload = Payload(params.file_size, params.seed);

  // Phase 1: create. Ends with a sync so every file is durable — the same
  // end state the synchronous FFS creates reach.
  double t0 = bed.Now();
  for (int i = 0; i < params.num_files; ++i) {
    std::string leaf;
    // Create + write through the inode interface (one lookup, not a full
    // path walk per op, mirroring an open file descriptor).
    ASSIGN_OR_RETURN(InodeNum dir,
                     bed.fs->Lookup(bed.fs->Lookup(bed.fs->root(), "bench").value(),
                                    "dir" + std::to_string(i % params.num_dirs)));
    ASSIGN_OR_RETURN(InodeNum ino, bed.fs->Create(dir, "file" + std::to_string(i),
                                                  FileType::kRegular));
    ASSIGN_OR_RETURN(uint64_t written, bed.fs->Write(ino, 0, payload));
    if (written != params.file_size) {
      return IoError("short write in small-file benchmark");
    }
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  phases.push_back(PhaseResult{"create", bed.Now() - t0,
                               static_cast<uint64_t>(params.num_files),
                               static_cast<uint64_t>(params.num_files) * params.file_size});
  RecordPhaseSpan(bed, phases.back());

  // "The file cache was flushed" between phases.
  RETURN_IF_ERROR(bed.fs->DropCaches());

  // Phase 2: read all files in creation order.
  std::vector<std::byte> buffer(params.file_size);
  t0 = bed.Now();
  for (int i = 0; i < params.num_files; ++i) {
    ASSIGN_OR_RETURN(InodeNum ino, bed.paths->Resolve(SmallFilePath(params, i)));
    ASSIGN_OR_RETURN(uint64_t read, bed.fs->Read(ino, 0, buffer));
    if (read != params.file_size) {
      return IoError("short read in small-file benchmark");
    }
  }
  phases.push_back(PhaseResult{"read", bed.Now() - t0,
                               static_cast<uint64_t>(params.num_files),
                               static_cast<uint64_t>(params.num_files) * params.file_size});
  RecordPhaseSpan(bed, phases.back());

  // Phase 3: delete everything.
  t0 = bed.Now();
  for (int i = 0; i < params.num_files; ++i) {
    RETURN_IF_ERROR(bed.paths->Unlink(SmallFilePath(params, i)));
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  phases.push_back(PhaseResult{"delete", bed.Now() - t0,
                               static_cast<uint64_t>(params.num_files),
                               static_cast<uint64_t>(params.num_files) * params.file_size});
  RecordPhaseSpan(bed, phases.back());
  return phases;
}

// --- Figure 4 -----------------------------------------------------------------

Result<std::vector<PhaseResult>> RunLargeFileBenchmark(Testbed& bed,
                                                       const LargeFileParams& params) {
  std::vector<PhaseResult> phases;
  const uint64_t requests = params.file_bytes / params.request_size;
  const auto payload = Payload(params.request_size, params.seed);
  std::vector<std::byte> buffer(params.request_size);
  Rng rng(params.seed);

  ASSIGN_OR_RETURN(InodeNum ino, bed.fs->Create(bed.fs->root(), "bigfile",
                                                FileType::kRegular));
  auto run_phase = [&](const std::string& name, bool is_write, bool sequential,
                       bool sync_at_end) -> Status {
    // Random phases touch every request slot exactly once, in shuffled order.
    std::vector<uint64_t> order(requests);
    for (uint64_t i = 0; i < requests; ++i) {
      order[i] = i;
    }
    if (!sequential) {
      for (uint64_t i = requests - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBelow(i + 1)]);
      }
    }
    const double t0 = bed.Now();
    for (uint64_t i = 0; i < requests; ++i) {
      const uint64_t offset = order[i] * params.request_size;
      if (is_write) {
        ASSIGN_OR_RETURN(uint64_t n, bed.fs->Write(ino, offset, payload));
        if (n != params.request_size) {
          return IoError("short write");
        }
      } else {
        ASSIGN_OR_RETURN(uint64_t n, bed.fs->Read(ino, offset, buffer));
        if (n != params.request_size) {
          return IoError("short read");
        }
      }
    }
    if (sync_at_end) {
      RETURN_IF_ERROR(bed.fs->Sync());
    }
    phases.push_back(
        PhaseResult{name, bed.Now() - t0, requests, requests * params.request_size});
    RecordPhaseSpan(bed, phases.back());
    return OkStatus();
  };

  RETURN_IF_ERROR(run_phase("seq_write", true, true, true));
  RETURN_IF_ERROR(bed.fs->DropCaches());
  RETURN_IF_ERROR(run_phase("seq_read", false, true, false));
  RETURN_IF_ERROR(run_phase("rand_write", true, false, true));
  RETURN_IF_ERROR(bed.fs->DropCaches());
  RETURN_IF_ERROR(run_phase("rand_read", false, false, false));
  RETURN_IF_ERROR(bed.fs->DropCaches());
  RETURN_IF_ERROR(run_phase("seq_reread", false, true, false));
  return phases;
}

// --- Figure 5 -----------------------------------------------------------------

Result<CleaningRateResult> RunCleaningRateBenchmark(Testbed& bed,
                                                    const CleaningRateParams& params) {
  auto* lfs = dynamic_cast<LfsFileSystem*>(bed.fs.get());
  if (lfs == nullptr) {
    return InvalidArgumentError("cleaning benchmark requires an LFS testbed");
  }
  const uint64_t fill_bytes =
      params.fill_bytes != 0 ? params.fill_bytes : lfs->UsableBytes() * 7 / 10;
  const int num_files = static_cast<int>(fill_bytes / params.file_size);
  const auto payload = Payload(params.file_size, params.seed);

  // Fill the log.
  const int dirs = 64;
  for (int d = 0; d < dirs; ++d) {
    RETURN_IF_ERROR(bed.paths->Mkdir("/d" + std::to_string(d)).status());
  }
  for (int i = 0; i < num_files; ++i) {
    const std::string path =
        "/d" + std::to_string(i % dirs) + "/f" + std::to_string(i);
    RETURN_IF_ERROR(bed.paths->WriteFile(path, payload));
    if (i % 512 == 511) {
      RETURN_IF_ERROR(bed.fs->Sync());
    }
  }
  RETURN_IF_ERROR(bed.fs->Sync());

  // Delete a random (1 - utilization) fraction.
  Rng rng(params.seed + 17);
  for (int i = 0; i < num_files; ++i) {
    if (rng.NextDouble() >= params.utilization) {
      const std::string path =
          "/d" + std::to_string(i % dirs) + "/f" + std::to_string(i);
      RETURN_IF_ERROR(bed.paths->Unlink(path));
    }
  }
  RETURN_IF_ERROR(bed.fs->Sync());

  // Measure: mean utilization of the dirty segments, then clean them all.
  CleaningRateResult result;
  result.utilization_target = params.utilization;
  // Snapshot the fragmented victims: cleaning refills fresh segments with
  // the survivors, and those must not be re-cleaned by this measurement.
  // Fully dead segments (live == 0) are included — the paper's u = 0 point
  // is exactly "segments with no live blocks have no cost".
  const auto& usage = lfs->usage();
  std::vector<uint32_t> victims;
  uint64_t live_total = 0;
  for (uint32_t seg = 0; seg < lfs->superblock().num_segments; ++seg) {
    if (usage.Get(seg).state == SegState::kDirty) {
      victims.push_back(seg);
      live_total += usage.Get(seg).live_bytes;
    }
  }
  result.utilization_measured =
      !victims.empty()
          ? static_cast<double>(live_total) /
                (victims.size() * static_cast<double>(lfs->superblock().segment_size))
          : 0.0;

  const double t0 = bed.Now();
  const uint64_t cleaned_before = lfs->cleaner_stats().segments_cleaned;
  const uint32_t clean_before = lfs->CleanSegmentCount();
  for (size_t i = 0; i < victims.size(); i += 8) {
    std::vector<uint32_t> batch(victims.begin() + i,
                                victims.begin() + std::min(victims.size(), i + 8));
    RETURN_IF_ERROR(lfs->CleanTheseSegments(batch).status());
  }
  result.seconds = bed.Now() - t0;
  result.segments_cleaned =
      static_cast<uint32_t>(lfs->cleaner_stats().segments_cleaned - cleaned_before);
  // Net clean space: how many more segments are clean now than before —
  // the paper's "rate at which clean segments can be generated".
  const uint32_t clean_after = lfs->CleanSegmentCount();
  result.net_clean_kb = clean_after > clean_before
                            ? (clean_after - clean_before) *
                                  (lfs->superblock().segment_size / 1024.0)
                            : 0.0;
  return result;
}

// --- Section 3.1 ----------------------------------------------------------------

Result<CreateDeleteLatencyResult> RunCreateDeleteLatency(Testbed& bed, int iterations) {
  const double t0 = bed.Now();
  for (int i = 0; i < iterations; ++i) {
    ASSIGN_OR_RETURN(InodeNum ino,
                     bed.fs->Create(bed.fs->root(), "probe", FileType::kRegular));
    (void)ino;
    RETURN_IF_ERROR(bed.fs->Unlink(bed.fs->root(), "probe"));
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  CreateDeleteLatencyResult result;
  result.seconds_per_pair = (bed.Now() - t0) / iterations;
  return result;
}

// --- Office/engineering workload ---------------------------------------------------

size_t DrawOfficeFileSize(Rng& rng) {
  const double bucket = rng.NextDouble();
  auto log_uniform = [&rng](double lo, double hi) {
    const double x = std::log(lo) + rng.NextDouble() * (std::log(hi) - std::log(lo));
    return static_cast<size_t>(std::exp(x));
  };
  if (bucket < 0.80) {
    return log_uniform(256, 8 * 1024);  // "less than 8 kilobytes".
  }
  if (bucket < 0.95) {
    return log_uniform(8 * 1024, 64 * 1024);
  }
  return log_uniform(64 * 1024, 1024 * 1024);
}

Result<OfficeWorkloadResult> RunOfficeWorkload(Testbed& bed,
                                               const OfficeWorkloadParams& params) {
  Rng rng(params.seed);
  OfficeWorkloadResult result;
  std::vector<std::pair<std::string, size_t>> live;  // name -> size.
  uint64_t name_counter = 0;
  RETURN_IF_ERROR(bed.paths->MkdirAll("/office").status());

  // 80/20 working-set skew: 80% of accesses go to the first 20% of files.
  auto pick_index = [&](size_t count) -> size_t {
    if (rng.NextBool(0.8)) {
      return rng.NextBelow(std::max<size_t>(1, count / 5));
    }
    return rng.NextBelow(count);
  };

  const double t0 = bed.Now();
  for (int op = 0; op < params.operations; ++op) {
    const double dice = rng.NextDouble();
    if (dice < params.read_fraction && !live.empty()) {
      const auto& [name, size] = live[pick_index(live.size())];
      ASSIGN_OR_RETURN(auto data, bed.paths->ReadFile(name));
      result.bytes_read += data.size();
      (void)size;
    } else if (dice < params.read_fraction + params.delete_fraction && !live.empty()) {
      const size_t index = pick_index(live.size());
      RETURN_IF_ERROR(bed.paths->Unlink(live[index].first));
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
      ++result.files_deleted;
    } else {
      const size_t size = DrawOfficeFileSize(rng);
      std::string name;
      if (!live.empty() &&
          (static_cast<int>(live.size()) >= params.max_live_files || rng.NextBool(0.3))) {
        // Overwrite an existing file (whole-file rewrite, Section 3).
        const size_t index = pick_index(live.size());
        name = live[index].first;
        live[index].second = size;
      } else {
        name = "/office/f" + std::to_string(name_counter++);
        live.emplace_back(name, size);
        ++result.files_created;
      }
      RETURN_IF_ERROR(bed.paths->WriteFile(name, Payload(size, params.seed + op)));
      result.bytes_written += size;
    }
    ++result.operations;
    bed.clock->Advance(params.think_time_seconds);
    RETURN_IF_ERROR(bed.fs->Tick());
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  result.seconds = bed.Now() - t0;
  return result;
}

// --- The paper experiments -------------------------------------------------------

Result<CreatePattern> RunCreatePattern(bool lfs) {
  // The example measures the delayed write-back only; push LFS's periodic
  // checkpoint out of the way so its writes don't join the trace.
  TestbedParams params;
  params.lfs.checkpoint_interval_seconds = 1e9;
  ASSIGN_OR_RETURN(Testbed bed, lfs ? MakeLfsTestbed(params) : MakeFfsTestbed(params));
  RETURN_IF_ERROR(bed.fs->Sync());
  bed.fs.reset();
  // Remount the same image over a tracing view. The mount probes for LFS
  // and falls back to FFS, so FFS's trace times include the probe's read.
  TracingDisk traced(bed.disk.get(), bed.clock.get());
  std::unique_ptr<FileSystem> fs;
  if (auto probe = LfsFileSystem::Mount(&traced, bed.clock.get(), bed.cpu.get()); probe.ok()) {
    fs = std::move(*probe);
  } else {
    ASSIGN_OR_RETURN(fs, FfsFileSystem::Mount(&traced, bed.clock.get(), bed.cpu.get()));
  }
  // The paper's example assumes the directories exist; quiesce so only the
  // two file creations appear in the trace.
  PathFs paths(fs.get());
  RETURN_IF_ERROR(paths.Mkdir("/dir1").status());
  RETURN_IF_ERROR(paths.Mkdir("/dir2").status());
  RETURN_IF_ERROR(fs->Sync());
  traced.ClearTrace();

  const std::vector<std::byte> block(4096, std::byte{0xAB});
  ASSIGN_OR_RETURN(InodeNum dir1, paths.Resolve("/dir1"));
  ASSIGN_OR_RETURN(InodeNum file1, fs->Create(dir1, "file1", FileType::kRegular));
  RETURN_IF_ERROR(fs->Write(file1, 0, block).status());
  ASSIGN_OR_RETURN(InodeNum dir2, paths.Resolve("/dir2"));
  ASSIGN_OR_RETURN(InodeNum file2, fs->Create(dir2, "file2", FileType::kRegular));
  RETURN_IF_ERROR(fs->Write(file2, 0, block).status());
  bed.clock->Advance(31.0);  // The write-back age expires.
  RETURN_IF_ERROR(fs->Tick());

  CreatePattern pattern;
  for (const TraceRecord& record : traced.trace()) {
    if (record.kind == TraceRecord::Kind::kWrite) {
      ++pattern.writes;
      pattern.sync_writes += record.synchronous ? 1 : 0;
      pattern.non_sequential += record.sequential ? 0 : 1;
      pattern.trace.push_back(record.ToString());
    }
  }
  return pattern;
}

Result<std::vector<FsPair>> RunCpuScaling(const std::vector<double>& mips) {
  const int pairs = 500;
  std::vector<FsPair> points;
  for (double speed : mips) {
    TestbedParams params;
    params.mips = speed;
    ASSIGN_OR_RETURN(Testbed ffs_bed, MakeFfsTestbed(params));
    ASSIGN_OR_RETURN(Testbed lfs_bed, MakeLfsTestbed(params));
    ASSIGN_OR_RETURN(CreateDeleteLatencyResult ffs, RunCreateDeleteLatency(ffs_bed, pairs));
    ASSIGN_OR_RETURN(CreateDeleteLatencyResult lfs, RunCreateDeleteLatency(lfs_bed, pairs));
    points.push_back({lfs.seconds_per_pair, ffs.seconds_per_pair});
  }
  return points;
}

Result<PhaseComparison> CompareSmallFile(const SmallFileParams& params) {
  ASSIGN_OR_RETURN(Testbed lfs_bed, MakeLfsTestbed());
  ASSIGN_OR_RETURN(Testbed ffs_bed, MakeFfsTestbed());
  PhaseComparison phases;
  ASSIGN_OR_RETURN(phases.lfs, RunSmallFileBenchmark(lfs_bed, params));
  ASSIGN_OR_RETURN(phases.ffs, RunSmallFileBenchmark(ffs_bed, params));
  return phases;
}

Result<PhaseComparison> CompareLargeFile(const LargeFileParams& params) {
  ASSIGN_OR_RETURN(Testbed lfs_bed, MakeLfsTestbed());
  ASSIGN_OR_RETURN(Testbed ffs_bed, MakeFfsTestbed());
  PhaseComparison phases;
  ASSIGN_OR_RETURN(phases.lfs, RunLargeFileBenchmark(lfs_bed, params));
  ASSIGN_OR_RETURN(phases.ffs, RunLargeFileBenchmark(ffs_bed, params));
  return phases;
}

Result<std::vector<CleaningRateResult>> RunCleaningSweep(
    const std::vector<double>& utilizations, uint64_t disk_bytes) {
  std::vector<CleaningRateResult> results;
  for (double utilization : utilizations) {
    TestbedParams bed_params;
    bed_params.disk_bytes = disk_bytes;
    bed_params.lfs_options.auto_clean = false;
    ASSIGN_OR_RETURN(Testbed bed, MakeLfsTestbed(bed_params));
    CleaningRateParams params;
    params.utilization = utilization;
    ASSIGN_OR_RETURN(CleaningRateResult result, RunCleaningRateBenchmark(bed, params));
    results.push_back(result);
  }
  return results;
}

namespace {

// A testbed whose device is a RAID-0 array; the runners only use the
// Testbed's fs, paths and clock.
struct ArrayBed {
  std::unique_ptr<StripedDisk> array;  // Outlives `bed`, which syncs to it.
  Testbed bed;
};

Result<ArrayBed> MakeArrayBed(uint32_t members, bool lfs) {
  const uint64_t array_bytes = 300ull << 20;
  ArrayBed rig;
  rig.bed.clock = std::make_unique<SimClock>();
  rig.bed.cpu = std::make_unique<CpuModel>(rig.bed.clock.get(), 10.0);
  rig.array = std::make_unique<StripedDisk>(members, array_bytes / kSectorSize / members,
                                            (128 * 1024) / kSectorSize, rig.bed.clock.get());
  if (lfs) {
    RETURN_IF_ERROR(LfsFileSystem::Format(rig.array.get(), LfsParams{}));
    ASSIGN_OR_RETURN(rig.bed.fs, LfsFileSystem::Mount(rig.array.get(), rig.bed.clock.get(),
                                                      rig.bed.cpu.get()));
  } else {
    RETURN_IF_ERROR(FfsFileSystem::Format(rig.array.get(), FfsParams{}));
    ASSIGN_OR_RETURN(rig.bed.fs, FfsFileSystem::Mount(rig.array.get(), rig.bed.clock.get(),
                                                      rig.bed.cpu.get()));
  }
  rig.bed.paths = std::make_unique<PathFs>(rig.bed.fs.get());
  return rig;
}

// `measure` on a fresh LFS and a fresh FFS array per member count.
template <typename Measure>
Result<std::vector<FsPair>> ArraySweep(const std::vector<uint32_t>& members, Measure measure) {
  std::vector<FsPair> points;
  for (uint32_t count : members) {
    ASSIGN_OR_RETURN(ArrayBed lfs_bed, MakeArrayBed(count, true));
    ASSIGN_OR_RETURN(ArrayBed ffs_bed, MakeArrayBed(count, false));
    FsPair point;
    ASSIGN_OR_RETURN(point.lfs, measure(lfs_bed.bed));
    ASSIGN_OR_RETURN(point.ffs, measure(ffs_bed.bed));
    points.push_back(point);
  }
  return points;
}

}  // namespace

Result<std::vector<FsPair>> RunArraySeqWrite(const std::vector<uint32_t>& members) {
  return ArraySweep(members, [](Testbed& bed) -> Result<double> {
    LargeFileParams params;
    params.file_bytes = 48ull << 20;
    ASSIGN_OR_RETURN(std::vector<PhaseResult> phases, RunLargeFileBenchmark(bed, params));
    return phases[0].KBytesPerSecond();
  });
}

Result<std::vector<FsPair>> RunArrayCreates(const std::vector<uint32_t>& members) {
  return ArraySweep(members, [](Testbed& bed) -> Result<double> {
    SmallFileParams params;
    params.num_files = 4000;
    params.file_size = 4096;
    ASSIGN_OR_RETURN(std::vector<PhaseResult> phases, RunSmallFileBenchmark(bed, params));
    return phases[0].OpsPerSecond();
  });
}

Result<std::vector<ReadAheadPoint>> RunReadAheadSweep(const std::vector<uint32_t>& depths) {
  std::vector<ReadAheadPoint> points;
  for (uint32_t depth : depths) {
    TestbedParams params;
    params.lfs_options.read_ahead_blocks = depth;
    // Model a late-80s SCSI command overhead so per-request costs are
    // visible (the default calibration charges positioning + transfer only).
    params.disk_model.command_overhead_ms = 1.0;
    ASSIGN_OR_RETURN(Testbed small_bed, MakeLfsTestbed(params));
    SmallFileParams small;
    small.num_files = 4000;
    small.file_size = 4096;
    ASSIGN_OR_RETURN(std::vector<PhaseResult> small_phases,
                     RunSmallFileBenchmark(small_bed, small));
    ASSIGN_OR_RETURN(Testbed large_bed, MakeLfsTestbed(params));
    LargeFileParams large;
    large.file_bytes = 64ull << 20;
    ASSIGN_OR_RETURN(std::vector<PhaseResult> large_phases,
                     RunLargeFileBenchmark(large_bed, large));
    points.push_back({small_phases[1].OpsPerSecond(), large_phases[1].KBytesPerSecond(),
                      small_bed.disk->stats().read_ops});
  }
  return points;
}

Result<std::vector<double>> RunScatteredSegmentWrites(const std::vector<uint32_t>& segment_kb) {
  const uint64_t disk_bytes = 256ull << 20;
  const uint64_t total_bytes = 32ull << 20;
  std::vector<double> mb_per_s;
  for (uint32_t kb : segment_kb) {
    SimClock clock;
    MemoryDisk disk(disk_bytes / kSectorSize, &clock);
    const std::vector<std::byte> segment(kb * 1024, std::byte{0x11});
    uint64_t sector = 0;
    for (uint64_t written = 0; written < total_bytes; written += segment.size()) {
      RETURN_IF_ERROR(disk.WriteSectors(sector, segment));
      sector += 2 * segment.size() / kSectorSize;  // Skip a live segment: forced seek.
    }
    mb_per_s.push_back(total_bytes / 1048576.0 / clock.Now());
  }
  return mb_per_s;
}

Result<std::vector<SegmentSizePoint>> RunSegmentSizeSweep(
    const std::vector<uint32_t>& segment_kb) {
  std::vector<SegmentSizePoint> points;
  for (uint32_t kb : segment_kb) {
    TestbedParams params;
    params.disk_bytes = 128ull << 20;
    params.lfs.segment_size = kb * 1024;
    ASSIGN_OR_RETURN(Testbed bed, MakeLfsTestbed(params));
    SmallFileParams small;
    small.num_files = 4000;
    small.file_size = 1024;
    ASSIGN_OR_RETURN(std::vector<PhaseResult> phases, RunSmallFileBenchmark(bed, small));
    const DiskStats& stats = bed.disk->stats();
    const double written_mb = stats.sectors_written * 512.0 / 1048576.0;
    points.push_back({phases[0].OpsPerSecond(),
                      written_mb > 0 ? stats.busy_seconds / written_mb : 0.0});
  }
  return points;
}

namespace {

// One ABL2 churn run under `policy`.
Result<LfsFileSystem::CleanerStats> ChurnUnder(SegmentUsageTable::VictimPolicy policy) {
  TestbedParams params;
  params.disk_bytes = 96ull << 20;
  params.lfs_options.cleaner_policy = policy;
  params.lfs_options.telemetry_capacity = 8;
  ASSIGN_OR_RETURN(Testbed bed, MakeLfsTestbed(params));
  const int num_files = 200;
  const std::vector<std::byte> payload(256 * 1024, std::byte{0x77});
  for (int i = 0; i < num_files; ++i) {
    RETURN_IF_ERROR(bed.paths->WriteFile("/f" + std::to_string(i), payload));
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  Rng rng(7);
  for (int round = 0; round < 400; ++round) {
    const uint64_t target =
        rng.NextBool(0.7) ? rng.NextBelow(num_files / 10) : rng.NextBelow(num_files);
    RETURN_IF_ERROR(bed.paths->WriteFile("/f" + std::to_string(target), payload));
    bed.clock->Advance(31.0);
    RETURN_IF_ERROR(bed.fs->Tick());
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  return static_cast<LfsFileSystem&>(*bed.fs).cleaner_stats();
}

}  // namespace

Result<PolicyChurn> RunPolicyChurn() {
  PolicyChurn churn;
  ASSIGN_OR_RETURN(churn.greedy, ChurnUnder(SegmentUsageTable::VictimPolicy::kGreedy));
  ASSIGN_OR_RETURN(churn.fifo, ChurnUnder(SegmentUsageTable::VictimPolicy::kFifo));
  return churn;
}

Result<std::vector<OfficeTraffic>> RunOfficeTrafficSweep(const std::vector<CachePolicy>& caches) {
  std::vector<OfficeTraffic> traffic;
  for (const CachePolicy& cache : caches) {
    TestbedParams params;
    params.lfs_options.cache_policy = cache;
    ASSIGN_OR_RETURN(Testbed bed, MakeLfsTestbed(params));
    OfficeWorkloadParams office;
    office.operations = 4000;
    ASSIGN_OR_RETURN(OfficeWorkloadResult result, RunOfficeWorkload(bed, office));
    traffic.push_back({result.OpsPerSecond(), bed.disk->stats()});
  }
  return traffic;
}

Result<ReplayComparison> CompareTraceReplay(const std::vector<TraceOp>& trace) {
  ReplayComparison runs;
  for (const bool lfs : {true, false}) {
    TraceRun& run = lfs ? runs.lfs : runs.ffs;
    ASSIGN_OR_RETURN(Testbed bed, lfs ? MakeLfsTestbed() : MakeFfsTestbed());
    ASSIGN_OR_RETURN(run.replay, ReplayTrace(bed, trace));
    RETURN_IF_ERROR(bed.fs->Sync());
    run.disk = bed.disk->stats();
  }
  return runs;
}

}  // namespace logfs
