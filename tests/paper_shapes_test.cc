// The paper's shapes (EXPERIMENTS.md), one assertion per relationship that
// file claims. Every number is simulated time on the Section 5 testbed, so
// each run is deterministic; a bound sits below (or above) today's measured
// value by the margin written beside it, loose enough for harmless drift
// and tight enough that a flipped shape fails. Figures whose bench/ binary
// takes tens of seconds run here at the reduced scale stated in the test;
// the bench binaries print the full tables. Run with `ctest -L paper`.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/disk/memory_disk.h"
#include "src/disk/striped_disk.h"
#include "src/disk/tracing_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/util/rng.h"
#include "src/workload/benchmarks.h"
#include "src/workload/testbed.h"
#include "src/workload/trace.h"

namespace logfs {
namespace {

constexpr double kDiskMaxKBps = 1300.0;  // WREN IV.

// --- Figures 1 & 2 ------------------------------------------------------------

struct WritePattern {
  uint64_t writes = 0;
  uint64_t sync_writes = 0;
  uint64_t non_sequential = 0;
};

// Creates dir1/file1 and dir2/file2 (one block each) on a traced device and
// lets delayed write-back complete; counts the resulting disk writes.
Result<WritePattern> TwoFileCreatePattern(bool lfs) {
  TestbedParams params;
  params.lfs.checkpoint_interval_seconds = 1e9;  // Keep checkpoints out of the trace.
  ASSIGN_OR_RETURN(Testbed bed, lfs ? MakeLfsTestbed(params) : MakeFfsTestbed(params));
  RETURN_IF_ERROR(bed.fs->Sync());
  bed.fs.reset();
  TracingDisk traced(bed.disk.get(), bed.clock.get());
  std::unique_ptr<FileSystem> fs;
  if (lfs) {
    ASSIGN_OR_RETURN(fs, LfsFileSystem::Mount(&traced, bed.clock.get(), bed.cpu.get()));
  } else {
    ASSIGN_OR_RETURN(fs, FfsFileSystem::Mount(&traced, bed.clock.get(), bed.cpu.get()));
  }
  PathFs paths(fs.get());
  ASSIGN_OR_RETURN(InodeNum dir1, paths.Mkdir("/dir1"));
  ASSIGN_OR_RETURN(InodeNum dir2, paths.Mkdir("/dir2"));
  RETURN_IF_ERROR(fs->Sync());
  traced.ClearTrace();

  const std::vector<std::byte> block(4096, std::byte{0xAB});
  ASSIGN_OR_RETURN(InodeNum file1, fs->Create(dir1, "file1", FileType::kRegular));
  RETURN_IF_ERROR(fs->Write(file1, 0, block).status());
  ASSIGN_OR_RETURN(InodeNum file2, fs->Create(dir2, "file2", FileType::kRegular));
  RETURN_IF_ERROR(fs->Write(file2, 0, block).status());
  bed.clock->Advance(31.0);  // The write-back age expires.
  RETURN_IF_ERROR(fs->Tick());

  WritePattern pattern;
  for (const TraceRecord& record : traced.trace()) {
    if (record.kind == TraceRecord::Kind::kWrite) {
      ++pattern.writes;
      pattern.sync_writes += record.synchronous ? 1 : 0;
      pattern.non_sequential += record.sequential ? 0 : 1;
    }
  }
  return pattern;
}

TEST(PaperShapesTest, Fig1And2SmallFileCreationWrites) {
  auto ffs = TwoFileCreatePattern(/*lfs=*/false);
  auto lfs = TwoFileCreatePattern(/*lfs=*/true);
  ASSERT_TRUE(ffs.ok()) << ffs.status().ToString();
  ASSERT_TRUE(lfs.ok()) << lfs.status().ToString();
  // Exact, as in the paper: FFS 8 writes, 4 synchronous, 8 non-sequential;
  // LFS one asynchronous transfer.
  EXPECT_EQ(ffs->writes, 8u);
  EXPECT_EQ(ffs->sync_writes, 4u);
  EXPECT_EQ(ffs->non_sequential, 8u);
  EXPECT_EQ(lfs->writes, 1u);
  EXPECT_EQ(lfs->sync_writes, 0u);
  EXPECT_EQ(lfs->non_sequential, 1u);
}

// --- Section 3.1 --------------------------------------------------------------

TEST(PaperShapesTest, Sec31CreateDeleteLatencyScalesWithCpuOnlyUnderLfs) {
  double ffs_ms[2];
  double lfs_ms[2];
  const double mips[2] = {0.9, 14.0};
  for (int i = 0; i < 2; ++i) {
    TestbedParams params;
    params.mips = mips[i];
    auto ffs_bed = MakeFfsTestbed(params);
    auto lfs_bed = MakeLfsTestbed(params);
    ASSERT_TRUE(ffs_bed.ok() && lfs_bed.ok());
    auto ffs = RunCreateDeleteLatency(*ffs_bed, 500);
    auto lfs = RunCreateDeleteLatency(*lfs_bed, 500);
    ASSERT_TRUE(ffs.ok() && lfs.ok());
    ffs_ms[i] = ffs->seconds_per_pair * 1e3;
    lfs_ms[i] = lfs->seconds_per_pair * 1e3;
    EXPECT_LT(lfs_ms[i], ffs_ms[i]) << mips[i] << " MIPS";
  }
  // A 15.6x faster CPU: FFS 105.1 -> 68.7 ms (1.53x, bound < 2x; the
  // paper's 1.25x), LFS 39.1 -> 2.7 ms (14.5x, bound > 10x).
  EXPECT_LT(ffs_ms[0] / ffs_ms[1], 2.0);
  EXPECT_GT(lfs_ms[0] / lfs_ms[1], 10.0);
}

// --- Figure 3 -----------------------------------------------------------------

// LFS/FFS files per second for each phase (create, read, delete).
Result<std::vector<double>> SmallFileRatios(int num_files, size_t file_size) {
  SmallFileParams params;
  params.num_files = num_files;
  params.file_size = file_size;
  ASSIGN_OR_RETURN(Testbed lfs_bed, MakeLfsTestbed());
  ASSIGN_OR_RETURN(Testbed ffs_bed, MakeFfsTestbed());
  ASSIGN_OR_RETURN(std::vector<PhaseResult> lfs, RunSmallFileBenchmark(lfs_bed, params));
  ASSIGN_OR_RETURN(std::vector<PhaseResult> ffs, RunSmallFileBenchmark(ffs_bed, params));
  std::vector<double> ratios;
  for (size_t phase = 0; phase < lfs.size(); ++phase) {
    ratios.push_back(lfs[phase].OpsPerSecond() / ffs[phase].OpsPerSecond());
  }
  return ratios;
}

TEST(PaperShapesTest, Fig3SmallFileCreateReadDelete) {
  // Measured 8.1x / 3.8x / 18.8x; bounds about a quarter below.
  auto kb1 = SmallFileRatios(10000, 1024);
  ASSERT_TRUE(kb1.ok()) << kb1.status().ToString();
  ASSERT_EQ(kb1->size(), 3u);
  EXPECT_GE((*kb1)[0], 6.0) << "create, 10000 x 1 KB";
  EXPECT_GE((*kb1)[1], 2.8) << "read, 10000 x 1 KB";
  EXPECT_GE((*kb1)[2], 14.0) << "delete, 10000 x 1 KB";
  // Measured 4.4x / 2.4x / 17.9x.
  auto kb10 = SmallFileRatios(1000, 10240);
  ASSERT_TRUE(kb10.ok()) << kb10.status().ToString();
  ASSERT_EQ(kb10->size(), 3u);
  EXPECT_GE((*kb10)[0], 3.3) << "create, 1000 x 10 KB";
  EXPECT_GE((*kb10)[1], 1.8) << "read, 1000 x 10 KB";
  EXPECT_GE((*kb10)[2], 13.0) << "delete, 1000 x 10 KB";
}

// --- Figure 4 -----------------------------------------------------------------

TEST(PaperShapesTest, Fig4LargeFileFiveRelationships) {
  auto lfs_bed = MakeLfsTestbed();
  auto ffs_bed = MakeFfsTestbed();
  ASSERT_TRUE(lfs_bed.ok() && ffs_bed.ok());
  auto lfs = RunLargeFileBenchmark(*lfs_bed, LargeFileParams{});
  auto ffs = RunLargeFileBenchmark(*ffs_bed, LargeFileParams{});
  ASSERT_TRUE(lfs.ok()) << lfs.status().ToString();
  ASSERT_TRUE(ffs.ok()) << ffs.status().ToString();
  ASSERT_EQ(lfs->size(), 5u);
  auto kbps = [](const std::vector<PhaseResult>& phases, int i) {
    return phases[i].KBytesPerSecond();
  };
  auto ratio = [&](int i) { return kbps(*lfs, i) / kbps(*ffs, i); };
  // Sequential write: comparable (0.94x, bound 0.8-1.25x), LFS near the
  // disk maximum (1089 KB/s = 84%, bound >= 75%).
  EXPECT_GT(ratio(0), 0.8);
  EXPECT_LT(ratio(0), 1.25);
  EXPECT_GE(kbps(*lfs, 0), 0.75 * kDiskMaxKBps);
  // Sequential read: comparable (0.93x, bound 0.8-1.25x).
  EXPECT_GT(ratio(1), 0.8);
  EXPECT_LT(ratio(1), 1.25);
  // Random write: LFS >> FFS (2.28x, bound >= 1.8x), and LFS writes as fast
  // randomly as sequentially (0.95 of its sequential rate, bound >= 0.8).
  EXPECT_GE(ratio(2), 1.8);
  EXPECT_GE(kbps(*lfs, 2), 0.8 * kbps(*lfs, 0));
  // Random read: comparable (0.98x, bound 0.8-1.25x).
  EXPECT_GT(ratio(3), 0.8);
  EXPECT_LT(ratio(3), 1.25);
  // Sequential reread after random writes: FFS > LFS (0.25x, bound <= 0.4x).
  EXPECT_LE(ratio(4), 0.4);
}

// --- Figure 5 -----------------------------------------------------------------

TEST(PaperShapesTest, Fig5CleaningRateDeclinesWithUtilization) {
  // Reduced: a 100 MB disk and six of the bench's eleven utilizations.
  std::vector<double> rates;
  for (double utilization : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    TestbedParams bed_params;
    bed_params.disk_bytes = 100ull << 20;
    bed_params.lfs_options.auto_clean = false;
    auto bed = MakeLfsTestbed(bed_params);
    ASSERT_TRUE(bed.ok());
    CleaningRateParams params;
    params.utilization = utilization;
    auto result = RunCleaningRateBenchmark(*bed, params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    rates.push_back(result->CleanKBytesPerSecond());
  }
  // Measured 19997, 818, 566, 370, 213, 111 KB/s: strictly decreasing, and
  // the top point 0.0056 of the u = 0 point (bound <= 0.15). At u = 0 almost
  // every victim is empty and costs only its pass's checkpoint, so the rate
  // is 15.4x the disk maximum (bound >= 5x): a pass that read its victims
  // could not pass 1x, since reading a segment alone takes its size at the
  // disk maximum. Near-free by the looser measure too (bound >= 75%).
  for (size_t i = 1; i < rates.size(); ++i) {
    EXPECT_LT(rates[i], rates[i - 1]) << "not monotone at point " << i;
  }
  EXPECT_GE(rates.front(), 0.75 * kDiskMaxKBps);
  EXPECT_GE(rates.front(), 5 * kDiskMaxKBps);
  EXPECT_LE(rates.back(), 0.15 * rates.front());
}

// --- Office/engineering replay ------------------------------------------------

TEST(PaperShapesTest, OfficeReplayRunsFasterOnLfs) {
  const std::vector<TraceOp> trace = GenerateOfficeTrace(2000, /*seed=*/42);
  auto lfs_bed = MakeLfsTestbed();
  auto ffs_bed = MakeFfsTestbed();
  ASSERT_TRUE(lfs_bed.ok() && ffs_bed.ok());
  auto lfs = ReplayTrace(*lfs_bed, trace);
  auto ffs = ReplayTrace(*ffs_bed, trace);
  ASSERT_TRUE(lfs.ok()) << lfs.status().ToString();
  ASSERT_TRUE(ffs.ok()) << ffs.status().ToString();
  ASSERT_TRUE(lfs_bed->fs->Sync().ok() && ffs_bed->fs->Sync().ok());
  // 4.80x faster (bound >= 3.5x) with 19x fewer disk writes (bound >= 10x)
  // and 35x fewer synchronous ones (bound >= 10x).
  EXPECT_GE(ffs->ActiveSeconds() / lfs->ActiveSeconds(), 3.5);
  const DiskStats& l = lfs_bed->disk->stats();
  const DiskStats& f = ffs_bed->disk->stats();
  EXPECT_GE(f.write_ops, 10 * l.write_ops);
  EXPECT_GE(f.sync_writes, 10 * l.sync_writes);
}

// --- Extension: RAID-0 --------------------------------------------------------

// A file system over a ~300 MB RAID-0 array with a 128 KB stripe unit.
struct ArrayBed {
  std::unique_ptr<StripedDisk> array;  // Outlives `bed`, which syncs to it.
  Testbed bed;
};

Result<std::unique_ptr<ArrayBed>> MakeArrayBed(uint32_t members, bool lfs) {
  auto rig = std::make_unique<ArrayBed>();
  rig->bed.clock = std::make_unique<SimClock>();
  rig->bed.cpu = std::make_unique<CpuModel>(rig->bed.clock.get(), 10.0);
  rig->array = std::make_unique<StripedDisk>(members, (300ull << 20) / kSectorSize / members,
                                             (128 * 1024) / kSectorSize, rig->bed.clock.get());
  if (lfs) {
    RETURN_IF_ERROR(LfsFileSystem::Format(rig->array.get(), LfsParams{}));
    ASSIGN_OR_RETURN(rig->bed.fs, LfsFileSystem::Mount(rig->array.get(), rig->bed.clock.get(),
                                                       rig->bed.cpu.get()));
  } else {
    RETURN_IF_ERROR(FfsFileSystem::Format(rig->array.get(), FfsParams{}));
    ASSIGN_OR_RETURN(rig->bed.fs, FfsFileSystem::Mount(rig->array.get(), rig->bed.clock.get(),
                                                       rig->bed.cpu.get()));
  }
  rig->bed.paths = std::make_unique<PathFs>(rig->bed.fs.get());
  return rig;
}

// Sequential-write KB/s (48 MB file) and small-file creates/s (4000 x 4 KB)
// on an array of `members` disks.
struct ArrayRates {
  double seq_write_kbps = 0.0;
  double creates_per_s = 0.0;
};

Result<ArrayRates> MeasureArray(uint32_t members, bool lfs) {
  ArrayRates rates;
  ASSIGN_OR_RETURN(auto large, MakeArrayBed(members, lfs));
  LargeFileParams large_params;
  large_params.file_bytes = 48ull << 20;
  ASSIGN_OR_RETURN(auto phases, RunLargeFileBenchmark(large->bed, large_params));
  rates.seq_write_kbps = phases[0].KBytesPerSecond();
  ASSIGN_OR_RETURN(auto small, MakeArrayBed(members, lfs));
  SmallFileParams small_params;
  small_params.num_files = 4000;
  small_params.file_size = 4096;
  ASSIGN_OR_RETURN(phases, RunSmallFileBenchmark(small->bed, small_params));
  rates.creates_per_s = phases[0].OpsPerSecond();
  return rates;
}

TEST(PaperShapesTest, RaidArrayHelpsBandwidthBoundLfsNotLatencyBoundFfs) {
  // Reduced: 1 and 4 members (the bench also runs 2 and 8).
  auto lfs1 = MeasureArray(1, true);
  auto lfs4 = MeasureArray(4, true);
  auto ffs1 = MeasureArray(1, false);
  auto ffs4 = MeasureArray(4, false);
  ASSERT_TRUE(lfs1.ok() && lfs4.ok() && ffs1.ok() && ffs4.ok());
  // Sequential write at 4 members: LFS 2.18x (bound >= 1.7x), FFS 0.99x
  // (bound <= 1.1x).
  EXPECT_GE(lfs4->seq_write_kbps / lfs1->seq_write_kbps, 1.7);
  EXPECT_LE(ffs4->seq_write_kbps / ffs1->seq_write_kbps, 1.1);
  // Small-file creation at 4 members: LFS 1.44x (bound >= 1.2x), FFS 0.88x
  // (bound <= 1.0x: the array does not help it).
  EXPECT_GE(lfs4->creates_per_s / lfs1->creates_per_s, 1.2);
  EXPECT_LE(ffs4->creates_per_s / ffs1->creates_per_s, 1.0);
}

// --- Extension: read-ahead ----------------------------------------------------

TEST(PaperShapesTest, ReadAheadSpeedsSequentialReadsNotOneBlockFiles) {
  // Reduced: read-ahead off vs 32 blocks (the bench also runs 2 and 8).
  double seq_read_kbps[2];
  double small_read_per_s[2];
  const uint32_t depths[2] = {0, 32};
  for (int i = 0; i < 2; ++i) {
    TestbedParams params;
    params.lfs_options.read_ahead_blocks = depths[i];
    params.disk_model.command_overhead_ms = 1.0;
    auto small_bed = MakeLfsTestbed(params);
    auto large_bed = MakeLfsTestbed(params);
    ASSERT_TRUE(small_bed.ok() && large_bed.ok());
    SmallFileParams small;
    small.num_files = 4000;
    small.file_size = 4096;
    auto small_phases = RunSmallFileBenchmark(*small_bed, small);
    LargeFileParams large;
    large.file_bytes = 64ull << 20;
    auto large_phases = RunLargeFileBenchmark(*large_bed, large);
    ASSERT_TRUE(small_phases.ok() && large_phases.ok());
    small_read_per_s[i] = (*small_phases)[1].OpsPerSecond();
    seq_read_kbps[i] = (*large_phases)[1].KBytesPerSecond();
  }
  // 867 -> 1097 KB/s (1.27x, bound >= 1.15x); one-block files unchanged
  // (119.4 files/s both ways, bound within 2%).
  EXPECT_GE(seq_read_kbps[1], 1.15 * seq_read_kbps[0]);
  EXPECT_NEAR(small_read_per_s[1], small_read_per_s[0], 0.02 * small_read_per_s[0]);
}

// --- Ablations ----------------------------------------------------------------

// ABL1 part 1: MB/s of 32 MB written as segment-sized transfers into
// alternating holes, so each transfer pays one positioning delay.
Result<double> ScatteredSegmentWriteMBps(uint32_t segment_kb) {
  SimClock clock;
  MemoryDisk disk((256ull << 20) / kSectorSize, &clock);
  const uint64_t total_bytes = 32ull << 20;
  const std::vector<std::byte> segment(segment_kb * 1024, std::byte{0x11});
  uint64_t sector = 0;
  for (uint64_t written = 0; written < total_bytes; written += segment.size()) {
    RETURN_IF_ERROR(disk.WriteSectors(sector, segment));
    sector += 2 * segment.size() / kSectorSize;  // Skip a live segment.
  }
  return total_bytes / 1048576.0 / clock.Now();
}

TEST(PaperShapesTest, Abl1LargeSegmentsAmortizeTheSeek) {
  // Share of the disk maximum at 64 KB, 256 KB, 1 MB and 4 MB segments.
  std::vector<double> share;
  for (uint32_t kb : {64u, 256u, 1024u, 4096u}) {
    auto mb_s = ScatteredSegmentWriteMBps(kb);
    ASSERT_TRUE(mb_s.ok()) << mb_s.status().ToString();
    share.push_back(*mb_s / (kDiskMaxKBps * 1000.0 / 1048576.0));
  }
  for (size_t i = 1; i < share.size(); ++i) {
    EXPECT_GT(share[i], share[i - 1]) << "segment size " << i;
  }
  // 64 KB: 83.1% (bound < 90%); 1 MB: 98.5% (bound > 98%, the row's claim).
  EXPECT_LT(share[0], 0.90);
  EXPECT_GT(share[2], 0.98);

  // On a fresh, contiguous log the segment size costs nothing: small-file
  // creates/s at 64 KB segments are 97% of those at 1 MB (bound >= 90%).
  double creates[2];
  const uint32_t segment_kb[2] = {64, 1024};
  for (int i = 0; i < 2; ++i) {
    TestbedParams params;
    params.disk_bytes = 128ull << 20;
    params.lfs.segment_size = segment_kb[i] * 1024;
    auto bed = MakeLfsTestbed(params);
    ASSERT_TRUE(bed.ok());
    SmallFileParams small;
    small.num_files = 4000;
    auto phases = RunSmallFileBenchmark(*bed, small);
    ASSERT_TRUE(phases.ok()) << phases.status().ToString();
    creates[i] = (*phases)[0].OpsPerSecond();
  }
  EXPECT_GE(creates[0], 0.9 * creates[1]);
}

// ABL2: live blocks copied per cleaned segment under hot/cold overwrite
// churn (70% of 400 overwrites hit 10% of 200 files of 256 KB on a 96 MB
// disk). Every round checkpoints; the flight recorder's ring rides in the
// checkpoint region's slack at no simulated cost, and an 8-sample ring
// keeps its host-side encoding cheap without moving any number.
Result<double> CopiesPerCleanedSegment(SegmentUsageTable::VictimPolicy policy) {
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
    const uint64_t target = rng.NextBool(0.7) ? rng.NextBelow(num_files / 10)
                                              : rng.NextBelow(num_files);
    RETURN_IF_ERROR(bed.paths->WriteFile("/f" + std::to_string(target), payload));
    bed.clock->Advance(31.0);
    RETURN_IF_ERROR(bed.fs->Tick());
  }
  RETURN_IF_ERROR(bed.fs->Sync());
  const auto& stats = static_cast<LfsFileSystem&>(*bed.fs).cleaner_stats();
  return static_cast<double>(stats.live_blocks_copied) /
         static_cast<double>(stats.segments_cleaned);
}

TEST(PaperShapesTest, Abl2GreedyVictimsCopyLessThanFifo) {
  auto greedy = CopiesPerCleanedSegment(SegmentUsageTable::VictimPolicy::kGreedy);
  auto fifo = CopiesPerCleanedSegment(SegmentUsageTable::VictimPolicy::kFifo);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  ASSERT_TRUE(fifo.ok()) << fifo.status().ToString();
  // Greedy 40.0 vs FIFO 117.1 copies per segment (0.34x, bound <= 0.5x).
  EXPECT_LE(*greedy, 0.5 * *fifo) << "greedy " << *greedy << " fifo " << *fifo;
}

// ABL3: disk traffic of the 4000-op office workload.
Result<DiskStats> OfficeDiskTraffic(size_t cache_mb, double writeback_age_seconds) {
  TestbedParams params;
  params.lfs_options.cache_policy.capacity_blocks = cache_mb * 256;  // 4 KB blocks.
  params.lfs_options.cache_policy.writeback_age_seconds = writeback_age_seconds;
  ASSIGN_OR_RETURN(Testbed bed, MakeLfsTestbed(params));
  OfficeWorkloadParams office;
  office.operations = 4000;
  RETURN_IF_ERROR(RunOfficeWorkload(bed, office).status());
  return bed.disk->stats();
}

TEST(PaperShapesTest, Abl3CacheAbsorbsReadsAndAgeAbsorbsWrites) {
  auto small_cache = OfficeDiskTraffic(1, 30.0);
  auto paper_cache = OfficeDiskTraffic(15, 30.0);
  auto short_age = OfficeDiskTraffic(15, 1.0);
  ASSERT_TRUE(small_cache.ok() && paper_cache.ok() && short_age.ok());
  // 1 -> 15 MB cache: reads 777 -> 2 (bound: fall >= 50x), and at 15 MB
  // writes outnumber reads 12.5x (bound >= 5x).
  EXPECT_GE(small_cache->read_ops, 50 * paper_cache->read_ops);
  EXPECT_GE(paper_cache->write_ops, 5 * paper_cache->read_ops);
  // Write-back age 1 -> 30 s: disk writes 227 -> 25 (9.1x, bound >= 5x).
  EXPECT_GE(short_age->write_ops, 5 * paper_cache->write_ops);
}

}  // namespace
}  // namespace logfs
