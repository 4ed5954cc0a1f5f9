// The paper's shapes (EXPERIMENTS.md), one assertion per relationship that
// file claims. Every number is simulated time on the Section 5 testbed, so
// each run is deterministic; a bound sits below (or above) today's measured
// value by the margin written beside it, loose enough for harmless drift
// and tight enough that a flipped shape fails. Each experiment is the
// function in src/workload/benchmarks.h that `bench_paper` prints at full
// scale; slow ones run here at the reduced scale stated in the test. Run
// with `ctest -L paper`.
#include <gtest/gtest.h>

#include <vector>

#include "src/workload/benchmarks.h"
#include "src/workload/trace.h"

namespace logfs {
namespace {

constexpr double kDiskMaxKBps = 1300.0;  // WREN IV.

// --- Figures 1 & 2 ------------------------------------------------------------

TEST(PaperShapesTest, Fig1And2SmallFileCreationWrites) {
  auto ffs = RunCreatePattern(/*lfs=*/false);
  auto lfs = RunCreatePattern(/*lfs=*/true);
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
  const std::vector<double> mips = {0.9, 14.0};
  auto points = RunCpuScaling(mips);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  for (int i = 0; i < 2; ++i) {
    ffs_ms[i] = (*points)[i].ffs * 1e3;
    lfs_ms[i] = (*points)[i].lfs * 1e3;
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
  ASSIGN_OR_RETURN(PhaseComparison phases, CompareSmallFile(params));
  std::vector<double> ratios;
  for (size_t phase = 0; phase < phases.lfs.size(); ++phase) {
    ratios.push_back(phases.lfs[phase].OpsPerSecond() / phases.ffs[phase].OpsPerSecond());
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
  auto phases = CompareLargeFile(LargeFileParams{});
  ASSERT_TRUE(phases.ok()) << phases.status().ToString();
  ASSERT_EQ(phases->lfs.size(), 5u);
  const std::vector<PhaseResult>& lfs = phases->lfs;
  const std::vector<PhaseResult>& ffs = phases->ffs;
  auto kbps = [](const std::vector<PhaseResult>& run, int i) {
    return run[i].KBytesPerSecond();
  };
  auto ratio = [&](int i) { return kbps(lfs, i) / kbps(ffs, i); };
  // Sequential write: comparable (0.94x, bound 0.8-1.25x), LFS near the
  // disk maximum (1089 KB/s = 84%, bound >= 75%).
  EXPECT_GT(ratio(0), 0.8);
  EXPECT_LT(ratio(0), 1.25);
  EXPECT_GE(kbps(lfs, 0), 0.75 * kDiskMaxKBps);
  // Sequential read: comparable (0.93x, bound 0.8-1.25x).
  EXPECT_GT(ratio(1), 0.8);
  EXPECT_LT(ratio(1), 1.25);
  // Random write: LFS >> FFS (2.28x, bound >= 1.8x), and LFS writes as fast
  // randomly as sequentially (0.95 of its sequential rate, bound >= 0.8).
  EXPECT_GE(ratio(2), 1.8);
  EXPECT_GE(kbps(lfs, 2), 0.8 * kbps(lfs, 0));
  // Random read: comparable (0.98x, bound 0.8-1.25x).
  EXPECT_GT(ratio(3), 0.8);
  EXPECT_LT(ratio(3), 1.25);
  // Sequential reread after random writes: FFS > LFS (0.25x, bound <= 0.4x).
  EXPECT_LE(ratio(4), 0.4);
}

// --- Figure 5 -----------------------------------------------------------------

TEST(PaperShapesTest, Fig5CleaningRateDeclinesWithUtilization) {
  // Reduced: a 100 MB disk and six of the bench's eleven utilizations.
  auto results = RunCleaningSweep({0.0, 0.2, 0.4, 0.6, 0.8, 0.95}, 100ull << 20);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  std::vector<double> rates;
  for (const CleaningRateResult& result : *results) {
    rates.push_back(result.CleanKBytesPerSecond());
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
  auto runs = CompareTraceReplay(GenerateOfficeTrace(2000, /*seed=*/42));
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  // 4.80x faster (bound >= 3.5x) with 19x fewer disk writes (bound >= 10x)
  // and 35x fewer synchronous ones (bound >= 10x).
  EXPECT_GE(runs->ffs.replay.ActiveSeconds() / runs->lfs.replay.ActiveSeconds(), 3.5);
  const DiskStats& l = runs->lfs.disk;
  const DiskStats& f = runs->ffs.disk;
  EXPECT_GE(f.write_ops, 10 * l.write_ops);
  EXPECT_GE(f.sync_writes, 10 * l.sync_writes);
}

// --- Extension: RAID-0 --------------------------------------------------------

TEST(PaperShapesTest, RaidArrayHelpsBandwidthBoundLfsNotLatencyBoundFfs) {
  // Reduced: 1 and 4 members (the bench also runs 2 and 8).
  auto seq_write = RunArraySeqWrite({1, 4});
  auto creates = RunArrayCreates({1, 4});
  ASSERT_TRUE(seq_write.ok()) << seq_write.status().ToString();
  ASSERT_TRUE(creates.ok()) << creates.status().ToString();
  // Sequential write at 4 members: LFS 2.18x (bound >= 1.7x), FFS 0.99x
  // (bound <= 1.1x).
  EXPECT_GE((*seq_write)[1].lfs / (*seq_write)[0].lfs, 1.7);
  EXPECT_LE((*seq_write)[1].ffs / (*seq_write)[0].ffs, 1.1);
  // Small-file creation at 4 members: LFS 1.44x (bound >= 1.2x), FFS 0.88x
  // (bound <= 1.0x: the array does not help it).
  EXPECT_GE((*creates)[1].lfs / (*creates)[0].lfs, 1.2);
  EXPECT_LE((*creates)[1].ffs / (*creates)[0].ffs, 1.0);
}

// --- Extension: read-ahead ----------------------------------------------------

TEST(PaperShapesTest, ReadAheadSpeedsSequentialReadsNotOneBlockFiles) {
  // Reduced: read-ahead off vs 32 blocks (the bench also runs 2 and 8).
  auto points = RunReadAheadSweep({0, 32});
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  const ReadAheadPoint& off = (*points)[0];
  const ReadAheadPoint& deep = (*points)[1];
  // 867 -> 1097 KB/s (1.27x, bound >= 1.15x); one-block files unchanged
  // (119.4 files/s both ways, bound within 2%).
  EXPECT_GE(deep.seq_read_kbps, 1.15 * off.seq_read_kbps);
  EXPECT_NEAR(deep.small_reads_per_s, off.small_reads_per_s, 0.02 * off.small_reads_per_s);
}

// --- Ablations ----------------------------------------------------------------

TEST(PaperShapesTest, Abl1LargeSegmentsAmortizeTheSeek) {
  // Share of the disk maximum at 64 KB, 256 KB, 1 MB and 4 MB segments,
  // each transfer written into alternating holes of a 256 MB disk.
  auto mb_s = RunScatteredSegmentWrites({64, 256, 1024, 4096});
  ASSERT_TRUE(mb_s.ok()) << mb_s.status().ToString();
  std::vector<double> share;
  for (double rate : *mb_s) {
    share.push_back(rate / (kDiskMaxKBps * 1000.0 / 1048576.0));
  }
  for (size_t i = 1; i < share.size(); ++i) {
    EXPECT_GT(share[i], share[i - 1]) << "segment size " << i;
  }
  // 64 KB: 83.1% (bound < 90%); 1 MB: 98.5% (bound > 98%, the row's claim).
  EXPECT_LT(share[0], 0.90);
  EXPECT_GT(share[2], 0.98);

  // On a fresh, contiguous log the segment size costs nothing: small-file
  // creates/s at 64 KB segments are 97% of those at 1 MB (bound >= 90%).
  auto fresh = RunSegmentSizeSweep({64, 1024});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_GE((*fresh)[0].creates_per_s, 0.9 * (*fresh)[1].creates_per_s);
}

TEST(PaperShapesTest, Abl2GreedyVictimsCopyLessThanFifo) {
  // Live blocks copied per cleaned segment under hot/cold churn on a 96 MB
  // disk.
  auto churn = RunPolicyChurn();
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  auto copies_per_segment = [](const LfsFileSystem::CleanerStats& cleaner) {
    return static_cast<double>(cleaner.live_blocks_copied) /
           static_cast<double>(cleaner.segments_cleaned);
  };
  const double greedy = copies_per_segment(churn->greedy);
  const double fifo = copies_per_segment(churn->fifo);
  // Greedy 40.0 vs FIFO 117.1 copies per segment (0.34x, bound <= 0.5x).
  EXPECT_LE(greedy, 0.5 * fifo) << "greedy " << greedy << " fifo " << fifo;
}

TEST(PaperShapesTest, Abl3CacheAbsorbsReadsAndAgeAbsorbsWrites) {
  // Disk traffic of the 4000-op office workload with a 1 MB and a 15 MB
  // cache of 4 KB blocks at the 30 s write-back age, and at a 1 s age.
  auto traffic = RunOfficeTrafficSweep(
      {{.capacity_blocks = 1 * 256},
       {.capacity_blocks = 15 * 256},
       {.capacity_blocks = 15 * 256, .writeback_age_seconds = 1.0}});
  ASSERT_TRUE(traffic.ok()) << traffic.status().ToString();
  const DiskStats& small_cache = (*traffic)[0].disk;
  const DiskStats& paper_cache = (*traffic)[1].disk;
  const DiskStats& short_age = (*traffic)[2].disk;
  // 1 -> 15 MB cache: reads 777 -> 2 (bound: fall >= 50x), and at 15 MB
  // writes outnumber reads 12.5x (bound >= 5x).
  EXPECT_GE(small_cache.read_ops, 50 * paper_cache.read_ops);
  EXPECT_GE(paper_cache.write_ops, 5 * paper_cache.read_ops);
  // Write-back age 1 -> 30 s: disk writes 227 -> 25 (9.1x, bound >= 5x).
  EXPECT_GE(short_age.write_ops, 5 * paper_cache.write_ops);
}

}  // namespace
}  // namespace logfs
