// Tests for the workload layer: testbeds, the figure benchmarks (scaled
// down), trace parse/format/replay round trips, and the report printer.
#include <gtest/gtest.h>

#include <sstream>

#include "src/workload/benchmarks.h"
#include "src/workload/report.h"
#include "src/workload/testbed.h"
#include "src/workload/trace.h"

namespace logfs {
namespace {

TestbedParams SmallParams() {
  TestbedParams params;
  params.disk_bytes = 64ull << 20;
  params.lfs.max_inodes = 8192;
  return params;
}

TEST(TestbedTest, LfsAndFfsTestbedsMount) {
  auto lfs = MakeLfsTestbed(SmallParams());
  ASSERT_TRUE(lfs.ok());
  EXPECT_EQ(lfs->fs->name(), "LFS");
  auto ffs = MakeFfsTestbed(SmallParams());
  ASSERT_TRUE(ffs.ok());
  EXPECT_EQ(ffs->fs->name(), "FFS");
  // Stats were reset after mount.
  EXPECT_EQ(lfs->disk->stats().write_ops, 0u);
}

TEST(SmallFileBenchmarkTest, RunsAndReportsAllPhases) {
  auto bed = MakeLfsTestbed(SmallParams());
  ASSERT_TRUE(bed.ok());
  SmallFileParams params;
  params.num_files = 200;
  params.file_size = 1024;
  auto phases = RunSmallFileBenchmark(*bed, params);
  ASSERT_TRUE(phases.ok());
  ASSERT_EQ(phases->size(), 3u);
  EXPECT_EQ((*phases)[0].name, "create");
  EXPECT_EQ((*phases)[1].name, "read");
  EXPECT_EQ((*phases)[2].name, "delete");
  for (const PhaseResult& phase : *phases) {
    EXPECT_EQ(phase.operations, 200u);
    EXPECT_GT(phase.seconds, 0.0);
    EXPECT_GT(phase.OpsPerSecond(), 0.0);
  }
}

TEST(SmallFileBenchmarkTest, LfsCreatesFasterThanFfs) {
  SmallFileParams params;
  params.num_files = 300;
  auto lfs_bed = MakeLfsTestbed(SmallParams());
  auto ffs_bed = MakeFfsTestbed(SmallParams());
  ASSERT_TRUE(lfs_bed.ok() && ffs_bed.ok());
  auto lfs = RunSmallFileBenchmark(*lfs_bed, params);
  auto ffs = RunSmallFileBenchmark(*ffs_bed, params);
  ASSERT_TRUE(lfs.ok() && ffs.ok());
  // The paper's headline claim, at reduced scale: several-fold faster
  // creation and deletion.
  EXPECT_GT((*lfs)[0].OpsPerSecond(), 3.0 * (*ffs)[0].OpsPerSecond());
  EXPECT_GT((*lfs)[2].OpsPerSecond(), 3.0 * (*ffs)[2].OpsPerSecond());
  // Reads at least competitive.
  EXPECT_GT((*lfs)[1].OpsPerSecond(), 0.8 * (*ffs)[1].OpsPerSecond());
}

TEST(LargeFileBenchmarkTest, FivePhasesAndPaperShape) {
  LargeFileParams params;
  params.file_bytes = 8 << 20;  // Scaled down.
  auto lfs_bed = MakeLfsTestbed(SmallParams());
  auto ffs_bed = MakeFfsTestbed(SmallParams());
  ASSERT_TRUE(lfs_bed.ok() && ffs_bed.ok());
  auto lfs = RunLargeFileBenchmark(*lfs_bed, params);
  auto ffs = RunLargeFileBenchmark(*ffs_bed, params);
  ASSERT_TRUE(lfs.ok() && ffs.ok());
  ASSERT_EQ(lfs->size(), 5u);
  // LFS random writes >> FFS random writes (the headline of Figure 4).
  EXPECT_GT((*lfs)[2].KBytesPerSecond(), 1.5 * (*ffs)[2].KBytesPerSecond());
  // FFS wins the sequential reread after random updates.
  EXPECT_GT((*ffs)[4].KBytesPerSecond(), (*lfs)[4].KBytesPerSecond());
  // LFS write bandwidth roughly pattern-independent (within 2x).
  EXPECT_GT((*lfs)[2].KBytesPerSecond(), (*lfs)[0].KBytesPerSecond() / 2);
}

TEST(CleaningBenchmarkTest, RateFallsWithUtilization) {
  TestbedParams params = SmallParams();
  params.lfs_options.auto_clean = false;
  CleaningRateParams low;
  low.utilization = 0.1;
  low.fill_bytes = 24 << 20;
  CleaningRateParams high = low;
  high.utilization = 0.8;

  auto bed_low = MakeLfsTestbed(params);
  auto bed_high = MakeLfsTestbed(params);
  ASSERT_TRUE(bed_low.ok() && bed_high.ok());
  auto rate_low = RunCleaningRateBenchmark(*bed_low, low);
  auto rate_high = RunCleaningRateBenchmark(*bed_high, high);
  ASSERT_TRUE(rate_low.ok()) << rate_low.status().ToString();
  ASSERT_TRUE(rate_high.ok()) << rate_high.status().ToString();
  EXPECT_GT(rate_low->segments_cleaned, 0u);
  EXPECT_GT(rate_high->segments_cleaned, 0u);
  // Figure 5's shape at two points.
  EXPECT_GT(rate_low->CleanKBytesPerSecond(), 2.0 * rate_high->CleanKBytesPerSecond());
  EXPECT_LT(rate_low->utilization_measured, rate_high->utilization_measured);
}

TEST(CreateDeleteLatencyTest, FfsIsDiskBoundLfsIsCpuBound) {
  TestbedParams slow = SmallParams();
  slow.mips = 1.0;
  TestbedParams fast = SmallParams();
  fast.mips = 16.0;
  auto run = [](TestbedParams params, bool lfs) {
    auto bed = lfs ? MakeLfsTestbed(params) : MakeFfsTestbed(params);
    auto result = RunCreateDeleteLatency(*bed, 200);
    return result->seconds_per_pair;
  };
  const double ffs_slow = run(slow, false);
  const double ffs_fast = run(fast, false);
  const double lfs_slow = run(slow, true);
  const double lfs_fast = run(fast, true);
  // FFS: 16x CPU gives < 2x speedup (disk-bound).
  EXPECT_LT(ffs_slow / ffs_fast, 2.0);
  // LFS: 16x CPU gives > 6x speedup (CPU-bound).
  EXPECT_GT(lfs_slow / lfs_fast, 6.0);
}

TEST(OfficeWorkloadTest, RunsOnBothFileSystems) {
  OfficeWorkloadParams params;
  params.operations = 300;
  auto lfs_bed = MakeLfsTestbed(SmallParams());
  auto ffs_bed = MakeFfsTestbed(SmallParams());
  ASSERT_TRUE(lfs_bed.ok() && ffs_bed.ok());
  auto lfs = RunOfficeWorkload(*lfs_bed, params);
  ASSERT_TRUE(lfs.ok()) << lfs.status().ToString();
  auto ffs = RunOfficeWorkload(*ffs_bed, params);
  ASSERT_TRUE(ffs.ok()) << ffs.status().ToString();
  EXPECT_EQ(lfs->operations, 300u);
  EXPECT_GT(lfs->files_created, 0u);
  EXPECT_GT(lfs->bytes_written, 0u);
}

TEST(OfficeFileSizeTest, DistributionIsMostlySmall) {
  Rng rng(5);
  int small = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const size_t size = DrawOfficeFileSize(rng);
    EXPECT_GE(size, 256u);
    EXPECT_LE(size, 1u << 20);
    if (size <= 8192) {
      ++small;
    }
  }
  // "A large number of relatively small files (less than 8 kilobytes)".
  EXPECT_GT(small, n * 7 / 10);
}

TEST(TraceTest, ParseFormatRoundTrip) {
  const std::string text =
      "# a comment\n"
      "mkdir /a\n"
      "create /a/f\n"
      "write /a/f 0 100 7\n"
      "read /a/f 0 100\n"
      "trunc /a/f 50\n"
      "rename /a/f /a/g\n"
      "fsync /a/g\n"
      "sync\n"
      "idle 2.5\n"
      "unlink /a/g\n"
      "rmdir /a\n"
      "link /b/f /c/f\n";
  auto ops = ParseTrace(text);
  ASSERT_TRUE(ops.ok());
  ASSERT_EQ(ops->size(), 12u);
  EXPECT_EQ((*ops)[0].kind, TraceOp::Kind::kMkdir);
  EXPECT_EQ((*ops)[2].kind, TraceOp::Kind::kWrite);
  EXPECT_EQ((*ops)[2].length, 100u);
  EXPECT_EQ((*ops)[2].seed, 7u);
  EXPECT_EQ((*ops)[5].path2, "/a/g");
  EXPECT_DOUBLE_EQ((*ops)[8].seconds, 2.5);
  EXPECT_EQ((*ops)[11].kind, TraceOp::Kind::kLink);
  EXPECT_EQ((*ops)[11].path2, "/c/f");
  // Round trip through the formatter.
  auto again = ParseTrace(FormatTrace(*ops));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), ops->size());
  for (size_t i = 0; i < ops->size(); ++i) {
    EXPECT_EQ((*again)[i].kind, (*ops)[i].kind) << i;
    EXPECT_EQ((*again)[i].path, (*ops)[i].path) << i;
    EXPECT_EQ((*again)[i].path2, (*ops)[i].path2) << i;
  }
}

TEST(TraceTest, ParseErrorsAreReported) {
  EXPECT_FALSE(ParseTrace("frobnicate /x\n").ok());
  EXPECT_FALSE(ParseTrace("write /x\n").ok());
  EXPECT_FALSE(ParseTrace("rename /only-one\n").ok());
  EXPECT_FALSE(ParseTrace("link /only-one\n").ok());
  EXPECT_TRUE(ParseTrace("\n\n# only comments\n").ok());
}

TEST(TraceTest, ReplayProducesIdenticalTreesOnBothFs) {
  auto trace = GenerateOfficeTrace(400, /*seed=*/9);
  auto lfs_bed = MakeLfsTestbed(SmallParams());
  auto ffs_bed = MakeFfsTestbed(SmallParams());
  ASSERT_TRUE(lfs_bed.ok() && ffs_bed.ok());
  auto lfs = ReplayTrace(*lfs_bed, trace);
  ASSERT_TRUE(lfs.ok()) << lfs.status().ToString();
  auto ffs = ReplayTrace(*ffs_bed, trace);
  ASSERT_TRUE(ffs.ok()) << ffs.status().ToString();
  EXPECT_EQ(lfs->operations, ffs->operations);
  EXPECT_EQ(lfs->bytes_written, ffs->bytes_written);
  EXPECT_EQ(lfs->bytes_read, ffs->bytes_read);
  // Same resulting directory tree.
  auto lfs_entries = lfs_bed->paths->ReadDir("/work");
  auto ffs_entries = ffs_bed->paths->ReadDir("/work");
  ASSERT_TRUE(lfs_entries.ok() && ffs_entries.ok());
  EXPECT_EQ(lfs_entries->size(), ffs_entries->size());
  // And LFS finished the identical stream at least as fast.
  EXPECT_LE(lfs->seconds, ffs->seconds * 1.05);
}

TEST(ReportTest, TableAlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"a-much-longer-name", "23456"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

}  // namespace
}  // namespace logfs
