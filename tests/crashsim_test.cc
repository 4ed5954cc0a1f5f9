// Tests for the crash-state exploration subsystem (src/crashsim/):
// RecordingDisk journaling and flush epochs, CrashImageGenerator
// enumeration and materialization, and the full explorer sweep — including
// the self-test that deliberately weakens roll-forward's summary-CRC check
// and expects the Oracle to notice.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crashsim/crash_image.h"
#include "src/crashsim/explorer.h"
#include "src/crashsim/oracle.h"
#include "src/disk/memory_disk.h"
#include "src/disk/recording_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/lfs_blackbox.h"
#include "src/obs/metrics.h"
#include "src/workload/trace.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

std::vector<std::byte> Sectors(size_t n, uint8_t seed) {
  std::vector<std::byte> data(n * kSectorSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(seed + i);
  }
  return data;
}

// --- RecordingDisk ---------------------------------------------------------

TEST(RecordingDiskTest, JournalsWritesInOrderAndForwards) {
  MemoryDisk inner(256, /*clock=*/nullptr);
  RecordingDisk disk(&inner);
  auto a = Sectors(2, 1);
  auto b = Sectors(1, 9);
  ASSERT_TRUE(disk.WriteSectors(0, a).ok());
  ASSERT_TRUE(disk.WriteSectors(16, b).ok());
  ASSERT_EQ(disk.write_count(), 2u);
  EXPECT_EQ(disk.sectors_recorded(), 3u);
  EXPECT_EQ(disk.writes()[0].first, 0u);
  EXPECT_EQ(disk.writes()[0].data, a);
  EXPECT_EQ(disk.writes()[1].first, 16u);
  EXPECT_EQ(disk.writes()[1].data, b);
  // Writes reached the inner device too.
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(16, out).ok());
  EXPECT_EQ(out, b);
}

TEST(RecordingDiskTest, FlushClosesAnEpoch) {
  MemoryDisk inner(256, /*clock=*/nullptr);
  RecordingDisk disk(&inner);
  ASSERT_TRUE(disk.WriteSectors(0, Sectors(1, 1)).ok());
  ASSERT_TRUE(disk.WriteSectors(1, Sectors(1, 2)).ok());
  ASSERT_TRUE(disk.Flush().ok());
  ASSERT_TRUE(disk.WriteSectors(2, Sectors(1, 3)).ok());
  ASSERT_EQ(disk.write_count(), 3u);
  EXPECT_EQ(disk.writes()[0].epoch, disk.writes()[1].epoch);
  EXPECT_NE(disk.writes()[1].epoch, disk.writes()[2].epoch);
}

TEST(RecordingDiskTest, SynchronousWriteIsItsOwnEpoch) {
  MemoryDisk inner(256, /*clock=*/nullptr);
  RecordingDisk disk(&inner);
  ASSERT_TRUE(disk.WriteSectors(0, Sectors(1, 1)).ok());
  ASSERT_TRUE(disk.WriteSectors(1, Sectors(1, 2), IoOptions{.synchronous = true}).ok());
  ASSERT_TRUE(disk.WriteSectors(2, Sectors(1, 3)).ok());
  ASSERT_EQ(disk.write_count(), 3u);
  EXPECT_NE(disk.writes()[0].epoch, disk.writes()[1].epoch);
  EXPECT_NE(disk.writes()[1].epoch, disk.writes()[2].epoch);
  EXPECT_TRUE(disk.writes()[1].synchronous);
}

// --- CrashImageGenerator ---------------------------------------------------

struct GeneratorRig {
  GeneratorRig() : inner(64, nullptr), rec(&inner) {
    std::span<const std::byte> raw = inner.RawImage();
    base.assign(raw.begin(), raw.end());
  }
  MemoryDisk inner;
  RecordingDisk rec;
  std::vector<std::byte> base;
};

TEST(CrashImageGeneratorTest, EnumeratesPrefixAndTornVariants) {
  GeneratorRig rig;
  ASSERT_TRUE(rig.rec.WriteSectors(0, Sectors(4, 1)).ok());
  ASSERT_TRUE(rig.rec.WriteSectors(8, Sectors(1, 2)).ok());
  CrashImageGenerator gen(rig.base, &rig.rec.writes());

  CrashEnumerationBudget budget;
  budget.torn_variants = {1, 2, 8};
  std::vector<CrashPlan> plans = gen.Enumerate(budget);
  // Boundaries 0,1,2; torn 1 and 2 apply only at boundary 0 (4-sector
  // write); the 1-sector write at boundary 1 is too small to tear.
  ASSERT_EQ(plans.size(), 5u);
  size_t torn = 0;
  for (const CrashPlan& plan : plans) {
    if (plan.torn_sectors > 0) {
      ++torn;
      EXPECT_EQ(plan.prefix, 0u);
      EXPECT_LT(plan.torn_sectors, 4u);
    }
  }
  EXPECT_EQ(torn, 2u);
}

TEST(CrashImageGeneratorTest, MaterializePrefixAndTorn) {
  GeneratorRig rig;
  auto a = Sectors(2, 1);
  auto b = Sectors(2, 9);
  ASSERT_TRUE(rig.rec.WriteSectors(0, a).ok());
  ASSERT_TRUE(rig.rec.WriteSectors(4, b).ok());
  CrashImageGenerator gen(rig.base, &rig.rec.writes());

  // Prefix 1: only write 0 landed.
  auto image = gen.Materialize(CrashPlan{1, 0});
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), image->begin()));
  EXPECT_TRUE(std::all_of(image->begin() + 4 * kSectorSize,
                          image->begin() + 6 * kSectorSize,
                          [](std::byte x) { return x == std::byte{0}; }));

  // Prefix 1 torn 1: write 0 landed plus the first sector of write 1.
  image = gen.Materialize(CrashPlan{1, 1});
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(std::equal(b.begin(), b.begin() + kSectorSize,
                         image->begin() + 4 * kSectorSize));
  EXPECT_TRUE(std::all_of(image->begin() + 5 * kSectorSize,
                          image->begin() + 6 * kSectorSize,
                          [](std::byte x) { return x == std::byte{0}; }));
}

TEST(CrashImageGeneratorTest, ReorderDropsStayInsideEpochAndBarriers) {
  GeneratorRig rig;
  ASSERT_TRUE(rig.rec.WriteSectors(0, Sectors(1, 1)).ok());
  ASSERT_TRUE(rig.rec.WriteSectors(1, Sectors(1, 2)).ok());
  ASSERT_TRUE(rig.rec.Flush().ok());  // Epoch boundary after write 1.
  ASSERT_TRUE(rig.rec.WriteSectors(2, Sectors(1, 3)).ok());
  ASSERT_TRUE(rig.rec.WriteSectors(3, Sectors(1, 4)).ok());
  CrashImageGenerator gen(rig.base, &rig.rec.writes());

  CrashEnumerationBudget budget;
  budget.torn_variants = {};
  budget.reorder_within_epoch = true;
  std::vector<CrashPlan> plans = gen.Enumerate(budget);
  // Drops must not cross the flush: at boundary 4 only write 2 may drop
  // (write 3 is the in-order tail, writes 0/1 are a closed epoch).
  for (const CrashPlan& plan : plans) {
    if (plan.dropped == CrashPlan::kNoDrop) {
      continue;
    }
    const uint64_t open_epoch = rig.rec.writes()[plan.prefix - 1].epoch;
    EXPECT_EQ(rig.rec.writes()[plan.dropped].epoch, open_epoch)
        << plan.Describe();
  }
  const bool dropped_two = std::any_of(plans.begin(), plans.end(), [](const CrashPlan& p) {
    return p.prefix == 4 && p.dropped == 2;
  });
  EXPECT_TRUE(dropped_two);

  // With a completed barrier between writes 2 and 4, that drop disappears.
  std::vector<CrashPlan> gated = gen.Enumerate(budget, /*barrier_positions=*/{3});
  for (const CrashPlan& plan : gated) {
    EXPECT_FALSE(plan.prefix == 4 && plan.dropped == 2) << plan.Describe();
  }

  // Dropped images simply omit the write.
  auto image = gen.Materialize(CrashPlan{4, 0, 2});
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(std::all_of(image->begin() + 2 * kSectorSize,
                          image->begin() + 3 * kSectorSize,
                          [](std::byte x) { return x == std::byte{0}; }));
  EXPECT_EQ((*image)[3 * kSectorSize], static_cast<std::byte>(4));
}

// --- Explorer sweeps -------------------------------------------------------

// The acceptance sweep: a mixed create/write/fsync/unlink/sync/clean
// workload, a few hundred crash states, both mount modes — and zero
// violations of the durability contract.
TEST(CrashExplorerTest, MixedWorkloadSurvivesEnumeratedCrashes) {
  std::vector<TraceOp> workload = GenerateCrashTrace(40, /*seed=*/1234);
  ExploreBudget budget;
  budget.max_boundaries = 120;
  auto report = ExploreCrashStates(workload, budget);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->states_checked, 200u);
  EXPECT_GT(report->journal_writes, 0u);
  std::string failures;
  for (const CrashStateResult& result : report->results) {
    for (const std::string& violation : result.verdict.violations) {
      failures += result.plan.Describe() +
                  (result.roll_forward ? " [rf] " : " [cp] ") + violation + "\n";
    }
  }
  EXPECT_EQ(report->failed_states, 0u) << failures;
}

// Reordering within a flush epoch must also be survivable: LFS only relies
// on ordering across its synchronous checkpoint-region writes.
TEST(CrashExplorerTest, ReorderedEpochsSurvive) {
  std::vector<TraceOp> workload = GenerateCrashTrace(12, /*seed=*/77);
  ExploreBudget budget;
  budget.max_boundaries = 40;
  budget.torn_variants = {};
  budget.reorder_within_epoch = true;
  auto report = ExploreCrashStates(workload, budget);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string failures;
  for (const CrashStateResult& result : report->results) {
    for (const std::string& violation : result.verdict.violations) {
      failures += result.plan.Describe() + " " + violation + "\n";
    }
  }
  EXPECT_EQ(report->failed_states, 0u) << failures;
}

// The flight recorder's acceptance sweep: from EVERY enumerated crash image
// of a mixed workload — prefix cuts, torn multi-sector writes, crashes
// mid-checkpoint — `lfs_inspect blackbox`'s recovery path must dig out a
// CRC-valid telemetry ring. The argument it validates: the two checkpoint
// regions alternate with at most one write in flight, Format seeds region A
// with an empty ring, and every complete region write since carries a
// trailer — so one region always holds a valid black box.
TEST(CrashExplorerTest, BlackBoxRecoversFromEveryCrashImage) {
  if (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out: no black box is embedded";
  }
  SimClock clock;
  MemoryDisk disk(49152, &clock);  // 24 MB, the explorer's rig geometry.
  LfsParams params;
  params.max_inodes = 2048;
  params.clean_start_segments = 4;
  params.clean_stop_segments = 6;
  params.reserved_segments = 3;
  ASSERT_TRUE(LfsFileSystem::Format(&disk, params).ok());
  std::span<const std::byte> raw = disk.RawImage();
  std::vector<std::byte> base(raw.begin(), raw.end());

  RecordingDisk rec(&disk);
  LfsFileSystem::Options options;
  options.telemetry_interval_seconds = 0.001;  // Sample eagerly.
  auto mounted = LfsFileSystem::Mount(&rec, &clock, /*cpu=*/nullptr, options);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  {
    LfsFileSystem& fs = **mounted;
    PathFs paths(&fs);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(paths.WriteFile("/f" + std::to_string(i), TestBytes(8192, i)).ok());
      ASSERT_TRUE(fs.Tick().ok());
    }
    ASSERT_TRUE(fs.Sync().ok());
    for (int i = 0; i < 30; i += 2) {
      ASSERT_TRUE(paths.WriteFile("/f" + std::to_string(i), TestBytes(4096, 100 + i)).ok());
    }
    ASSERT_TRUE(fs.Sync().ok());  // Mid-workload checkpoint churn.
    for (int i = 1; i < 30; i += 2) {
      ASSERT_TRUE(paths.Unlink("/f" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(fs.Sync().ok());  // Second checkpoint: both regions now hot.
  }
  ASSERT_GT(rec.write_count(), 0u);

  CrashImageGenerator gen(base, &rec.writes());
  CrashEnumerationBudget budget;
  budget.max_boundaries = 100;
  budget.torn_variants = {1, 4, 8, 12};
  std::vector<CrashPlan> plans = gen.Enumerate(budget);
  ASSERT_GT(plans.size(), 30u);  // A real sweep, not a couple of hand-picked points.

  size_t with_samples = 0;
  for (const CrashPlan& plan : plans) {
    auto image = gen.Materialize(plan);
    ASSERT_TRUE(image.ok()) << plan.Describe();
    auto blackbox = RecoverBlackBoxFromImage(*image);
    ASSERT_TRUE(blackbox.ok())
        << plan.Describe() << ": " << blackbox.status().ToString();
    with_samples += blackbox->ring.samples.empty() ? 0 : 1;
  }
  // Once the first post-mount checkpoint has fully landed, recovered rings
  // carry real samples; only the earliest crash states may see the empty
  // seed ring. The sweep must include plenty of the former.
  EXPECT_GT(with_samples, plans.size() / 2);
}

// Self-test: if recovery is deliberately broken — roll-forward accepting a
// summary block whose segment content never landed (summary CRC skipped) —
// the Oracle must catch it. This is the explorer auditing itself: a sweep
// that cannot detect an injected bug would be worthless.
TEST(CrashExplorerTest, DetectsDeliberatelyBrokenRollForward) {
  std::vector<TraceOp> workload = GenerateCrashTrace(30, /*seed=*/4321);
  ExploreBudget budget;
  budget.max_boundaries = 150;
  budget.torn_variants = {8};  // Exactly one 4 KB block: the summary alone.
  budget.check_checkpoint_only = false;  // Only roll-forward uses summaries.
  ExploreRigParams rig;
  rig.mount_options.unsafe_skip_rollforward_crc = true;
  auto report = ExploreCrashStates(workload, budget, rig);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->failed_states, 0u)
      << "Oracle failed to notice CRC-less roll-forward on "
      << report->states_checked << " states";
}

}  // namespace
}  // namespace logfs
