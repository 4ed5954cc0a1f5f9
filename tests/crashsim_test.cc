// Tests for the crash-state exploration subsystem (src/crashsim/):
// RecordingDisk journaling and flush epochs, CrashImageGenerator
// enumeration and materialization, and the explorer on the single log —
// including the self-test that deliberately weakens roll-forward's
// summary-CRC check and expects the Oracle to notice. The sharded sweeps
// are sharded_crash_test.
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
#include "src/workload/testbed.h"
#include "src/workload/trace.h"
#include "tests/crash_reference.h"
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
  EXPECT_EQ(disk.writes()[0].SectorCount() + disk.writes()[1].SectorCount(), 3u);
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

// Every byte of a device, read through its own interface.
std::vector<std::byte> ReadAll(BlockDevice& disk) {
  std::vector<std::byte> out(disk.sector_count() * kSectorSize);
  EXPECT_TRUE(disk.ReadSectors(0, out).ok());
  return out;
}

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

TEST(CrashImageGeneratorTest, ImagePrefixAndTorn) {
  GeneratorRig rig;
  auto a = Sectors(2, 1);
  auto b = Sectors(2, 9);
  ASSERT_TRUE(rig.rec.WriteSectors(0, a).ok());
  ASSERT_TRUE(rig.rec.WriteSectors(4, b).ok());
  CrashImageGenerator gen(rig.base, &rig.rec.writes());

  // Prefix 1: only write 0 landed.
  auto overlay = gen.Image(CrashPlan{1, 0});
  ASSERT_TRUE(overlay.ok());
  EXPECT_EQ(overlay->private_sectors(), 0u);  // A prefix is the landed image itself.
  std::vector<std::byte> image = ReadAll(*overlay);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), image.begin()));
  EXPECT_TRUE(std::all_of(image.begin() + 4 * kSectorSize, image.begin() + 6 * kSectorSize,
                          [](std::byte x) { return x == std::byte{0}; }));

  // Prefix 1 torn 1: write 0 landed plus the first sector of write 1.
  overlay = gen.Image(CrashPlan{1, 1});
  ASSERT_TRUE(overlay.ok());
  EXPECT_EQ(overlay->private_sectors(), 1u);
  image = ReadAll(*overlay);
  EXPECT_TRUE(std::equal(b.begin(), b.begin() + kSectorSize, image.begin() + 4 * kSectorSize));
  EXPECT_TRUE(std::all_of(image.begin() + 5 * kSectorSize, image.begin() + 6 * kSectorSize,
                          [](std::byte x) { return x == std::byte{0}; }));

  // An earlier prefix after a later one starts over from the base image.
  overlay = gen.Image(CrashPlan{0, 0});
  ASSERT_TRUE(overlay.ok());
  image = ReadAll(*overlay);
  EXPECT_TRUE(std::all_of(image.begin(), image.end(),
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
  auto overlay = gen.Image(CrashPlan{4, 0, 2});
  ASSERT_TRUE(overlay.ok());
  std::vector<std::byte> image = ReadAll(*overlay);
  EXPECT_TRUE(std::all_of(image.begin() + 2 * kSectorSize, image.begin() + 3 * kSectorSize,
                          [](std::byte x) { return x == std::byte{0}; }));
  EXPECT_EQ(image[3 * kSectorSize], static_cast<std::byte>(4));
}

// A dropped write shows its pre-image, except where a later landed write
// covers the same sectors.
TEST(CrashImageGeneratorTest, DroppedWriteRestoresItsPreImageUnderLaterWrites) {
  GeneratorRig rig;
  ASSERT_TRUE(rig.rec.WriteSectors(0, Sectors(4, 1)).ok());  // Write 0: the pre-image.
  ASSERT_TRUE(rig.rec.Flush().ok());
  ASSERT_TRUE(rig.rec.WriteSectors(0, Sectors(4, 50)).ok());  // Write 1: dropped.
  ASSERT_TRUE(rig.rec.WriteSectors(2, Sectors(1, 90)).ok());  // Write 2: covers sector 2.
  CrashImageGenerator gen(rig.base, &rig.rec.writes());

  auto overlay = gen.Image(CrashPlan{3, 0, 1});
  ASSERT_TRUE(overlay.ok());
  std::vector<std::byte> image = ReadAll(*overlay);
  std::vector<std::byte> expected = Sectors(4, 1);
  auto later = Sectors(1, 90);
  std::copy(later.begin(), later.end(), expected.begin() + 2 * kSectorSize);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), image.begin()));
}

// Every plan of a real LFS journal, torn and reordered included, reads back
// exactly as a full replay: the crash explorer's mixed workload on its
// 24 MB rig, recorded under a clock so write-back and idle ticks run too.
TEST(CrashImageGeneratorTest, EveryPlanOfAnExplorerJournalMatchesFullReplay) {
  const ExploreRigParams rig;
  Testbed bed;
  bed.clock = std::make_unique<SimClock>();
  bed.disk = std::make_unique<MemoryDisk>(rig.sectors, bed.clock.get());
  ASSERT_TRUE(LfsFileSystem::Format(bed.disk.get(), rig.lfs).ok());
  std::span<const std::byte> raw = bed.disk->RawImage();
  const std::vector<std::byte> base(raw.begin(), raw.end());
  RecordingDisk rec(bed.disk.get());
  auto mounted = LfsFileSystem::Mount(&rec, bed.clock.get(), /*cpu=*/nullptr);
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  bed.fs = std::move(mounted).value();
  bed.paths = std::make_unique<PathFs>(bed.fs.get());
  ASSERT_TRUE(ReplayTrace(bed, GenerateCrashTrace(40, /*seed=*/1234)).ok());
  bed.paths.reset();
  bed.fs.reset();

  const size_t plans = ExpectImagesMatchReplay(base, rec.writes());
  EXPECT_GT(plans, rec.write_count());
}

// --- Explorer sweeps -------------------------------------------------------

std::vector<TraceOp> Trace(std::string_view text) {
  auto ops = ParseTrace(text);
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  return ops.ok() ? *ops : std::vector<TraceOp>{};
}

// The acceptance sweep: a mixed create/write/fsync/unlink/sync/clean
// workload, a few hundred crash states, both mount modes — and zero
// violations of the durability contract.
TEST(CrashExplorerTest, MixedWorkloadSurvivesEnumeratedCrashes) {
  std::vector<TraceOp> workload = GenerateCrashTrace(40, /*seed=*/1234);
  auto report = ExploreCrashStates(workload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->states_checked, 200u);
  EXPECT_GT(report->journal_writes, 0u);
  EXPECT_EQ(report->failed_states, 0u) << report->Violations();
}

// Reordering within a flush epoch must also be survivable: LFS only relies
// on ordering across its synchronous checkpoint-region writes.
TEST(CrashExplorerTest, ReorderedEpochsSurvive) {
  std::vector<TraceOp> workload = GenerateCrashTrace(12, /*seed=*/77);
  CrashEnumerationBudget budget;  // Every boundary.
  budget.torn_variants = {};
  budget.reorder_within_epoch = true;
  auto report = ExploreCrashStates(workload, budget);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_states, 0u) << report->Violations();
}

// A renamed directory carries its files. The model moves /a/f to /b/f at
// the rename, so /b/f is judged, and once the second sync lands no image
// may show /a/f. A model that moved only /a would fail every image after
// that sync with "/a/f: observed absent".
TEST(CrashExplorerTest, RenamedDirectoryCarriesItsFiles) {
  auto recording = RecordCrashWorkload(
      Trace("mkdir /a\ncreate /a/f\nwrite /a/f 0 4096\nsync\nrename /a /b\nsync\n"));
  ASSERT_TRUE(recording.ok()) << recording.status().ToString();
  EXPECT_TRUE(recording->model.histories().contains("/b/f"));
  auto report = JudgeCrashStates(*recording, {}, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->states_checked, 0u);
  EXPECT_EQ(report->failed_states, 0u) << report->Violations();
}

// A hard link is a second modeled name with the same state; unlinking one
// name leaves the other. The model keeps no inode identity, so recording
// refuses a write through a file that has two names.
TEST(CrashExplorerTest, LinkedNamesAreJudgedAndNeverWrittenThrough) {
  auto report = ExploreCrashStates(Trace(
      "create /f\nwrite /f 0 8192 3\nlink /f /g\nsync\nunlink /f\nfsync /g\n"
      "write /g 0 4096 4\nfsync /g\n"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_states, 0u) << report->Violations();

  auto refused = RecordCrashWorkload(Trace("create /f\nlink /f /g\nwrite /g 0 4096\n"));
  EXPECT_EQ(refused.status().code(), ErrorCode::kInvalidArgument);
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
  const ExploreRigParams rig;
  MemoryDisk disk(rig.sectors, &clock);
  ASSERT_TRUE(LfsFileSystem::Format(&disk, rig.lfs).ok());
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
  budget.max_boundaries = 0;  // Every boundary.
  budget.torn_variants = {1, 4, 8, 12};
  std::vector<CrashPlan> plans = gen.Enumerate(budget);
  ASSERT_GT(plans.size(), 30u);  // A real sweep, not a couple of hand-picked points.

  size_t with_samples = 0;
  for (const CrashPlan& plan : plans) {
    auto image = gen.Image(plan);
    ASSERT_TRUE(image.ok()) << plan.Describe();
    auto blackbox = RecoverBlackBox(&*image);
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
// that cannot detect an injected bug would be worthless. Only roll-forward
// reads summaries, so checkpoint-only states must stay clean.
TEST(CrashExplorerTest, DetectsDeliberatelyBrokenRollForward) {
  std::vector<TraceOp> workload = GenerateCrashTrace(30, /*seed=*/4321);
  CrashEnumerationBudget budget;  // Every boundary.
  budget.torn_variants = {8};     // Exactly one 4 KB block: the summary alone.
  ExploreRigParams rig;
  rig.mount_options.unsafe_skip_rollforward_crc = true;
  auto report = ExploreCrashStates(workload, budget, rig);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  size_t failed[2] = {0, 0};  // Indexed by roll_forward.
  for (const CrashStateResult& result : report->results) {
    failed[result.roll_forward] += !result.verdict.ok();
  }
  EXPECT_GT(failed[true], 0u) << "Oracle failed to notice CRC-less roll-forward on "
                              << report->states_checked << " states";
  EXPECT_EQ(failed[false], 0u) << report->Violations();
}

}  // namespace
}  // namespace logfs
