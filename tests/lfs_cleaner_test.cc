// Segment-cleaner tests: liveness identification, compaction, greedy victim
// selection, checkpoint commit of cleaned segments, invariants under load.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/lfs/lfs_check.h"
#include "src/util/rng.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

Status ExpectClean(LfsFileSystem* fs) {
  LfsChecker checker(fs);
  ASSIGN_OR_RETURN(LfsCheckReport report, checker.Check());
  if (!report.ok()) {
    return CorruptedError(report.Summary());
  }
  return OkStatus();
}

// Fills the log with 1 KB files, then deletes a fraction, leaving
// fragmented segments — the paper's Figure 5 setup.
Status MakeFragmentation(LfsInstance& inst, int total_files, int delete_every_nth) {
  for (int i = 0; i < total_files; ++i) {
    RETURN_IF_ERROR(
        inst.paths->WriteFile("/frag" + std::to_string(i), TestBytes(1024, i)));
    if (i % 64 == 63) {
      RETURN_IF_ERROR(inst.fs->Sync());
    }
  }
  RETURN_IF_ERROR(inst.fs->Sync());
  for (int i = 0; i < total_files; i += delete_every_nth) {
    RETURN_IF_ERROR(inst.paths->Unlink("/frag" + std::to_string(i)));
  }
  return inst.fs->Sync();
}

TEST(LfsCleanerTest, CleaningFullyDeadSegmentsIsFree) {
  LfsInstance inst;
  // Create and delete everything: segments become fully dead.
  ASSERT_TRUE(MakeFragmentation(inst, 2000, 1).ok());
  const uint32_t clean_before = inst.fs->CleanSegmentCount();
  auto cleaned = inst.fs->CleanNow(64);
  ASSERT_TRUE(cleaned.ok());
  EXPECT_GT(*cleaned, 0u);
  EXPECT_GT(inst.fs->CleanSegmentCount(), clean_before);
  // Nothing live was copied out of fully dead data segments beyond metadata.
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsCleanerTest, LiveDataSurvivesCleaning) {
  LfsInstance inst;
  ASSERT_TRUE(MakeFragmentation(inst, 1500, 2).ok());  // Half the files survive.
  auto cleaned = inst.fs->CleanNow(32);
  ASSERT_TRUE(cleaned.ok());
  EXPECT_GT(*cleaned, 0u);
  EXPECT_GT(inst.fs->cleaner_stats().live_blocks_copied, 0u);
  // Every surviving file is intact.
  for (int i = 1; i < 1500; i += 2) {
    auto back = inst.paths->ReadFile("/frag" + std::to_string(i));
    ASSERT_TRUE(back.ok()) << i;
    ASSERT_EQ(*back, TestBytes(1024, i)) << i;
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsCleanerTest, CleanedSegmentsHaveZeroLiveBytes) {
  LfsInstance inst;
  ASSERT_TRUE(MakeFragmentation(inst, 1000, 3).ok());
  auto cleaned = inst.fs->CleanNow(16);
  ASSERT_TRUE(cleaned.ok());
  for (uint32_t seg = 0; seg < inst.fs->superblock().num_segments; ++seg) {
    if (inst.fs->usage().Get(seg).state == SegState::kClean) {
      EXPECT_EQ(inst.fs->usage().Get(seg).live_bytes, 0u) << "segment " << seg;
    }
  }
}

TEST(LfsCleanerTest, GreedyPolicyPicksLeastUtilizedFirst) {
  LfsInstance inst;
  ASSERT_TRUE(MakeFragmentation(inst, 1500, 2).ok());
  // Find the least-utilized dirty segment before cleaning.
  uint32_t min_live = UINT32_MAX;
  for (uint32_t seg = 0; seg < inst.fs->superblock().num_segments; ++seg) {
    const SegUsage& usage = inst.fs->usage().Get(seg);
    if (usage.state == SegState::kDirty) {
      min_live = std::min(min_live, usage.live_bytes);
    }
  }
  auto cleaned = inst.fs->CleanNow(1);
  ASSERT_TRUE(cleaned.ok());
  ASSERT_EQ(*cleaned, 1u);
  // After cleaning one victim, no remaining dirty segment can be *less*
  // utilized than the victim was (greedy picked the minimum).
  for (uint32_t seg = 0; seg < inst.fs->superblock().num_segments; ++seg) {
    const SegUsage& usage = inst.fs->usage().Get(seg);
    if (usage.state == SegState::kDirty) {
      EXPECT_GE(usage.live_bytes + 4096, min_live);
    }
  }
}

TEST(LfsCleanerTest, CleaningIsIdempotentWhenNothingToClean) {
  LfsInstance inst;
  ASSERT_TRUE(inst.fs->Sync().ok());
  auto cleaned = inst.fs->CleanNow(8);
  ASSERT_TRUE(cleaned.ok());
  // A freshly formatted system has at most metadata-only dirty segments.
  auto again = inst.fs->CleanNow(8);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsCleanerTest, AutoCleanTriggersViaTick) {
  LfsParams params = LfsInstance::DefaultParams();
  params.clean_start_segments = 16;
  params.clean_stop_segments = 20;
  // ~40 segments total, so the threshold of 16 clean segments is reachable.
  LfsInstance inst(40 * 2048 + 8192, params);
  ASSERT_TRUE(MakeFragmentation(inst, 2000, 2).ok());
  // Burn down clean segments until Tick's threshold fires. Advancing the
  // clock past the write-back age makes each round actually hit the disk.
  const uint64_t passes_before = inst.fs->cleaner_stats().passes;
  for (int i = 0; i < 120 && inst.fs->cleaner_stats().passes == passes_before; ++i) {
    // Overwrite a rotating set of 30 files so dead space accumulates and
    // the log keeps consuming clean segments.
    ASSERT_TRUE(
        inst.paths->WriteFile("/more" + std::to_string(i % 30), TestBytes(524288, i)).ok());
    inst.clock->Advance(31.0);
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  EXPECT_GT(inst.fs->cleaner_stats().passes, passes_before);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsCleanerTest, RepeatedOverwriteChurnStaysConsistent) {
  // Steady-state churn on a small disk forces many cleaning passes.
  LfsParams params = LfsInstance::DefaultParams();
  LfsInstance inst(32 * 2048 + 4096, params);  // ~16 MB usable.
  for (int round = 0; round < 30; ++round) {
    for (int f = 0; f < 8; ++f) {
      ASSERT_TRUE(inst.paths
                      ->WriteFile("/churn" + std::to_string(f),
                                  TestBytes(256 * 1024, round * 10 + f))
                      .ok())
          << "round " << round << " file " << f;
    }
    inst.clock->Advance(31.0);  // Let the age-based write-back fire.
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  EXPECT_GT(inst.fs->cleaner_stats().segments_cleaned, 0u);
  for (int f = 0; f < 8; ++f) {
    auto back = inst.paths->ReadFile("/churn" + std::to_string(f));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(256 * 1024, 29 * 10 + f));
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

// Space liveness (DESIGN.md §6): with live data held at a fixed fraction of
// UsableBytes(), uniform whole-file overwrites of a 64 MB volume of 32 KB
// files, Tick() after every write and no explicit cleaning, must never see
// kNoSpace up to 90% live. Each cleaning pass keeps only the victims whose
// live bytes fit in the clean segments it has to relocate into; without
// that cap a pass wraps the log mid-relocation and the volume wedges, at
// 70% live already.
constexpr size_t kLivenessFileBytes = 32 * 1024;

// Creates 32 KB files until their data reaches `fraction` of UsableBytes().
// Returns the inode of each file.
Result<std::vector<InodeNum>> FillLive(LfsInstance& inst, double fraction) {
  const uint64_t target =
      static_cast<uint64_t>(fraction * static_cast<double>(inst.fs->UsableBytes()));
  std::vector<InodeNum> files;
  for (uint64_t bytes = 0; bytes < target; bytes += kLivenessFileBytes) {
    const std::string path = "/f" + std::to_string(files.size());
    RETURN_IF_ERROR(inst.paths->WriteFile(path, TestBytes(kLivenessFileBytes, files.size())));
    ASSIGN_OR_RETURN(InodeNum ino, inst.paths->Resolve(path));
    files.push_back(ino);
    RETURN_IF_ERROR(inst.fs->Tick());
  }
  RETURN_IF_ERROR(inst.fs->Sync());
  return files;
}

class SpaceLivenessTest : public ::testing::TestWithParam<int> {};

TEST_P(SpaceLivenessTest, UniformOverwriteChurnNeverRunsOutOfSpace) {
  const double fraction = GetParam() / 100.0;
  LfsInstance inst;  // 64 MB.
  auto files = FillLive(inst, fraction);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  ASSERT_GE(inst.fs->TotalLiveBytes(), fraction * inst.fs->UsableBytes());

  const uint64_t churn_bytes = 3 * inst.disk->sector_count() * kSectorSize;
  std::vector<uint64_t> version(files->size(), 0);
  Rng rng(GetParam());
  for (uint64_t written = 0; written < churn_bytes; written += kLivenessFileBytes) {
    const size_t f = rng.NextBelow(files->size());
    version[f] = written + 1;
    auto wrote = inst.fs->Write((*files)[f], 0, TestBytes(kLivenessFileBytes, version[f]));
    ASSERT_TRUE(wrote.ok()) << "after " << (written >> 20) << " MB of churn at "
                            << GetParam() << "% live: " << wrote.status().ToString();
    Status ticked = inst.fs->Tick();
    ASSERT_TRUE(ticked.ok()) << ticked.ToString();
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_GT(inst.fs->cleaner_stats().segments_cleaned, 0u);
  for (size_t f = 0; f < files->size(); f += 97) {
    auto back = inst.paths->ReadFile("/f" + std::to_string(f));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(kLivenessFileBytes, version[f] != 0 ? version[f] : f)) << f;
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(LivePercent, SpaceLivenessTest, ::testing::Values(70, 80, 85, 90),
                         [](const ::testing::TestParamInfo<int>& percent) {
                           return std::to_string(percent.param);
                         });

// Above the ceiling the volume refuses a write with kNoSpace: files are
// created toward 97% of UsableBytes() and then overwritten, and the first
// refusal (in either phase) must be kNoSpace on a consistent volume whose
// other files are intact. Unlinking a quarter of the files must then let
// overwrites and new files through again.
TEST(LfsCleanerTest, FullVolumeRefusesWritesCleanlyAndRecoversAfterUnlinks) {
  LfsInstance inst;
  const uint64_t target = static_cast<uint64_t>(0.97 * inst.fs->UsableBytes());
  std::vector<InodeNum> files;
  std::vector<uint64_t> version;
  Rng rng(97);
  Status refused = OkStatus();
  size_t refused_file = 0;
  for (uint64_t written = 0; refused.ok() && written < target + (64ull << 20);
       written += kLivenessFileBytes) {
    if (written < target) {
      refused_file = files.size();
      const std::string path = "/f" + std::to_string(refused_file);
      refused = inst.paths->WriteFile(path, TestBytes(kLivenessFileBytes, refused_file));
      if (auto ino = inst.paths->Resolve(path); ino.ok()) {
        files.push_back(*ino);
        version.push_back(refused_file);
      }
    } else {
      refused_file = rng.NextBelow(files.size());
      refused = inst.fs->Write(files[refused_file], 0, TestBytes(kLivenessFileBytes, written))
                    .status();
      version[refused_file] = written;
    }
    if (refused.ok()) {
      refused = inst.fs->Tick();
    }
  }
  ASSERT_EQ(refused.code(), ErrorCode::kNoSpace) << refused.ToString();
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
  for (size_t f = 0; f < files.size(); f += 7) {
    auto back = inst.paths->ReadFile("/f" + std::to_string(f));
    ASSERT_TRUE(back.ok());
    if (f != refused_file) {
      EXPECT_EQ(*back, TestBytes(kLivenessFileBytes, version[f])) << f;
    }
  }

  for (size_t f = 0; f < files.size(); f += 4) {
    ASSERT_TRUE(inst.paths->Unlink("/f" + std::to_string(f)).ok());
  }
  for (size_t f = 1; f < files.size(); f += 4) {
    auto wrote = inst.fs->Write(files[f], 0, TestBytes(kLivenessFileBytes, f + 1));
    ASSERT_TRUE(wrote.ok()) << "file " << f << ": " << wrote.status().ToString();
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        inst.paths->WriteFile("/new" + std::to_string(i), TestBytes(kLivenessFileBytes, i)).ok())
        << i;
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsCleanerTest, StatsAccumulate) {
  LfsInstance inst;
  ASSERT_TRUE(MakeFragmentation(inst, 1000, 2).ok());
  auto cleaned = inst.fs->CleanNow(8);
  ASSERT_TRUE(cleaned.ok());
  const auto& stats = inst.fs->cleaner_stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.segments_cleaned, *cleaned);
  EXPECT_EQ(stats.segment_reads, *cleaned);
  EXPECT_GT(stats.blocks_examined, 0u);
}

}  // namespace
}  // namespace logfs
