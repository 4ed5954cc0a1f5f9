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

// Dirty segments the usage table calls empty, in segment order.
std::vector<uint32_t> EmptyDirtySegments(const LfsFileSystem& fs) {
  std::vector<uint32_t> empty;
  for (uint32_t seg = 0; seg < fs.superblock().num_segments; ++seg) {
    const SegUsage& usage = fs.usage().Get(seg);
    if (usage.state == SegState::kDirty && usage.live_bytes == 0) {
      empty.push_back(seg);
    }
  }
  return empty;
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

// --- Empty victims (paper §4.3.4: the usage table says what is live) --------

// A segment the usage table calls empty holds nothing to stage, so a pass
// over only such victims reads nothing and writes only its checkpoint. Its
// victims still turn clean only at that checkpoint; EmptyVictimCrashTest
// (lfs_cleaner_crash_test) crashes the pass there and finds them pending.
TEST(LfsCleanerTest, EmptyVictimsAreReclaimedWithoutReads) {
  LfsInstance inst;
  ASSERT_TRUE(MakeFragmentation(inst, 2000, 1).ok());  // Every file deleted.
  const std::vector<uint32_t> victims = EmptyDirtySegments(*inst.fs);
  ASSERT_GE(victims.size(), 4u);
  const uint64_t reads = inst.disk->stats().read_ops;
  const uint64_t checkpoints = inst.fs->checkpoint_count();
  const LfsFileSystem::CleanerStats before = inst.fs->cleaner_stats();
  auto cleaned = inst.fs->CleanTheseSegments(victims);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(*cleaned, victims.size());
  EXPECT_EQ(inst.disk->stats().read_ops, reads);
  EXPECT_EQ(inst.fs->cleaner_stats().segment_reads, before.segment_reads);
  EXPECT_EQ(inst.fs->cleaner_stats().blocks_examined, before.blocks_examined);
  EXPECT_EQ(inst.fs->cleaner_stats().segments_cleaned,
            before.segments_cleaned + victims.size());
  EXPECT_EQ(inst.fs->checkpoint_count(), checkpoints + 1);
  for (uint32_t seg : victims) {
    EXPECT_EQ(inst.fs->usage().Get(seg).state, SegState::kClean) << "segment " << seg;
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

// Writes `count` files of `bytes` each named prefix0..prefix<count-1>.
Status WriteFiles(PathFs& paths, const std::string& prefix, int count, size_t bytes,
                  uint64_t seed) {
  for (int i = 0; i < count; ++i) {
    RETURN_IF_ERROR(paths.WriteFile(prefix + std::to_string(i), TestBytes(bytes, seed + i)));
  }
  return OkStatus();
}

// A batch mixing empty and non-empty victims reads exactly the non-empty
// ones and still relocates everything live in them.
TEST(LfsCleanerTest, MixedBatchReadsOnlyVictimsWithLiveData) {
  LfsInstance inst;
  // Group a fills segments of its own and then dies whole; group b stays
  // half alive in later segments.
  ASSERT_TRUE(WriteFiles(*inst.paths, "/a", 1500, 4096, 0).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(WriteFiles(*inst.paths, "/b", 1500, 4096, 10000).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(inst.paths->Unlink("/a" + std::to_string(i)).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(inst.paths->Unlink("/b" + std::to_string(i)).ok());
    }
  }
  ASSERT_TRUE(inst.fs->Sync().ok());

  std::vector<uint32_t> empty = EmptyDirtySegments(*inst.fs);
  std::vector<uint32_t> live;
  for (uint32_t seg = 0; seg < inst.fs->superblock().num_segments; ++seg) {
    const SegUsage& usage = inst.fs->usage().Get(seg);
    if (usage.state == SegState::kDirty && usage.live_bytes > 0) {
      live.push_back(seg);
    }
  }
  ASSERT_GE(empty.size(), 3u);
  ASSERT_GE(live.size(), 3u);
  std::vector<uint32_t> batch;  // Interleaved, three of each.
  for (size_t i = 0; i < 3; ++i) {
    batch.push_back(live[i]);
    batch.push_back(empty[i]);
  }
  const LfsFileSystem::CleanerStats before = inst.fs->cleaner_stats();
  auto cleaned = inst.fs->CleanTheseSegments(batch);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(*cleaned, batch.size());
  const LfsFileSystem::CleanerStats& after = inst.fs->cleaner_stats();
  EXPECT_EQ(after.segment_reads - before.segment_reads, 3u);
  EXPECT_GT(after.live_blocks_copied, before.live_blocks_copied);
  for (uint32_t seg : batch) {
    EXPECT_EQ(inst.fs->usage().Get(seg).state, SegState::kClean) << "segment " << seg;
  }
  ASSERT_TRUE(inst.Remount().ok());
  for (int i = 1; i < 1500; i += 2) {
    auto back = inst.paths->ReadFile("/b" + std::to_string(i));
    ASSERT_TRUE(back.ok()) << i;
    ASSERT_EQ(*back, TestBytes(4096, 10000 + i)) << i;
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

// A clamped estimate is not trusted: a segment whose live bytes were
// under-counted to zero (a double-decremented block death, injected here)
// still holds live blocks, and the cleaner must read it to rescue them.
TEST(LfsCleanerTest, ClampedEmptySegmentIsStillRead) {
  LfsInstance inst;
  ASSERT_TRUE(MakeFragmentation(inst, 1500, 2).ok());  // Half the files survive.
  uint32_t victim = UINT32_MAX;
  for (uint32_t seg = 0; seg < inst.fs->superblock().num_segments; ++seg) {
    const SegUsage& usage = inst.fs->usage().Get(seg);
    if (usage.state == SegState::kDirty && usage.live_bytes > 0) {
      victim = seg;
      break;
    }
  }
  ASSERT_NE(victim, UINT32_MAX);
  auto& usage = const_cast<SegmentUsageTable&>(inst.fs->usage());
  usage.AddLive(victim, -static_cast<int64_t>(usage.Get(victim).live_bytes) - 4096);
  ASSERT_EQ(usage.Get(victim).live_bytes, 0u);
  ASSERT_TRUE(usage.Get(victim).live_clamped);

  const LfsFileSystem::CleanerStats before = inst.fs->cleaner_stats();
  auto cleaned = inst.fs->CleanTheseSegments({victim});
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(inst.fs->cleaner_stats().segment_reads, before.segment_reads + 1);
  EXPECT_GT(inst.fs->cleaner_stats().live_blocks_copied, before.live_blocks_copied);
  ASSERT_TRUE(inst.Remount().ok());
  for (int i = 1; i < 1500; i += 2) {
    auto back = inst.paths->ReadFile("/frag" + std::to_string(i));
    ASSERT_TRUE(back.ok()) << i;
    ASSERT_EQ(*back, TestBytes(1024, i)) << i;
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

// The invariant the unread reclaim relies on: under overwrite-and-unlink
// churn with the cleaner running, a dirty segment the usage table calls
// empty (and never clamped) holds no block the cleaner's liveness check
// accepts. Every summary entry of every such segment is asked.
Status CheckEmptySegmentsHoldNothingLive(LfsInstance& inst, uint64_t* segments_checked) {
  const LfsSuperblock& sb = inst.fs->superblock();
  for (uint32_t seg : EmptyDirtySegments(*inst.fs)) {
    if (inst.fs->usage().Get(seg).live_clamped) {
      continue;  // The cleaner reads these.
    }
    ++*segments_checked;
    for (SummaryChain chain(inst.disk.get(), sb, seg, ChainMode::kStrict); chain.Next();) {
      ASSIGN_OR_RETURN(SegmentSummary summary, DecodeSummaryUnchecked(chain.summary_block()));
      for (size_t i = 0; i < summary.entries.size(); ++i) {
        const DiskAddr addr =
            sb.SegmentBlockSector(seg, chain.offset() + 1 + static_cast<uint32_t>(i));
        ASSIGN_OR_RETURN(bool live, inst.fs->IsBlockLive(summary.entries[i], addr));
        if (live) {
          return CorruptedError("segment " + std::to_string(seg) + " block " +
                               std::to_string(chain.offset() + 1 + i) +
                               " is live but the usage table says the segment is empty");
        }
      }
    }
  }
  return OkStatus();
}

class EmptySegmentPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmptySegmentPropertyTest, EmptyDirtySegmentsHoldNoLiveBlock) {
  LfsInstance inst;  // 64 MB, auto-clean from Tick().
  Rng rng(GetParam());
  // About half of UsableBytes() live, so victims mix empty and partly live
  // segments.
  constexpr int kFiles = 1500;
  std::vector<std::vector<std::byte>> content(kFiles);
  std::vector<InodeNum> inos(kFiles);
  auto random_size = [&] { return 4096 * (1 + rng.NextBelow(10)); };
  for (int f = 0; f < kFiles; ++f) {
    const std::string path = "/p" + std::to_string(f);
    content[f] = TestBytes(random_size(), f);
    ASSERT_TRUE(inst.paths->WriteFile(path, content[f]).ok());
    auto ino = inst.paths->Resolve(path);
    ASSERT_TRUE(ino.ok());
    inos[f] = *ino;
  }
  uint64_t checked = 0;
  for (int step = 1; step <= 8000; ++step) {
    // Phases of 500 ops alternate. Hot phases rewrite or replace whole files
    // among the first tenth, so the segments they fill die whole; cold
    // phases overwrite one block of any file in place, leaving partly live
    // segments behind.
    const bool hot = (step / 500) % 2 == 0;
    const int f = static_cast<int>(rng.NextBelow(hot ? kFiles / 10 : kFiles));
    const std::string path = "/p" + std::to_string(f);
    const uint64_t seed = GetParam() * 100000 + step;
    if (hot && rng.NextBool(0.5)) {
      // Unlink and recreate at a new size.
      ASSERT_TRUE(inst.paths->Unlink(path).ok());
      content[f] = TestBytes(random_size(), seed);
      ASSERT_TRUE(inst.paths->WriteFile(path, content[f]).ok());
      auto ino = inst.paths->Resolve(path);
      ASSERT_TRUE(ino.ok());
      inos[f] = *ino;
    } else if (hot) {
      content[f] = TestBytes(content[f].size(), seed);
      ASSERT_TRUE(inst.fs->Write(inos[f], 0, content[f]).ok());
    } else {
      const size_t block = rng.NextBelow(content[f].size() / 4096);
      const std::vector<std::byte> data = TestBytes(4096, seed);
      std::copy(data.begin(), data.end(), content[f].begin() + block * 4096);
      ASSERT_TRUE(inst.fs->Write(inos[f], block * 4096, data).ok());
    }
    ASSERT_TRUE(inst.fs->Tick().ok());
    if (step % 500 == 0) {
      Status held = CheckEmptySegmentsHoldNothingLive(inst, &checked);
      ASSERT_TRUE(held.ok()) << "step " << step << ": " << held.ToString();
    }
  }
  // The cleaner relocated live data, and empty segments were there to ask.
  EXPECT_GT(inst.fs->cleaner_stats().live_blocks_copied, 0u);
  EXPECT_GT(checked, 0u);
  for (int f = 0; f < kFiles; f += 7) {
    auto back = inst.paths->ReadFile("/p" + std::to_string(f));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, content[f]) << f;
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmptySegmentPropertyTest, ::testing::Values(3, 17, 29));

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
