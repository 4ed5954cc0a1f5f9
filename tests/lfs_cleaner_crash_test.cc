// Crash-during-cleaning property tests: the cleaner relocates the only
// copies of live blocks, so a crash at any point inside a cleaning pass is
// the most dangerous moment in the system's life. The kCleanPending commit
// barrier (victims become allocatable only after the checkpoint that
// records the new homes) must make every such crash recoverable.
#include <gtest/gtest.h>

#include <tuple>

#include "src/disk/fault_disk.h"
#include "src/lfs/lfs_check.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

struct CleanerCrashRig {
  CleanerCrashRig() : clock(), inner(131072, &clock), fault(&inner) {
    LfsParams params = LfsInstance::DefaultParams();
    if (!LfsFileSystem::Format(&inner, params).ok()) {
      std::abort();
    }
  }

  SimClock clock;
  MemoryDisk inner;
  FaultInjectingDisk fault;
};

// Workload: build a fragmented volume with known file contents, then clean
// with a crash armed. After "reboot", the volume must mount, check clean,
// and every file that survived must carry its exact original content.
class CleanerCrashTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CleanerCrashTest, CrashMidCleaningIsRecoverable) {
  CleanerCrashRig rig;
  const int kFiles = 600;
  {
    LfsFileSystem::Options options;
    options.auto_clean = false;
    auto fs = LfsFileSystem::Mount(&rig.fault, &rig.clock, nullptr, options);
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    for (int i = 0; i < kFiles; ++i) {
      ASSERT_TRUE(paths.WriteFile("/f" + std::to_string(i), TestBytes(3000, i)).ok());
      if (i % 100 == 99) {
        ASSERT_TRUE((*fs)->Sync().ok());
      }
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    // Fragment: delete two of every three files.
    for (int i = 0; i < kFiles; ++i) {
      if (i % 3 != 0) {
        ASSERT_TRUE(paths.Unlink("/f" + std::to_string(i)).ok());
      }
    }
    ASSERT_TRUE((*fs)->Sync().ok());

    // Arm the crash and clean. The cleaning pass reads victims, rewrites
    // live blocks, and checkpoints; the crash lands somewhere inside.
    rig.fault.CrashAfterWrites(GetParam(), /*torn_sectors=*/GetParam() % 5);
    (void)(*fs)->CleanNow(16);  // May fail with kCrashed — that's the point.
    rig.fault.CrashNow();
  }

  rig.fault.Reset();
  auto fs = LfsFileSystem::Mount(&rig.inner, &rig.clock, nullptr);
  ASSERT_TRUE(fs.ok()) << "mount after cleaning crash " << GetParam() << ": "
                       << fs.status().ToString();
  LfsChecker checker(fs->get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << "crash " << GetParam() << ": " << report->Summary();

  // Every surviving file must be byte-exact. The survivors were all durable
  // (synced) before the crash, so they must ALL be present.
  PathFs paths(fs->get());
  int verified = 0;
  for (int i = 0; i < kFiles; i += 3) {
    const std::string name = "/f" + std::to_string(i);
    ASSERT_TRUE(paths.Exists(name)) << name << " lost by cleaning crash " << GetParam();
    auto back = paths.ReadFile(name);
    ASSERT_TRUE(back.ok()) << name;
    ASSERT_EQ(*back, TestBytes(3000, i)) << name;
    ++verified;
  }
  EXPECT_EQ(verified, kFiles / 3);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CleanerCrashTest,
                         ::testing::Values(0, 1, 2, 3, 4, 6, 9, 13, 19, 28, 42, 63, 94, 141));

// A pass whose victims the usage table calls empty reads nothing and writes
// only its checkpoint: one partial segment of imap and usage blocks, then
// the checkpoint region. Its victims turn kCleanPending before that
// checkpoint, so a crash at either write (whole or torn) finds them pending,
// not clean, and recovery comes back to the last synced state.
class EmptyVictimCrashTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(EmptyVictimCrashTest, CrashBeforeTheCheckpointCommitsIsRecoverable) {
  CleanerCrashRig rig;
  const int kKeep = 200;
  const int kGone = 1500;
  {
    LfsFileSystem::Options options;
    options.auto_clean = false;
    auto fs = LfsFileSystem::Mount(&rig.fault, &rig.clock, nullptr, options);
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    for (int i = 0; i < kGone; ++i) {
      ASSERT_TRUE(paths.WriteFile("/gone" + std::to_string(i), TestBytes(4096, i)).ok());
    }
    for (int i = 0; i < kKeep; ++i) {
      ASSERT_TRUE(paths.WriteFile("/keep" + std::to_string(i), TestBytes(3000, i)).ok());
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    for (int i = 0; i < kGone; ++i) {
      ASSERT_TRUE(paths.Unlink("/gone" + std::to_string(i)).ok());
    }
    // Every other kept file gets new content: the last synced one.
    for (int i = 0; i < kKeep; i += 2) {
      ASSERT_TRUE(paths.WriteFile("/keep" + std::to_string(i), TestBytes(3000, kKeep + i)).ok());
    }
    ASSERT_TRUE((*fs)->Sync().ok());

    std::vector<uint32_t> victims;
    for (uint32_t seg = 0; seg < (*fs)->superblock().num_segments; ++seg) {
      const SegUsage& usage = (*fs)->usage().Get(seg);
      if (usage.state == SegState::kDirty && usage.live_bytes == 0) {
        victims.push_back(seg);
      }
    }
    ASSERT_GE(victims.size(), 4u);
    const uint64_t reads = rig.inner.stats().read_ops;
    const auto [crash_at, torn_sectors] = GetParam();
    rig.fault.CrashAfterWrites(crash_at, torn_sectors);
    auto cleaned = (*fs)->CleanTheseSegments(victims);
    ASSERT_EQ(cleaned.status().code(), ErrorCode::kCrashed)
        << "crash point " << crash_at << " is past the pass's last write";
    EXPECT_EQ(rig.inner.stats().read_ops, reads);
    for (uint32_t seg : victims) {
      EXPECT_EQ((*fs)->usage().Get(seg).state, SegState::kCleanPending) << "segment " << seg;
    }
    rig.fault.CrashNow();
  }

  rig.fault.Reset();
  auto fs = LfsFileSystem::Mount(&rig.inner, &rig.clock, nullptr);
  ASSERT_TRUE(fs.ok()) << "mount after crash: " << fs.status().ToString();
  LfsChecker checker(fs->get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  PathFs paths(fs->get());
  for (int i = 0; i < kKeep; ++i) {
    auto back = paths.ReadFile("/keep" + std::to_string(i));
    ASSERT_TRUE(back.ok()) << i;
    ASSERT_EQ(*back, TestBytes(3000, i % 2 == 0 ? kKeep + i : i)) << i;
  }
  for (int i = 0; i < kGone; i += 97) {
    EXPECT_FALSE(paths.Exists("/gone" + std::to_string(i))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, EmptyVictimCrashTest,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 4)));

// Crash while the cleaner runs under live foreground traffic.
TEST(CleanerCrashTest, CrashDuringMixedCleaningAndWrites) {
  for (uint64_t crash_at : {5u, 17u, 39u, 77u}) {
    CleanerCrashRig rig;
    {
      auto fs = LfsFileSystem::Mount(&rig.fault, &rig.clock, nullptr);
      ASSERT_TRUE(fs.ok());
      PathFs paths(fs->get());
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(paths.WriteFile("/base" + std::to_string(i), TestBytes(4096, i)).ok());
      }
      ASSERT_TRUE((*fs)->Sync().ok());
      for (int i = 0; i < 300; i += 2) {
        ASSERT_TRUE(paths.Unlink("/base" + std::to_string(i)).ok());
      }
      ASSERT_TRUE((*fs)->Sync().ok());
      rig.fault.CrashAfterWrites(crash_at);
      // Interleave: write, clean, write — die somewhere in the middle.
      for (int round = 0; round < 10; ++round) {
        if (!paths.WriteFile("/new" + std::to_string(round), TestBytes(20000, round)).ok()) {
          break;
        }
        if (!(*fs)->CleanNow(4).ok()) {
          break;
        }
      }
      rig.fault.CrashNow();
    }
    rig.fault.Reset();
    auto fs = LfsFileSystem::Mount(&rig.inner, &rig.clock, nullptr);
    ASSERT_TRUE(fs.ok()) << "crash_at " << crash_at;
    LfsChecker checker(fs->get());
    auto report = checker.Check();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << "crash_at " << crash_at << ": " << report->Summary();
    // The pre-crash durable survivors are intact.
    PathFs paths(fs->get());
    for (int i = 1; i < 300; i += 2) {
      auto back = paths.ReadFile("/base" + std::to_string(i));
      ASSERT_TRUE(back.ok()) << i << " crash_at " << crash_at;
      ASSERT_EQ(*back, TestBytes(4096, i)) << i;
    }
  }
}

}  // namespace
}  // namespace logfs
