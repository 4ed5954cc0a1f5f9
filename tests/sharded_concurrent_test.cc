// The concurrent suite: many OS threads driving one sharded mount through
// the router, with per-thread content verification, global consistency
// checks, and a remount pass afterwards. This is the suite
// tools/check_tsan.sh runs under -DLOGFS_SANITIZE=thread — data races in
// the router, the seam primitives, the clock/CPU accounting, or the disk
// layer surface here as TSan reports.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>

#include "src/disk/memory_disk.h"
#include "src/lfs/sharded_lfs.h"
#include "src/workload/concurrent_driver.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

LfsParams ShardParams() {
  LfsParams params;
  params.max_inodes = 4096;
  params.segment_size = 1 << 19;
  params.clean_start_segments = 3;
  params.clean_stop_segments = 5;
  params.reserved_segments = 2;
  return params;
}

struct Rig {
  explicit Rig(uint32_t shards, uint64_t sectors = 131072) {
    clock = std::make_unique<SimClock>();
    cpu = std::make_unique<CpuModel>(clock.get(), 10.0);
    disk = std::make_unique<MemoryDisk>(sectors, clock.get());
    EXPECT_TRUE(ShardedLfs::Format(disk.get(), ShardParams(), shards).ok());
    auto mounted = ShardedLfs::Mount(disk.get(), clock.get(), cpu.get());
    EXPECT_TRUE(mounted.ok());
    fs = std::move(mounted).value();
  }
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<MemoryDisk> disk;
  std::unique_ptr<ShardedLfs> fs;
};

void RunAndVerify(Rig& rig, ConcurrentLoadOptions options) {
  auto report = RunConcurrentLoad(rig.fs.get(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << (report->problems.empty()
                                    ? "unexpected errors"
                                    : report->problems.front());
  EXPECT_GT(report->writes, 0u);

  ASSERT_TRUE(rig.fs->Sync().ok());
  auto check = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok()) << check->Summary();

  // Everything must also hold after tearing down and remounting.
  rig.fs.reset();
  auto mounted = ShardedLfs::Mount(rig.disk.get(), rig.clock.get(), rig.cpu.get());
  ASSERT_TRUE(mounted.ok());
  rig.fs = std::move(mounted).value();
  check = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok()) << check->Summary();
}

TEST(ShardedConcurrentTest, FourThreadsFourShardsPrivateDirs) {
  Rig rig(4);
  ConcurrentLoadOptions options;
  options.threads = 4;
  options.ops_per_thread = 250;
  options.seed = 1;
  RunAndVerify(rig, options);
}

TEST(ShardedConcurrentTest, SharedRootMaximumContention) {
  Rig rig(4);
  ConcurrentLoadOptions options;
  options.threads = 4;
  options.ops_per_thread = 150;
  options.shared_root = true;
  options.seed = 2;
  RunAndVerify(rig, options);
}

TEST(ShardedConcurrentTest, ManyThreadsFewShards) {
  Rig rig(2);
  ConcurrentLoadOptions options;
  options.threads = 8;
  options.ops_per_thread = 100;
  options.seed = 3;
  RunAndVerify(rig, options);
}

// shards=1: the degenerate router serializes everything behind one lock —
// the concurrent front-end must still be correct (and TSan-clean).
TEST(ShardedConcurrentTest, SingleShardStillThreadSafe) {
  Rig rig(1);
  ConcurrentLoadOptions options;
  options.threads = 4;
  options.ops_per_thread = 100;
  options.seed = 4;
  RunAndVerify(rig, options);
}

// Cross-shard namespace traffic racing the ONLINE checker/repairer and the
// intent-retirement paths (Sync / Tick). CheckShardedLfs self-serializes by
// taking the rename lock plus every shard lock, so running it — in repair
// mode — against live renames must neither trip TSan nor observe (or
// "repair") a mid-flight operation: every mid-race check reports a clean
// namespace, because intents make cross-shard ops atomic under the locks
// the checker takes.
//
// Each round the movers make a fixed number of round trips: half before
// the round's check starts, half racing it. A check waits out at most the
// movers' second halves, where movers looping until told to stop could
// starve it of the rename lock for minutes under TSan.
TEST(ShardedConcurrentTest, RenamesRacingOnlineRepairerStayClean) {
  Rig rig(4);
  ASSERT_TRUE(rig.fs->intent_log_enabled());

  // Two directories on different shards, plus per-thread files.
  auto mk = [&](const std::string& name) {
    auto ino = rig.fs->Create(kRootIno, name, FileType::kDirectory);
    EXPECT_TRUE(ino.ok());
    return *ino;
  };
  const InodeNum d0 = mk("race-a");
  InodeNum d1 = 0;
  for (int i = 0;; ++i) {
    d1 = mk("race-b" + std::to_string(i));
    if (rig.fs->ShardOf(d1) != rig.fs->ShardOf(d0)) break;
  }
  constexpr int kMovers = 3;
  constexpr int kRounds = 12;
  constexpr int kTripsPerRound = 8;
  for (int t = 0; t < kMovers; ++t) {
    auto f = rig.fs->Create(d0, "m" + std::to_string(t), FileType::kRegular);
    ASSERT_TRUE(f.ok());
  }
  ASSERT_TRUE(rig.fs->Sync().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> halfway{0};         // Movers past the first half of a round, summed.
  std::atomic<int> check_started{-1};  // The last round whose check has started.
  std::array<std::atomic<int>, kMovers> trips{};
  std::vector<std::thread> threads;
  // Movers: cross-shard rename ping-pong (every iteration publishes and
  // applies an intent under both shard locks).
  for (int t = 0; t < kMovers; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "m" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        for (int trip = 0; trip < kTripsPerRound; ++trip) {
          if (trip == kTripsPerRound / 2) {
            ++halfway;
            while (check_started.load() < round) {
              std::this_thread::yield();
            }
          }
          EXPECT_TRUE(rig.fs->Rename(d0, name, d1, name).ok());
          EXPECT_TRUE(rig.fs->Rename(d1, name, d0, name).ok());
          ++trips[t];
        }
      }
    });
  }
  // Retirement: Sync and Tick race the movers' publishes.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(rig.fs->Tick().ok());
      ASSERT_TRUE(rig.fs->Sync().ok());
    }
  });
  // The online repairer, once a round, against the live mount.
  int clean_checks = 0;
  for (int round = 0; round < kRounds; ++round) {
    while (halfway.load() < kMovers * (round + 1)) {
      std::this_thread::yield();
    }
    // Every mover waits halfway through this round, so once released the
    // check below starts while their renames are in flight.
    for (int t = 0; t < kMovers; ++t) {
      EXPECT_EQ(trips[t].load(), round * kTripsPerRound + kTripsPerRound / 2)
          << "mover " << t << " round " << round;
    }
    check_started.store(round);
    auto check = CheckShardedLfs(rig.fs.get(), /*verify_data=*/false,
                                 RepairMode::kRepair);
    ASSERT_TRUE(check.ok());
    EXPECT_TRUE(check->ok()) << check->Summary();
    EXPECT_EQ(check->repairs_applied, 0u)
        << "online repairer 'fixed' a mid-flight op: "
        << (check->repair_actions.empty() ? "" : check->repair_actions.front());
    clean_checks += check->ok() ? 1 : 0;
  }
  for (int t = 0; t < kMovers; ++t) {
    threads[t].join();
  }
  stop.store(true);
  threads.back().join();
  EXPECT_EQ(clean_checks, kRounds);

  ASSERT_TRUE(rig.fs->Sync().ok());
  auto final_check = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(final_check.ok());
  EXPECT_TRUE(final_check->ok()) << final_check->Summary();
}

// With one thread the driver is fully deterministic: two separate rigs see
// identical op counts, so failures reproduce run to run.
TEST(ShardedConcurrentTest, SingleThreadIsDeterministic) {
  ConcurrentLoadOptions options;
  options.threads = 1;
  options.ops_per_thread = 200;
  options.seed = 7;

  Rig a(4);
  auto ra = RunConcurrentLoad(a.fs.get(), options);
  ASSERT_TRUE(ra.ok());
  Rig b(4);
  auto rb = RunConcurrentLoad(b.fs.get(), options);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->creates, rb->creates);
  EXPECT_EQ(ra->writes, rb->writes);
  EXPECT_EQ(ra->renames, rb->renames);
  EXPECT_EQ(ra->unlinks, rb->unlinks);
  EXPECT_EQ(ra->bytes_written, rb->bytes_written);
  EXPECT_TRUE(ra->ok() && rb->ok());
}

}  // namespace
}  // namespace logfs
