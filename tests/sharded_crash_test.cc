// Crash-consistency sweep for the sharded multi-log (ctest -L crash).
//
// A single RecordingDisk under the whole volume journals the interleaved
// write streams of all four shards; CrashImageGenerator then enumerates
// post-crash images (prefix + torn-write variants) exactly as the
// single-log explorer does. The sharded durability contract verified per
// image:
//
//   1. the sharded mount succeeds (every shard recovers independently),
//      under both roll-forward and checkpoint-only recovery;
//   2. every per-shard structural invariant holds (LfsChecker::CheckLog:
//      imap resolution, usage exactness, address uniqueness, media CRCs,
//      content readability);
//   3. under roll-forward, every file whose Fsync completed before the
//      crash point is present with exactly its fsynced content;
//   4. the global namespace is CLEAN — zero dangling dirents, zero
//      orphans, exact nlinks. The cross-shard intent log (lfs_intent.h)
//      publishes a durable intent before the first half of every
//      multi-shard namespace op mutates, and mount-time reconciliation
//      (DESIGN.md §6i) completes or rolls back whatever the crash split.
//
// The CrossShardOpsAtomic matrix additionally pins crash boundaries at
// every intent-region write (publish and retire), so torn and mid-intent
// states — the exact window the log exists to cover — are always in the
// enumeration, never sampled over by the boundary stride. The
// SameShardRenames sweep does the same for renames that stay on one log,
// most of which publish no intent, and also checks that a covered rename's
// source name is gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/crashsim/crash_image.h"
#include "src/disk/memory_disk.h"
#include "src/disk/overlay_disk.h"
#include "src/disk/recording_disk.h"
#include "src/lfs/lfs_format.h"
#include "src/lfs/sharded_lfs.h"
#include "tests/crash_reference.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

constexpr uint64_t kSectors = 65536;  // 32 MB; 8 MB per shard.
constexpr uint32_t kShards = 4;

LfsParams RigParams() {
  LfsParams params;
  params.max_inodes = 1024;
  params.segment_size = 1 << 19;
  params.clean_start_segments = 3;
  params.clean_stop_segments = 5;
  params.reserved_segments = 2;
  return params;
}

struct DurableFile {
  InodeNum ino = 0;
  std::vector<std::byte> content;
  size_t journal_len = 0;  // Journal size when the Fsync returned.
};

// A same-shard rename's source name. Once a completed Fsync (under
// roll-forward) or Sync (either mode) covers the rename, it must not name
// `ino` again.
struct MovedName {
  static constexpr size_t kNever = std::numeric_limits<size_t>::max();
  InodeNum dir = 0;
  std::string name;
  InodeNum ino = 0;
  size_t fsynced_at = kNever;  // Journal size when a covering Fsync returned.
  size_t synced_at = kNever;   // Journal size when a covering Sync returned.
};

struct RecordedRun {
  std::vector<std::byte> base_image;       // Disk content right after format.
  std::vector<WriteRecord> writes;         // The interleaved journal.
  std::vector<DurableFile> durable;
  std::vector<MovedName> moved;
  // Journal sizes at which an Fsync or Sync returned: durability barriers
  // that order the writes on either side.
  std::vector<size_t> barriers;
};

// Formats a sharded volume, then replays a deterministic single-threaded
// workload through the router while recording every sector write. With
// `final_sync` the journal ends in a fully flushed state (the complete
// replay must then recover perfectly clean); without it the tail holds
// unflushed crash points.
RecordedRun RecordWorkload(bool final_sync = false) {
  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  MemoryDisk inner(kSectors, &clock);
  EXPECT_TRUE(ShardedLfs::Format(&inner, RigParams(), kShards).ok());
  RecordedRun run;
  {
    std::span<const std::byte> raw = inner.RawImage();
    run.base_image.assign(raw.begin(), raw.end());
  }

  RecordingDisk rec(&inner);
  auto mounted = ShardedLfs::Mount(&rec, &clock, &cpu);
  EXPECT_TRUE(mounted.ok());
  ShardedLfs* fs = mounted->get();

  // Durable skeleton: per-shard-ish working directories, then a global
  // barrier so every later path resolves in every crash state.
  std::vector<InodeNum> dirs;
  for (int d = 0; d < 4; ++d) {
    auto ino = fs->Create(kRootIno, "d" + std::to_string(d), FileType::kDirectory);
    EXPECT_TRUE(ino.ok());
    dirs.push_back(*ino);
  }
  EXPECT_TRUE(fs->Sync().ok());

  for (int i = 0; i < 40; ++i) {
    const InodeNum dir = dirs[i % 4];
    const std::string name = "f" + std::to_string(i);
    auto ino = fs->Create(dir, name, FileType::kRegular);
    EXPECT_TRUE(ino.ok());
    auto payload = TestBytes(4096 * (1 + i % 3), i);
    EXPECT_TRUE(fs->Write(*ino, 0, payload).ok());
    if (i % 4 == 0) {
      EXPECT_TRUE(fs->Fsync(*ino).ok());
      run.durable.push_back(DurableFile{*ino, std::move(payload), rec.writes().size()});
    }
    if (i % 7 == 3) {
      auto tmp = fs->Create(dir, "tmp" + std::to_string(i), FileType::kRegular);
      EXPECT_TRUE(tmp.ok());
      EXPECT_TRUE(fs->Write(*tmp, 0, TestBytes(4096, 100 + i)).ok());
      EXPECT_TRUE(fs->Unlink(dir, "tmp" + std::to_string(i)).ok());
    }
    if (i % 9 == 5) {
      // Cross-directory (and typically cross-shard) rename of a
      // non-durable file: both halves ride different shard streams.
      EXPECT_TRUE(fs->Rename(dir, name, dirs[(i + 1) % 4], name + "x").ok());
    }
    if (i == 17) {
      EXPECT_TRUE(fs->Checkpoint().ok());
    }
  }
  if (final_sync) {
    EXPECT_TRUE(fs->Sync().ok());
  }

  run.writes = rec.writes();
  // The streams really interleave: the journal must touch several slices.
  const uint64_t slice = kSectors / kShards;
  std::set<uint64_t> slices_touched;
  for (const WriteRecord& w : run.writes) {
    slices_touched.insert(w.first / slice);
  }
  EXPECT_GE(slices_touched.size(), 3u)
      << "journal does not interleave multiple shard streams";
  return run;
}

TEST(ShardedCrashTest, EveryCrashImageRecoversPerShard) {
  RecordedRun run = RecordWorkload();
  ASSERT_GT(run.writes.size(), 20u);
  ASSERT_GE(run.durable.size(), 5u);

  CrashImageGenerator gen(run.base_image, &run.writes);
  CrashEnumerationBudget budget;
  budget.max_boundaries = 0;  // Every boundary.
  budget.torn_variants = {1, 8};
  std::vector<CrashPlan> plans = gen.Enumerate(budget);
  ASSERT_FALSE(plans.empty());

  size_t durable_checked = 0;
  for (const CrashPlan& plan : plans) {
    auto image = gen.Image(plan);
    ASSERT_TRUE(image.ok()) << plan.Describe();
    for (bool roll_forward : {true, false}) {
      SimClock clock;
      CpuModel cpu(&clock, 10.0);
      OverlayDisk disk = *image;  // Each mount recovers into its own fork.
      ShardedLfs::Options options;
      options.roll_forward = roll_forward;
      auto mounted = ShardedLfs::Mount(&disk, &clock, &cpu, options);
      ASSERT_TRUE(mounted.ok())
          << plan.Describe() << (roll_forward ? " [roll-forward]" : " [checkpoint-only]")
          << ": " << mounted.status().ToString();
      ShardedLfs* fs = mounted->get();

      auto report = CheckShardedLfs(fs, /*verify_data=*/true);
      ASSERT_TRUE(report.ok()) << plan.Describe();
      // Zero damage, global namespace included: intent reconciliation at
      // mount settles every half-applied cross-shard op.
      for (const std::string& problem : report->problems) {
        ADD_FAILURE() << plan.Describe()
                      << (roll_forward ? " [roll-forward]" : " [checkpoint-only]")
                      << ": " << problem;
      }

      if (!roll_forward) {
        continue;  // Fsync durability is a roll-forward guarantee.
      }
      for (const DurableFile& file : run.durable) {
        if (file.journal_len > plan.prefix) {
          continue;  // Fsync completed after this crash point.
        }
        ++durable_checked;
        auto stat = fs->Stat(file.ino);
        ASSERT_TRUE(stat.ok()) << plan.Describe() << ": fsynced ino " << file.ino
                               << " missing after crash";
        EXPECT_EQ(stat->size, file.content.size());
        std::vector<std::byte> out(file.content.size());
        auto n = fs->Read(file.ino, 0, out);
        ASSERT_TRUE(n.ok()) << plan.Describe();
        EXPECT_EQ(out, file.content)
            << plan.Describe() << ": fsynced ino " << file.ino << " content changed";
      }
    }
  }
  EXPECT_GT(durable_checked, 0u);
}

// A journal that ends in a global Sync must replay to a perfectly clean
// global namespace with nothing left for reconciliation to do: every
// intent was retired by the final sync, so the mount performs no repairs.
TEST(ShardedCrashTest, CompleteJournalRecoversClean) {
  RecordedRun run = RecordWorkload(/*final_sync=*/true);
  CrashImageGenerator gen(run.base_image, &run.writes);
  CrashPlan complete;
  complete.prefix = run.writes.size();
  auto image = gen.Image(complete);
  ASSERT_TRUE(image.ok());

  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  auto mounted = ShardedLfs::Mount(&*image, &clock, &cpu);
  ASSERT_TRUE(mounted.ok());
  EXPECT_FALSE(mounted->get()->reconcile_report().has_value())
      << "fully synced journal left pending intents";
  auto report = CheckShardedLfs(mounted->get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// Records a workload dominated by cross-shard namespace operations — the
// ops whose halves land on different shard logs and which the intent log
// exists to make crash-atomic:
//   * directory creates under root (FNV placement spreads them off the
//     parent's shard),
//   * cross-directory renames of files and directories, with and without
//     a destination victim,
//   * cross-shard hard links,
//   * unlinks/rmdirs where the child's home shard differs from the dir's.
// A mid-stream Checkpoint retires the first wave of intents, so the
// journal also contains RETIRED intent-slot writes (mid-completion crash
// points), and the tail leaves several intents unretired.
RecordedRun RecordCrossShardWorkload() {
  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  MemoryDisk inner(kSectors, &clock);
  EXPECT_TRUE(ShardedLfs::Format(&inner, RigParams(), kShards).ok());
  RecordedRun run;
  {
    std::span<const std::byte> raw = inner.RawImage();
    run.base_image.assign(raw.begin(), raw.end());
  }

  RecordingDisk rec(&inner);
  auto mounted = ShardedLfs::Mount(&rec, &clock, &cpu);
  EXPECT_TRUE(mounted.ok());
  ShardedLfs* fs = mounted->get();

  // Durable skeleton of working directories.
  std::vector<InodeNum> dirs;
  for (int d = 0; d < 6; ++d) {
    auto ino = fs->Create(kRootIno, "d" + std::to_string(d), FileType::kDirectory);
    EXPECT_TRUE(ino.ok());
    dirs.push_back(*ino);
  }
  EXPECT_TRUE(fs->Sync().ok());

  for (int i = 0; i < 24; ++i) {
    const InodeNum dir = dirs[i % 6];
    const std::string name = "f" + std::to_string(i);
    auto ino = fs->Create(dir, name, FileType::kRegular);
    EXPECT_TRUE(ino.ok());
    EXPECT_TRUE(fs->Write(*ino, 0, TestBytes(4096, i)).ok());
    switch (i % 6) {
      case 0:  // Plain cross-directory rename (cross-shard halves).
        EXPECT_TRUE(fs->Rename(dir, name, dirs[(i + 1) % 6], name + "x").ok());
        break;
      case 1: {  // Rename over a victim on another shard.
        auto victim =
            fs->Create(dirs[(i + 2) % 6], name + "v", FileType::kRegular);
        EXPECT_TRUE(victim.ok());
        EXPECT_TRUE(fs->Rename(dir, name, dirs[(i + 2) % 6], name + "v").ok());
        break;
      }
      case 2: {  // Cross-shard hard link, then unlink the original.
        EXPECT_TRUE(fs->Link(dirs[(i + 3) % 6], name + "h", *ino).ok());
        EXPECT_TRUE(fs->Unlink(dir, name).ok());
        break;
      }
      case 3: {  // Subdirectory create (hash-spread), reparent, rmdir.
        auto sub = fs->Create(dir, "sub" + std::to_string(i), FileType::kDirectory);
        EXPECT_TRUE(sub.ok());
        EXPECT_TRUE(fs->Rename(dir, "sub" + std::to_string(i), dirs[(i + 4) % 6],
                               "sub" + std::to_string(i))
                        .ok());
        EXPECT_TRUE(fs->Rmdir(dirs[(i + 4) % 6], "sub" + std::to_string(i)).ok());
        break;
      }
      default:
        break;
    }
    if (i == 11) {
      // Retires the first wave of intents: the journal now holds RETIRED
      // slot rewrites (mid-completion crash points) plus later publishes.
      EXPECT_TRUE(fs->Checkpoint().ok());
    }
  }

  run.writes = rec.writes();
  return run;
}

// The tentpole acceptance test: enumerate crash images of a cross-shard-op
// workload — with boundaries FORCED at every intent-region write so
// mid-intent and mid-completion states are always covered, plus torn and
// reordered variants — and require that every single image mounts (under
// both recovery modes) to a namespace with zero damage of any kind.
TEST(ShardedCrashTest, CrossShardOpsAtomicAtEveryCrashPoint) {
  RecordedRun run = RecordCrossShardWorkload();
  ASSERT_GT(run.writes.size(), 20u);

  // Locate the intent region from the formatted image's own superblock.
  std::vector<std::byte> first(run.base_image.begin(), run.base_image.begin() + 4096);
  auto sb = DecodeLfsSuperblock(first);
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(sb->has_intent_region());
  const uint64_t intent_start = sb->intent_start_sector;

  CrashImageGenerator gen(run.base_image, &run.writes);
  CrashEnumerationBudget budget;
  budget.max_boundaries = 0;  // Every boundary.
  budget.torn_variants = {1, 8};
  budget.reorder_within_epoch = true;
  // Pin a boundary just before AND just after every intent write: "before"
  // exercises the op never having started / never retired, "after" the
  // published-but-unapplied (or retired) record itself; torn variants of
  // the intent write come with the "before" boundary.
  size_t intent_writes = 0;
  for (size_t i = 0; i < run.writes.size(); ++i) {
    if (run.writes[i].first >= intent_start) {
      budget.forced_boundaries.push_back(i);
      budget.forced_boundaries.push_back(i + 1);
      ++intent_writes;
    }
  }
  ASSERT_GT(intent_writes, 4u) << "workload published no cross-shard intents";

  std::vector<CrashPlan> plans = gen.Enumerate(budget);
  ASSERT_GT(plans.size(), 2 * intent_writes);

  size_t reconciled_mounts = 0;
  for (const CrashPlan& plan : plans) {
    auto image = gen.Image(plan);
    ASSERT_TRUE(image.ok()) << plan.Describe();
    for (bool roll_forward : {true, false}) {
      SimClock clock;
      CpuModel cpu(&clock, 10.0);
      OverlayDisk disk = *image;  // Each mount recovers into its own fork.
      ShardedLfs::Options options;
      options.roll_forward = roll_forward;
      auto mounted = ShardedLfs::Mount(&disk, &clock, &cpu, options);
      ASSERT_TRUE(mounted.ok())
          << plan.Describe() << (roll_forward ? " [roll-forward]" : " [checkpoint-only]")
          << ": " << mounted.status().ToString();
      ShardedLfs* fs = mounted->get();
      if (fs->reconcile_report().has_value()) {
        ++reconciled_mounts;
      }

      auto report = CheckShardedLfs(fs, /*verify_data=*/true);
      ASSERT_TRUE(report.ok()) << plan.Describe();
      for (const std::string& problem : report->problems) {
        ADD_FAILURE() << plan.Describe()
                      << (roll_forward ? " [roll-forward]" : " [checkpoint-only]")
                      << ": " << problem;
      }
    }
  }
  // The sweep must actually have exercised reconciliation, not just found
  // already-clean images.
  EXPECT_GT(reconciled_mounts, 0u);
}

// Records renames that stay on one shard, each group followed by an Fsync:
//   1. a file renamed in place;
//   2. a file moved to another directory on its shard, then renamed there;
//   3. a directory moved between two directories of one shard;
//   4. a file renamed over a victim in its directory;
//   5. a cross-shard round trip, then one rename in place.
// A Sync after group 3 retires what was published so far. Only directory
// creates and removals that land off their parent's shard publish intents
// (the set-up's, and group 3's search for a subdirectory on the shard), and
// group 5: the round trip's two, and the in-place rename's, because those
// pending intents name its inode.
RecordedRun RecordSameShardRenames() {
  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  MemoryDisk inner(kSectors, &clock);
  EXPECT_TRUE(ShardedLfs::Format(&inner, RigParams(), kShards).ok());
  RecordedRun run;
  {
    std::span<const std::byte> raw = inner.RawImage();
    run.base_image.assign(raw.begin(), raw.end());
  }

  RecordingDisk rec(&inner);
  auto mounted = ShardedLfs::Mount(&rec, &clock, &cpu);
  EXPECT_TRUE(mounted.ok());
  ShardedLfs* fs = mounted->get();

  // A directory under `parent` named prefix<i> for the first i whose shard
  // satisfies `wanted`; the misses are removed again.
  auto dir_where = [fs](InodeNum parent, const std::string& prefix, auto wanted) {
    for (int i = 0;; ++i) {
      const std::string name = prefix + std::to_string(i);
      auto ino = fs->Create(parent, name, FileType::kDirectory);
      EXPECT_TRUE(ino.ok());
      if (wanted(fs->ShardOf(*ino))) {
        return std::make_pair(*ino, name);
      }
      EXPECT_TRUE(fs->Rmdir(parent, name).ok());
    }
  };
  auto file = [fs](InodeNum dir, const std::string& name, int seed) {
    auto ino = fs->Create(dir, name, FileType::kRegular);
    EXPECT_TRUE(ino.ok());
    EXPECT_TRUE(fs->Write(*ino, 0, TestBytes(4096, seed)).ok());
    return *ino;
  };
  auto rename = [fs, &run](InodeNum from, const std::string& from_name, InodeNum to,
                           const std::string& to_name, InodeNum ino, bool same_shard) {
    EXPECT_TRUE(fs->Rename(from, from_name, to, to_name).ok());
    if (same_shard) {
      run.moved.push_back(MovedName{from, from_name, ino});
    }
  };
  auto fsync = [fs, &run, &rec](std::initializer_list<InodeNum> inos) {
    for (InodeNum ino : inos) {
      EXPECT_TRUE(fs->Fsync(ino).ok());
      run.barriers.push_back(rec.write_count());
    }
    for (MovedName& m : run.moved) {
      m.fsynced_at = std::min(m.fsynced_at, rec.write_count());
    }
  };
  auto sync = [fs, &run, &rec] {
    EXPECT_TRUE(fs->Sync().ok());
    run.barriers.push_back(rec.write_count());
    for (MovedName& m : run.moved) {
      m.synced_at = std::min(m.synced_at, rec.write_count());
    }
  };

  const InodeNum b = dir_where(kRootIno, "b", [](uint32_t) { return true; }).first;
  const uint32_t s = fs->ShardOf(b);
  const InodeNum c = dir_where(kRootIno, "c", [s](uint32_t t) { return t == s; }).first;
  const InodeNum d = dir_where(kRootIno, "d", [s](uint32_t t) { return t != s; }).first;
  sync();

  const InodeNum x1 = file(b, "f1", 1);
  rename(b, "f1", b, "g1", x1, true);
  fsync({x1});

  const InodeNum x2 = file(b, "f2", 2);
  rename(b, "f2", c, "f2", x2, true);
  rename(c, "f2", c, "g2", x2, true);
  fsync({x2});

  const auto [sub, sub_name] = dir_where(b, "sub", [s](uint32_t t) { return t == s; });
  rename(b, sub_name, c, "moved", sub, true);
  fsync({sub});
  sync();

  const InodeNum x4 = file(b, "f4", 4);
  file(b, "v4", 5);
  rename(b, "f4", b, "v4", x4, true);
  fsync({x4});

  const InodeNum x5 = file(b, "f5", 6);
  rename(b, "f5", d, "f5", x5, false);
  rename(d, "f5", b, "f5", x5, false);
  rename(b, "f5", b, "g5", x5, true);
  fsync({x5, d});

  for (const MovedName& m : run.moved) {
    EXPECT_EQ(fs->ShardOf(m.dir), s);
    EXPECT_EQ(fs->ShardOf(m.ino), s);
  }
  run.writes = rec.writes();
  return run;
}

// Every crash image of the same-shard workload, with boundaries forced at
// every intent write, torn and reordered variants, and the completed
// Fsync/Sync calls as barriers (LFS never calls Flush(), so epochs alone do
// not order writes across an fsync). Each image mounts clean in both
// recovery modes, and no source name of a covered same-shard rename names
// the moved inode.
TEST(ShardedCrashTest, SameShardRenamesAtomicAtEveryCrashPoint) {
  RecordedRun run = RecordSameShardRenames();
  ASSERT_EQ(run.moved.size(), 6u);

  std::vector<std::byte> first(run.base_image.begin(), run.base_image.begin() + 4096);
  auto sb = DecodeLfsSuperblock(first);
  ASSERT_TRUE(sb.ok());
  CrashImageGenerator gen(run.base_image, &run.writes);
  CrashEnumerationBudget budget;
  budget.max_boundaries = 0;  // Every boundary.
  budget.torn_variants = {1, 8};
  budget.reorder_within_epoch = true;
  for (size_t i = 0; i < run.writes.size(); ++i) {
    if (run.writes[i].first >= sb->intent_start_sector) {
      budget.forced_boundaries.push_back(i);
      budget.forced_boundaries.push_back(i + 1);
    }
  }
  std::vector<CrashPlan> plans = gen.Enumerate(budget, run.barriers);
  ASSERT_GT(plans.size(), run.writes.size());

  size_t covered_checks = 0;
  for (const CrashPlan& plan : plans) {
    auto image = gen.Image(plan);
    ASSERT_TRUE(image.ok()) << plan.Describe();
    for (bool roll_forward : {true, false}) {
      const std::string where =
          plan.Describe() + (roll_forward ? " [roll-forward]" : " [checkpoint-only]");
      SimClock clock;
      CpuModel cpu(&clock, 10.0);
      OverlayDisk disk = *image;
      ShardedLfs::Options options;
      options.roll_forward = roll_forward;
      auto mounted = ShardedLfs::Mount(&disk, &clock, &cpu, options);
      ASSERT_TRUE(mounted.ok()) << where << ": " << mounted.status().ToString();
      ShardedLfs* fs = mounted->get();
      auto report = CheckShardedLfs(fs, /*verify_data=*/true);
      ASSERT_TRUE(report.ok()) << where;
      for (const std::string& problem : report->problems) {
        ADD_FAILURE() << where << ": " << problem;
      }
      for (const MovedName& m : run.moved) {
        const bool covered =
            (roll_forward && m.fsynced_at <= plan.prefix) || m.synced_at <= plan.prefix;
        if (!covered) {
          continue;
        }
        ++covered_checks;
        auto left = fs->Lookup(m.dir, m.name);
        EXPECT_FALSE(left.ok() && *left == m.ino)
            << where << ": source '" << m.name << "' in dir " << m.dir
            << " still names moved ino " << m.ino;
      }
    }
  }
  EXPECT_GT(covered_checks, 0u);
}

// Both sweeps' journals, every plan: each copy-on-write image reads back
// exactly as a full replay of its plan.
TEST(ShardedCrashTest, EveryPlanMatchesFullReplay) {
  for (const RecordedRun& run : {RecordWorkload(), RecordCrossShardWorkload()}) {
    const size_t plans = ExpectImagesMatchReplay(run.base_image, run.writes);
    EXPECT_GT(plans, run.writes.size());
  }
}

}  // namespace
}  // namespace logfs
