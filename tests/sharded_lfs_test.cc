// Tests for the sharded multi-log router (src/lfs/sharded_lfs.h):
// format/mount topology, cross-shard namespace operations, the global
// sharded checker, persistence across remounts, per-shard roll-forward,
// and the shards=1 degenerate configuration's byte-identity with the seed
// single-log format.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/disk/memory_disk.h"
#include "src/lfs/lfs_check.h"
#include "src/lfs/sharded_lfs.h"
#include "src/obs/metrics.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

LfsParams ShardParams() {
  LfsParams params;
  params.max_inodes = 4096;
  params.segment_size = 1 << 19;  // More segments per slice.
  params.clean_start_segments = 3;
  params.clean_stop_segments = 5;
  params.reserved_segments = 2;
  return params;
}

// A mounted sharded LFS on a fresh simulated disk (default 64 MB).
struct ShardedInstance {
  explicit ShardedInstance(uint32_t shards, uint64_t sectors = 131072,
                           LfsParams params = ShardParams()) {
    clock = std::make_unique<SimClock>();
    cpu = std::make_unique<CpuModel>(clock.get(), 10.0);
    disk = std::make_unique<MemoryDisk>(sectors, clock.get());
    Status formatted = ShardedLfs::Format(disk.get(), params, shards);
    if (!formatted.ok()) {
      std::abort();
    }
    auto mounted = ShardedLfs::Mount(disk.get(), clock.get(), cpu.get());
    if (!mounted.ok()) {
      std::abort();
    }
    fs = std::move(mounted).value();
  }

  Status Remount(ShardedLfs::Options options = {}) {
    RETURN_IF_ERROR(fs->Sync());
    fs.reset();
    auto mounted = ShardedLfs::Mount(disk.get(), clock.get(), cpu.get(), options);
    RETURN_IF_ERROR(mounted.status());
    fs = std::move(mounted).value();
    return OkStatus();
  }

  std::unique_ptr<SimClock> clock;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<MemoryDisk> disk;
  std::unique_ptr<ShardedLfs> fs;
};

void ExpectClean(ShardedLfs* fs) {
  auto report = CheckShardedLfs(fs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(ShardedLfsTest, FormatMountTopology) {
  ShardedInstance rig(4);
  EXPECT_EQ(rig.fs->shard_count(), 4u);
  EXPECT_EQ(rig.fs->ShardOf(kRootIno), 0u);  // Root lives on shard 0.
  // Residue striping: consecutive inos round-robin the shards.
  EXPECT_EQ(rig.fs->ShardOf(2), 1u);
  EXPECT_EQ(rig.fs->ShardOf(3), 2u);
  EXPECT_EQ(rig.fs->ShardOf(4), 3u);
  EXPECT_EQ(rig.fs->ShardOf(5), 0u);
  ExpectClean(rig.fs.get());
}

TEST(ShardedLfsTest, DirectoriesSpreadFilesColocate) {
  ShardedInstance rig(4);
  // Directories are hash-placed: a fan of sibling dirs must not pile onto
  // one log.
  std::set<uint32_t> used;
  std::vector<InodeNum> dirs;
  for (int i = 0; i < 16; ++i) {
    auto ino = rig.fs->Create(kRootIno, "d" + std::to_string(i), FileType::kDirectory);
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    dirs.push_back(*ino);
    used.insert(rig.fs->ShardOf(*ino));
  }
  EXPECT_GE(used.size(), 3u);
  // Files colocate with their parent directory: the directory is the
  // placement domain, so a client working under its own dir stays on one
  // log.
  for (size_t d = 0; d < dirs.size(); ++d) {
    for (int i = 0; i < 4; ++i) {
      auto ino = rig.fs->Create(dirs[d], "f" + std::to_string(i), FileType::kRegular);
      ASSERT_TRUE(ino.ok()) << ino.status().ToString();
      EXPECT_EQ(rig.fs->ShardOf(*ino), rig.fs->ShardOf(dirs[d]));
    }
  }
  ExpectClean(rig.fs.get());
}

// Directory placement, written out: FNV-1a over the name bytes, then the
// eight bytes of the parent ino widened to 64 bits (the upper four are
// zero), modulo the shard count. A build or a change that hashes any other
// way moves the pinned directories below.
uint32_t ExpectedDirShard(InodeNum parent, std::string_view name, uint32_t shards) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (char c : name) {
    mix(static_cast<uint8_t>(c));
  }
  const uint64_t wide = parent;
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<uint8_t>(wide >> (8 * i)));
  }
  return static_cast<uint32_t>(h % shards);
}

TEST(ShardedLfsTest, DirectoryPlacementIsPinned) {
  ShardedInstance rig(4);
  const std::pair<const char*, uint32_t> kPinned[] = {
      {"alpha", 2}, {"bravo", 2}, {"charlie", 0},  {"delta", 0},
      {"echo", 1},  {"foxtrot", 2}, {"golf", 0},   {"hotel", 0},
      {"india", 1}, {"juliet", 3}, {"kilo", 1},    {"lima", 1},
      {"mike", 2},  {"november", 2}, {"oscar", 2}, {"papa", 0},
  };
  std::vector<InodeNum> dirs;
  for (const auto& [name, shard] : kPinned) {
    ASSERT_EQ(ExpectedDirShard(kRootIno, name, 4), shard) << name;
    auto ino = rig.fs->Create(kRootIno, name, FileType::kDirectory);
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    EXPECT_EQ(rig.fs->ShardOf(*ino), shard) << name;
    dirs.push_back(*ino);
  }
  // One level down the parent ino is no longer 1, so its bytes count too.
  for (InodeNum dir : dirs) {
    auto ino = rig.fs->Create(dir, "child", FileType::kDirectory);
    ASSERT_TRUE(ino.ok()) << ino.status().ToString();
    EXPECT_EQ(rig.fs->ShardOf(*ino), ExpectedDirShard(dir, "child", 4)) << "under " << dir;
  }
  ExpectClean(rig.fs.get());
}

TEST(ShardedLfsTest, CrossShardDataRoundTrip) {
  ShardedInstance rig(4);
  const auto payload = TestBytes(3 * 4096 + 17, 42);
  // One directory per file so the hash placement lands data on several
  // different logs (files colocate with their parent dir).
  std::vector<InodeNum> dirs;
  for (int i = 0; i < 8; ++i) {
    auto dir = rig.fs->Create(kRootIno, "vol" + std::to_string(i), FileType::kDirectory);
    ASSERT_TRUE(dir.ok());
    dirs.push_back(*dir);
    auto ino = rig.fs->Create(*dir, "data" + std::to_string(i), FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(rig.fs->Write(*ino, 0, payload).ok());
    ASSERT_TRUE(rig.fs->Fsync(*ino).ok());
  }
  ASSERT_TRUE(rig.fs->DropCaches().ok());
  for (int i = 0; i < 8; ++i) {
    auto ino = rig.fs->Lookup(dirs[i], "data" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    std::vector<std::byte> out(payload.size());
    auto n = rig.fs->Read(*ino, 0, out);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, payload.size());
    EXPECT_EQ(out, payload);
  }
  ExpectClean(rig.fs.get());
}

TEST(ShardedLfsTest, CrossShardNamespaceOps) {
  ShardedInstance rig(4);
  // Directories land on hash-chosen shards; build a small tree.
  auto d1 = rig.fs->Create(kRootIno, "alpha", FileType::kDirectory);
  auto d2 = rig.fs->Create(kRootIno, "charlie", FileType::kDirectory);
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_NE(rig.fs->ShardOf(*d1), rig.fs->ShardOf(*d2));  // Shards 2 and 0.
  auto f = rig.fs->Create(*d1, "file", FileType::kRegular);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(rig.fs->Write(*f, 0, TestBytes(4096, 7)).ok());

  // Hard link across directories and across shards.
  ASSERT_TRUE(rig.fs->Link(*d2, "link", *f).ok());
  auto st = rig.fs->Stat(*f);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 2u);
  ExpectClean(rig.fs.get());

  // Unlink one name; the inode survives via the other.
  ASSERT_TRUE(rig.fs->Unlink(*d1, "file").ok());
  st = rig.fs->Stat(*f);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->nlink, 1u);
  ExpectClean(rig.fs.get());

  // Cross-directory file rename.
  ASSERT_TRUE(rig.fs->Rename(*d2, "link", *d1, "back").ok());
  EXPECT_TRUE(rig.fs->Lookup(*d1, "back").ok());
  EXPECT_FALSE(rig.fs->Lookup(*d2, "link").ok());
  ExpectClean(rig.fs.get());

  // Directory rename across parents: ".." must follow, nlinks must track.
  auto sub = rig.fs->Create(*d1, "sub", FileType::kDirectory);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(rig.fs->Rename(*d1, "sub", *d2, "moved").ok());
  auto dots = rig.fs->Lookup(*sub, "..");
  ASSERT_TRUE(dots.ok());
  EXPECT_EQ(*dots, *d2);
  ExpectClean(rig.fs.get());

  // Directory-over-directory replace across parents.
  auto victim = rig.fs->Create(*d1, "victim", FileType::kDirectory);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(rig.fs->Rename(*d2, "moved", *d1, "victim").ok());
  EXPECT_FALSE(rig.fs->Stat(*victim).ok());  // Replaced and released.
  dots = rig.fs->Lookup(*sub, "..");
  ASSERT_TRUE(dots.ok());
  EXPECT_EQ(*dots, *d1);
  ExpectClean(rig.fs.get());

  // Rmdir of a (now empty) cross-shard directory.
  ASSERT_TRUE(rig.fs->Rmdir(*d1, "victim").ok());
  EXPECT_FALSE(rig.fs->Lookup(*d1, "victim").ok());
  ExpectClean(rig.fs.get());

  // Cycle prevention: cannot move a directory into its own subtree.
  auto outer = rig.fs->Create(kRootIno, "outer", FileType::kDirectory);
  auto inner = rig.fs->Create(*outer, "inner", FileType::kDirectory);
  ASSERT_TRUE(outer.ok() && inner.ok());
  EXPECT_FALSE(rig.fs->Rename(kRootIno, "outer", *inner, "oops").ok());
  ExpectClean(rig.fs.get());
}

TEST(ShardedLfsTest, SymlinksRouteThroughDefaultImpl) {
  ShardedInstance rig(4);
  auto ln = rig.fs->Symlink(kRootIno, "ln", "target/path");
  ASSERT_TRUE(ln.ok());
  auto back = rig.fs->Readlink(*ln);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "target/path");
  ExpectClean(rig.fs.get());
}

TEST(ShardedLfsTest, PersistsAcrossRemount) {
  ShardedInstance rig(4);
  const auto payload = TestBytes(2 * 4096, 11);
  std::vector<InodeNum> inos;
  for (int i = 0; i < 12; ++i) {
    auto ino = rig.fs->Create(kRootIno, "p" + std::to_string(i), FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(rig.fs->Write(*ino, 0, payload).ok());
    inos.push_back(*ino);
  }
  ASSERT_TRUE(rig.Remount().ok());
  EXPECT_EQ(rig.fs->shard_count(), 4u);
  for (int i = 0; i < 12; ++i) {
    auto ino = rig.fs->Lookup(kRootIno, "p" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    EXPECT_EQ(*ino, inos[i]);
    std::vector<std::byte> out(payload.size());
    auto n = rig.fs->Read(*ino, 0, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, payload);
  }
  ExpectClean(rig.fs.get());
}

TEST(ShardedLfsTest, FsyncSurvivesCrashMountPerShard) {
  ShardedInstance rig(4);
  const auto payload = TestBytes(4096, 23);
  std::vector<InodeNum> synced;
  for (int i = 0; i < 8; ++i) {
    auto ino = rig.fs->Create(kRootIno, "s" + std::to_string(i), FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(rig.fs->Write(*ino, 0, payload).ok());
    ASSERT_TRUE(rig.fs->Fsync(*ino).ok());
    synced.push_back(*ino);
  }
  // Crash-mount: drop the dirty state instead of syncing, then roll every
  // shard forward independently.
  rig.fs.reset();
  auto mounted = ShardedLfs::Mount(rig.disk.get(), rig.clock.get(), rig.cpu.get());
  ASSERT_TRUE(mounted.ok());
  rig.fs = std::move(mounted).value();
  for (InodeNum ino : synced) {
    std::vector<std::byte> out(payload.size());
    auto n = rig.fs->Read(ino, 0, out);
    ASSERT_TRUE(n.ok()) << "fsynced ino " << ino << " lost";
    EXPECT_EQ(out, payload);
  }
}

TEST(ShardedLfsTest, UnshardedImageMountsAsPassthrough) {
  LfsInstance seed;  // Plain single-log format.
  ASSERT_TRUE(seed.fs->Sync().ok());
  seed.fs.reset();
  auto mounted = ShardedLfs::Mount(seed.disk.get(), seed.clock.get(), seed.cpu.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  EXPECT_EQ((*mounted)->shard_count(), 1u);
  auto ino = (*mounted)->Create(kRootIno, "x", FileType::kRegular);
  EXPECT_TRUE(ino.ok());
  ExpectClean(mounted->get());
}

// The same op sequence, executed against a plain LfsFileSystem and against
// the router in its shards=1 degenerate configuration, must produce
// byte-identical disk images and identical post-mount DiskStats: the
// degenerate router adds a mutex and one 8-sector superblock probe read at
// mount, nothing else. The probe is mirrored on the seed side so the two
// simulated clocks stay in lockstep (MemoryDisk charges service time for
// reads, and inode timestamps come from the clock), and the process-global
// metrics registry is reset before each side so the flight-recorder black
// box embedded in checkpoints samples identical state.
TEST(ShardedLfsTest, SingleShardIsByteIdenticalToSeed) {
  const uint64_t kSectors = 131072;
  LfsParams params = LfsInstance::DefaultParams();

  auto drive = [](FileSystem* fs) {
    auto dir = fs->Create(kRootIno, "dir", FileType::kDirectory);
    ASSERT_TRUE(dir.ok());
    for (int i = 0; i < 24; ++i) {
      auto ino = fs->Create(*dir, "f" + std::to_string(i), FileType::kRegular);
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(fs->Write(*ino, 0, TestBytes(4096 * (1 + i % 4), i)).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(fs->Fsync(*ino).ok());
      }
    }
    ASSERT_TRUE(fs->Rename(*dir, "f1", *dir, "renamed").ok());
    ASSERT_TRUE(fs->Unlink(*dir, "f2").ok());
    auto ino = fs->Lookup(*dir, "f3");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs->Truncate(*ino, 0).ok());
    ASSERT_TRUE(fs->Tick().ok());
    ASSERT_TRUE(fs->Sync().ok());
  };

  // Warm-up: saturate the process-global metric-name set with a throwaway
  // run of the same op sequence. ResetAll() zeroes values but keeps the
  // registered entries, so without this the first side's flight-recorder
  // black box would sample fewer metric names than the second side's.
  {
    SimClock clock;
    CpuModel cpu(&clock, 10.0);
    MemoryDisk disk(kSectors, &clock);
    ASSERT_TRUE(LfsFileSystem::Format(&disk, params).ok());
    auto fs = LfsFileSystem::Mount(&disk, &clock, &cpu);
    ASSERT_TRUE(fs.ok());
    drive(fs->get());
  }

  obs::Registry().ResetAll();
  SimClock clock_a;
  CpuModel cpu_a(&clock_a, 10.0);
  MemoryDisk disk_a(kSectors, &clock_a);
  ASSERT_TRUE(LfsFileSystem::Format(&disk_a, params).ok());
  {
    std::vector<std::byte> probe(4096);  // Mirror the router's mount probe.
    ASSERT_TRUE(disk_a.ReadSectors(0, probe).ok());
  }
  auto fs_a = LfsFileSystem::Mount(&disk_a, &clock_a, &cpu_a);
  ASSERT_TRUE(fs_a.ok());

  obs::Registry().ResetAll();
  SimClock clock_b;
  CpuModel cpu_b(&clock_b, 10.0);
  MemoryDisk disk_b(kSectors, &clock_b);
  ASSERT_TRUE(ShardedLfs::Format(&disk_b, params, /*shard_count=*/1).ok());
  auto fs_b = ShardedLfs::Mount(&disk_b, &clock_b, &cpu_b);
  ASSERT_TRUE(fs_b.ok());

  // Identical images immediately after format + mount.
  ASSERT_EQ(disk_a.RawImage().size(), disk_b.RawImage().size());
  EXPECT_EQ(std::memcmp(disk_a.RawImage().data(), disk_b.RawImage().data(),
                        disk_a.RawImage().size()),
            0);
  disk_a.ResetStats();
  disk_b.ResetStats();

  obs::Registry().ResetAll();
  drive(fs_a->get());
  obs::Registry().ResetAll();
  drive(fs_b->get());

  const DiskStats& sa = disk_a.stats();
  const DiskStats& sb = disk_b.stats();
  EXPECT_EQ(sa.read_ops, sb.read_ops);
  EXPECT_EQ(sa.write_ops, sb.write_ops);
  EXPECT_EQ(sa.sectors_read, sb.sectors_read);
  EXPECT_EQ(sa.sectors_written, sb.sectors_written);
  EXPECT_EQ(std::memcmp(disk_a.RawImage().data(), disk_b.RawImage().data(),
                        disk_a.RawImage().size()),
            0)
      << "shards=1 image diverged from the seed single-log image";

  // shards=1 must not allocate or touch an intent region: no IntentLog
  // object, no INT1 superblock extension, and no logfs.intent.* activity
  // from the run (any of these would also break the byte-identity
  // assertions above). Names may linger in the process-global registry
  // from earlier multi-shard tests, so assert on values, not presence.
  EXPECT_FALSE(fs_b->get()->intent_log_enabled());
  const LfsSuperblock& sb1 = fs_b->get()->shard(0)->superblock();
  EXPECT_FALSE(sb1.has_intent_region());
  EXPECT_EQ(sb1.intent_start_sector, 0u);
  EXPECT_EQ(sb1.intent_sectors, 0u);
  for (const char* name : {"logfs.intent.published", "logfs.intent.retired",
                           "logfs.intent.reconciled"}) {
    const obs::Counter* c = obs::Registry().FindCounter(name);
    EXPECT_TRUE(c == nullptr || c->Value() == 0) << name;
  }
}

// Regression for the native rename path: a cross-directory
// directory-over-directory rename swaps one child directory for another in
// the destination — the parent's link count must not change. (The arriving
// child's \"..\" replaces the released victim's.)
TEST(ShardedLfsTest, NativeDirOverDirCrossDirRenameKeepsNlink) {
  LfsInstance rig;
  auto d1 = rig.fs->Create(kRootIno, "d1", FileType::kDirectory);
  auto d2 = rig.fs->Create(kRootIno, "d2", FileType::kDirectory);
  ASSERT_TRUE(d1.ok() && d2.ok());
  auto src = rig.fs->Create(*d1, "m", FileType::kDirectory);
  auto victim = rig.fs->Create(*d2, "sub", FileType::kDirectory);
  ASSERT_TRUE(src.ok() && victim.ok());
  auto before = rig.fs->Stat(*d2);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(rig.fs->Rename(*d1, "m", *d2, "sub").ok());
  auto after = rig.fs->Stat(*d2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->nlink, before->nlink);
  LfsChecker checker(rig.fs.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace logfs
