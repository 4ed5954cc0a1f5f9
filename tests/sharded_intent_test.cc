// Cross-shard intent log and online repairer (ctest -L "crash|fault").
//
// Covers the pieces of the crash-atomicity machinery the image sweep
// (sharded_crash_test.cc) exercises only indirectly:
//   * the intent slot codec — round-trip, garbage rejection, CRC sealing;
//   * ring-full behavior — the router drains (sync + retire) and retries,
//     so a burst of cross-shard ops larger than the ring still succeeds;
//   * fault injection on the intent region — a persistent media error
//     fails the op cleanly with NO shard mutated, and a transient error
//     is absorbed by the ResilientDisk retry layer (the op succeeds);
//   * which renames publish — device writes counted at the intent region,
//     and two fsynced crash images that recover exactly only under the
//     publish rule;
//   * retirement — the free mask rule on a bare region, an intent retired
//     in memory read PENDING until a synchronous write carries it, mount
//     with unreadable slots, and a clean unmount's marker;
//   * the online repairer — CheckShardedLfs(..., RepairMode::kRepair)
//     fixes damage no intent names (dangling dirents, orphans, wrong
//     nlinks, seeded through the shard seams) in place and reports a clean
//     post-repair state;
//   * the damage table (namespace_damage.h): for each seeded flaw the
//     check reports what the repair then does, note for note.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/overlay_disk.h"
#include "src/disk/recording_disk.h"
#include "src/lfs/lfs_format.h"
#include "src/lfs/lfs_intent.h"
#include "src/lfs/lfs_repair.h"
#include "src/lfs/sharded_lfs.h"
#include "tests/fs_fixture.h"
#include "tests/namespace_damage.h"

namespace logfs {
namespace {

constexpr uint64_t kSectors = 65536;
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

// A sharded mount over a fault-injecting disk (no faults armed by default)
// whose writes are journaled, so a test can count what reached the intent
// region.
struct ShardedRig {
  ShardedRig() {
    clock = std::make_unique<SimClock>();
    cpu = std::make_unique<CpuModel>(clock.get(), 10.0);
    inner = std::make_unique<MemoryDisk>(kSectors, clock.get());
    rec = std::make_unique<RecordingDisk>(inner.get());
    fault = std::make_unique<FaultInjectingDisk>(rec.get());
    EXPECT_TRUE(ShardedLfs::Format(inner.get(), RigParams(), kShards).ok());
    auto mounted = ShardedLfs::Mount(fault.get(), clock.get(), cpu.get());
    EXPECT_TRUE(mounted.ok());
    fs = std::move(mounted).value();
  }

  // A directory under root whose home shard satisfies `wanted`. Directory
  // placement hashes (parent, name), so a handful of candidates always
  // yields one.
  template <typename Pred>
  InodeNum DirWhere(const std::string& prefix, Pred wanted) {
    for (int i = 0;; ++i) {
      const std::string name = prefix + std::to_string(i);
      auto ino = fs->Create(kRootIno, name, FileType::kDirectory);
      EXPECT_TRUE(ino.ok());
      if (wanted(fs->ShardOf(*ino))) {
        return *ino;
      }
      EXPECT_TRUE(fs->Rmdir(kRootIno, name).ok());
    }
  }
  InodeNum DirOnOtherShard(uint32_t not_shard, const std::string& prefix) {
    return DirWhere(prefix, [not_shard](uint32_t s) { return s != not_shard; });
  }
  InodeNum DirOnShard(uint32_t shard, const std::string& prefix) {
    return DirWhere(prefix, [shard](uint32_t s) { return s == shard; });
  }

  // Device writes to the intent region so far: publishes and retires.
  size_t IntentWrites() const {
    const uint64_t start = fs->shard(0)->superblock().intent_start_sector;
    return static_cast<size_t>(
        std::count_if(rec->writes().begin(), rec->writes().end(),
                      [start](const WriteRecord& w) { return w.first >= start; }));
  }

  std::unique_ptr<SimClock> clock;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<MemoryDisk> inner;
  std::unique_ptr<RecordingDisk> rec;
  std::unique_ptr<FaultInjectingDisk> fault;
  std::unique_ptr<ShardedLfs> fs;
};

// A crash at this instant: the rig's disk as its writes left it, mounted on
// a copy-on-write overlay so the live mount's disk is left alone. The mount
// reads through a fault injector, which `arm` may set up first, and its
// writes are journaled.
struct CrashImage {
  explicit CrashImage(const MemoryDisk& disk,
                      const std::function<void(FaultInjectingDisk&)>& arm = {})
      : overlay(disk.RawImage()), rec(&overlay), fault(&rec), cpu(&clock, 10.0) {
    if (arm) {
      arm(fault);
    }
    auto mounted = ShardedLfs::Mount(&fault, &clock, &cpu);
    EXPECT_TRUE(mounted.ok()) << mounted.status().ToString();
    if (mounted.ok()) {
      fs = std::move(mounted).value();
    }
  }

  // Writes the mount made to the intent region.
  size_t IntentWrites() const {
    const uint64_t start = fs->shard(0)->superblock().intent_start_sector;
    return static_cast<size_t>(
        std::count_if(rec.writes().begin(), rec.writes().end(),
                      [start](const WriteRecord& w) { return w.first >= start; }));
  }

  OverlayDisk overlay;
  RecordingDisk rec;
  FaultInjectingDisk fault;
  SimClock clock;
  CpuModel cpu;
  std::unique_ptr<ShardedLfs> fs;
};

// --- codec -------------------------------------------------------------------

TEST(IntentCodecTest, RoundTripsEveryField) {
  IntentRecord rec;
  rec.op_id = 0x1122334455667788ull;
  rec.kind = IntentKind::kRename;
  rec.from_dir = 7;
  rec.to_dir = 10;
  rec.child = 13;
  rec.victim = 22;
  rec.child_type = FileType::kDirectory;
  rec.victim_type = FileType::kRegular;
  rec.from_name = "old-name";
  rec.to_name = "new-name";

  const uint64_t mask = 0x8000'0000'0000'00F1ull;

  std::vector<std::byte> slot(kIntentSlotBytes);
  ASSERT_TRUE(EncodeIntentSlot(rec, IntentState::kPending, mask, slot).ok());
  auto decoded = DecodeIntentSlot(slot);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->state, IntentState::kPending);
  EXPECT_EQ(decoded->free_mask, mask);
  const IntentRecord& got = decoded->record;
  EXPECT_EQ(got.op_id, rec.op_id);
  EXPECT_EQ(got.kind, IntentKind::kRename);
  EXPECT_EQ(got.from_dir, 7u);
  EXPECT_EQ(got.to_dir, 10u);
  EXPECT_EQ(got.child, 13u);
  EXPECT_EQ(got.victim, 22u);
  EXPECT_EQ(got.child_type, FileType::kDirectory);
  EXPECT_EQ(got.victim_type, FileType::kRegular);
  EXPECT_EQ(got.from_name, "old-name");
  EXPECT_EQ(got.to_name, "new-name");

  // A retire marker names no operation and is the only RETIRED record.
  IntentRecord marker;
  marker.op_id = 9;
  marker.kind = IntentKind::kMarker;
  ASSERT_TRUE(EncodeIntentSlot(marker, IntentState::kRetired, ~mask, slot).ok());
  decoded = DecodeIntentSlot(slot);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->state, IntentState::kRetired);
  EXPECT_EQ(decoded->record.kind, IntentKind::kMarker);
  EXPECT_EQ(decoded->free_mask, ~mask);
  ASSERT_TRUE(EncodeIntentSlot(rec, IntentState::kRetired, mask, slot).ok());
  EXPECT_FALSE(DecodeIntentSlot(slot).ok()) << "a RETIRED record must be a marker";
  ASSERT_TRUE(EncodeIntentSlot(marker, IntentState::kPending, mask, slot).ok());
  EXPECT_FALSE(DecodeIntentSlot(slot).ok()) << "a marker must be RETIRED";
}

TEST(IntentCodecTest, RejectsGarbageAndBitFlips) {
  // All-zero slot (a freshly formatted region): no record.
  std::vector<std::byte> zeros(kIntentSlotBytes);
  EXPECT_FALSE(DecodeIntentSlot(zeros).ok());

  // A valid record with any byte of its encoding flipped must fail the
  // CRC — a half-written or bit-rotted slot can never masquerade as a
  // DIFFERENT pending intent. (Bytes past the encoded record are outside
  // the seal; flipping them changes nothing the decoder reads.)
  IntentRecord rec;
  rec.op_id = 42;
  rec.kind = IntentKind::kCreate;
  rec.from_dir = 1;
  rec.child = 6;
  rec.child_type = FileType::kRegular;
  rec.from_name = "victim-of-a-tear";
  std::vector<std::byte> slot(kIntentSlotBytes);
  ASSERT_TRUE(EncodeIntentSlot(rec, IntentState::kPending, ~uint64_t{1}, slot).ok());
  for (size_t i = 0; i < 64; ++i) {  // Header, free mask and both encoded names.
    std::vector<std::byte> bent = slot;
    bent[i] ^= std::byte{0x40};
    EXPECT_FALSE(DecodeIntentSlot(bent).ok()) << "byte " << i;
  }

  // Torn at the sector boundary: the record lives entirely in the slot's
  // first sector (sector writes are atomic in the crash model), so a
  // mid-slot tear leaves either pre-tear garbage or the INTACT record —
  // never a different one. An intact pending record for an op that never
  // started is safe: reconciliation probes the shards, finds no half
  // applied, and settles it as a no-op.
  std::vector<std::byte> torn = slot;
  std::fill(torn.begin() + kSectorSize, torn.end(), std::byte{0xEE});
  auto after_tear = DecodeIntentSlot(torn);
  ASSERT_TRUE(after_tear.ok());
  EXPECT_EQ(after_tear->record.op_id, rec.op_id);
  EXPECT_EQ(after_tear->record.from_name, rec.from_name);
}

// --- the free mask -------------------------------------------------------------

// An intent region at sector 0 of a bare disk, for the log on its own.
struct BareRegion {
  BareRegion() : disk(kIntentRegionSectors, &clock) {}

  // Writes `rec` into `slot` as the log would.
  void Put(uint32_t slot, const IntentRecord& rec, uint64_t free_mask) {
    std::vector<std::byte> buf(kIntentSlotBytes);
    const IntentState state =
        rec.kind == IntentKind::kMarker ? IntentState::kRetired : IntentState::kPending;
    ASSERT_TRUE(EncodeIntentSlot(rec, state, free_mask, buf).ok());
    ASSERT_TRUE(disk.WriteSectors(SlotSector(slot), buf).ok());
  }
  // Tears `slot`: its first sector reads as garbage.
  void Tear(uint32_t slot) {
    std::vector<std::byte> junk(kSectorSize, std::byte{0xEE});
    ASSERT_TRUE(disk.WriteSectors(SlotSector(slot), junk).ok());
  }
  // Op id -> state, as a fresh mount's LoadAll reads the region.
  std::map<uint64_t, IntentState> Load() {
    IntentLog log(&disk, 0, kIntentRegionSectors);
    auto scan = log.LoadAll();
    EXPECT_TRUE(scan.ok());
    std::map<uint64_t, IntentState> out;
    for (const LoadedIntent& li : scan.ok() ? scan->records : std::vector<LoadedIntent>{}) {
      out[li.record.op_id] = li.state;
    }
    return out;
  }
  static uint64_t SlotSector(uint32_t slot) {
    return static_cast<uint64_t>(slot) * (kIntentSlotBytes / kSectorSize);
  }

  SimClock clock;
  MemoryDisk disk;
};

IntentRecord Op(uint64_t op_id, IntentKind kind = IntentKind::kRename) {
  IntentRecord rec;
  rec.op_id = op_id;
  rec.kind = kind;
  return rec;
}

constexpr uint64_t Bit(uint32_t slot) { return uint64_t{1} << slot; }

// Slot 0 holds op 1. Op 2's mask marks slot 0 free and op 3's does not: the
// newest record decides, and when it is torn the one before it does.
TEST(IntentMaskTest, OnlyTheNewestRecordsMaskApplies) {
  BareRegion region;
  region.Put(0, Op(1), ~Bit(0));
  region.Put(1, Op(2, IntentKind::kMarker), ~uint64_t{0});
  region.Put(2, Op(3, IntentKind::kMarker), ~Bit(0));
  EXPECT_EQ(region.Load()[1], IntentState::kPending);

  region.Tear(2);
  std::map<uint64_t, IntentState> states = region.Load();
  EXPECT_EQ(states.count(3), 0u);
  EXPECT_EQ(states[1], IntentState::kRetired) << "op 2's mask applies";

  // A newest PENDING record applies its mask to older records only.
  region.Put(3, Op(4), ~uint64_t{0});
  states = region.Load();
  EXPECT_EQ(states[4], IntentState::kPending);
  EXPECT_EQ(states[1], IntentState::kRetired);
}

// The log end to end: a retirement writes nothing, the next synchronous
// write carries it, and no write lands in the newest record's slot, so
// tearing the write after it leaves that record's mask in force.
TEST(IntentMaskTest, RetirementRidesOnTheNextSynchronousWrite) {
  BareRegion region;
  IntentLog log(&region.disk, 0, kIntentRegionSectors);
  ASSERT_TRUE(log.LoadAll().ok());
  // Ops 1-4 name children 101-104; op 4 alone is not yet durable.
  std::vector<uint32_t> slots;
  for (uint64_t seq : {1, 2, 2, 9}) {
    IntentRecord rec;
    rec.child = static_cast<InodeNum>(101 + slots.size());
    auto slot = log.Publish(&rec);
    ASSERT_TRUE(slot.ok());
    log.MarkApplied(*slot, {{0, seq}});
    slots.push_back(*slot);
  }
  const uint64_t writes = region.disk.stats().write_ops;
  const uint64_t horizon[] = {2};
  log.RetireCovered(horizon);
  EXPECT_EQ(region.disk.stats().write_ops, writes) << "retiring is in memory only";
  EXPECT_EQ(log.PendingCount(), 1u);
  EXPECT_TRUE(log.NamesUnretired(102)) << "op 2 still reads PENDING on disk";
  std::map<uint64_t, IntentState> states = region.Load();
  EXPECT_EQ(states[2], IntentState::kPending);
  EXPECT_EQ(states[3], IntentState::kPending);

  ASSERT_TRUE(log.WriteRetireMarker().ok());
  EXPECT_EQ(region.disk.stats().write_ops, writes + 1);
  EXPECT_FALSE(log.NamesUnretired(102));
  EXPECT_TRUE(log.NamesUnretired(104));
  states = region.Load();
  EXPECT_EQ(states.count(1), 0u) << "the marker took op 1's free slot";
  EXPECT_EQ(states[2], IntentState::kRetired);
  EXPECT_EQ(states[3], IntentState::kRetired);
  EXPECT_EQ(states[4], IntentState::kPending);
  ASSERT_TRUE(log.WriteRetireMarker().ok());
  EXPECT_EQ(region.disk.stats().write_ops, writes + 1) << "nothing left to order";

  // The next publish skips the marker's slot; torn, it leaves the marker
  // (op 5) newest.
  IntentRecord next;
  auto slot = log.Publish(&next);
  ASSERT_TRUE(slot.ok());
  EXPECT_NE(*slot, slots[0]);
  region.Tear(*slot);
  states = region.Load();
  EXPECT_EQ(states.count(next.op_id), 0u);
  EXPECT_EQ(states[5], IntentState::kRetired);
  EXPECT_EQ(states[3], IntentState::kRetired);
  EXPECT_EQ(states[4], IntentState::kPending);
}

// --- ring-full drain ---------------------------------------------------------

TEST(ShardedIntentTest, BurstLargerThanRingDrainsAndSucceeds) {
  ShardedRig rig;
  ASSERT_TRUE(rig.fs->intent_log_enabled());
  const InodeNum d0 = rig.DirOnOtherShard(99, "burst-a");  // any shard
  const InodeNum d1 = rig.DirOnOtherShard(rig.fs->ShardOf(d0), "burst-b");
  ASSERT_TRUE(rig.fs->Sync().ok());

  // Each iteration is a cross-shard rename there and back: two intents,
  // no intervening sync. 2 * 48 = 96 publishes > the 64-slot ring, so the
  // router must hit kBusy and transparently drain.
  auto f = rig.fs->Create(d0, "ball", FileType::kRegular);
  ASSERT_TRUE(f.ok());
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(rig.fs->Rename(d0, "ball", d1, "ball").ok()) << i;
    ASSERT_TRUE(rig.fs->Rename(d1, "ball", d0, "ball").ok()) << i;
  }
  EXPECT_LE(rig.fs->intent_log()->PendingCount(), kIntentSlots);

  ASSERT_TRUE(rig.fs->Sync().ok());
  EXPECT_EQ(rig.fs->intent_log()->PendingCount(), 0u)
      << "sync must retire every published intent";
  auto report = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// --- fault injection on the intent region ------------------------------------

TEST(ShardedIntentTest, MediaErrorOnIntentRegionFailsOpWithNoShardMutated) {
  ShardedRig rig;
  const InodeNum d0 = rig.DirOnOtherShard(99, "med-a");
  const InodeNum d1 = rig.DirOnOtherShard(rig.fs->ShardOf(d0), "med-b");
  auto f = rig.fs->Create(d0, "precious", FileType::kRegular);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(rig.fs->Sync().ok());

  // Kill the whole intent region for writes: every publish attempt fails
  // persistently, so the op must abort before ANY shard mutates.
  const LfsSuperblock& sb = rig.fs->shard(0)->superblock();
  ASSERT_TRUE(sb.has_intent_region());
  rig.fault->MarkBadSectors(sb.intent_start_sector, sb.intent_sectors,
                            FaultInjectingDisk::BadSectorMode::kWrite);

  Status moved = rig.fs->Rename(d0, "precious", d1, "stolen");
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), ErrorCode::kMediaError) << moved.ToString();

  // Nothing happened: source present, destination absent, namespace clean.
  EXPECT_TRUE(rig.fs->Lookup(d0, "precious").ok());
  EXPECT_EQ(rig.fs->Lookup(d1, "stolen").status().code(), ErrorCode::kNotFound);
  auto report = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();

  // Cross-shard creates abort the same way, with the peeked ino never
  // allocated.
  auto blocked = rig.fs->Create(kRootIno, "zz-never-lands", FileType::kDirectory);
  if (!blocked.ok()) {  // Same-shard placement would bypass the intent log.
    EXPECT_EQ(blocked.status().code(), ErrorCode::kMediaError);
    auto recheck = CheckShardedLfs(rig.fs.get());
    ASSERT_TRUE(recheck.ok());
    EXPECT_TRUE(recheck->ok()) << recheck->Summary();
  }
}

TEST(ShardedIntentTest, TransientErrorOnIntentWriteIsRetriedThrough) {
  ShardedRig rig;
  const InodeNum d0 = rig.DirOnOtherShard(99, "tr-a");
  const InodeNum d1 = rig.DirOnOtherShard(rig.fs->ShardOf(d0), "tr-b");
  auto f = rig.fs->Create(d0, "wobbly", FileType::kRegular);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(rig.fs->Sync().ok());

  // The FIRST write of a cross-shard rename is the intent publish — that
  // is the whole point of the write-ahead discipline — so failing the next
  // write request transiently hits exactly the intent write. The
  // ResilientDisk in front of the region retries and the op succeeds.
  rig.fault->FailNthWrite(rig.fault->write_requests_seen());
  ASSERT_TRUE(rig.fs->Rename(d0, "wobbly", d1, "steady").ok());
  EXPECT_TRUE(rig.fs->Lookup(d1, "steady").ok());
  EXPECT_EQ(rig.fault->transient_write_errors_injected(), 1u);

  ASSERT_TRUE(rig.fs->Sync().ok());
  auto report = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// --- which renames publish ---------------------------------------------------
//
// A rename whose locked shards are one log is one body on one log, atomic
// by the single-log crash contract, so it publishes no intent; unless a
// slot that may still read PENDING names its child or victim, whose
// settlement at mount would otherwise undo it.

// B/x -> C/x -> C/y with B, C and x on one shard, fsynced, then a crash
// before any Tick or Sync retires anything. With an intent per rename the
// first one's stale roll-back re-inserted B/x beside C/y (nlink 1 -> 2).
TEST(ShardedIntentTest, SameShardRenameChainRecoversExactly) {
  ShardedRig rig;
  const InodeNum b = rig.DirOnOtherShard(99, "chain-b");
  const InodeNum c = rig.DirOnShard(rig.fs->ShardOf(b), "chain-c");
  auto x = rig.fs->Create(b, "x", FileType::kRegular);
  ASSERT_TRUE(x.ok());
  ASSERT_EQ(rig.fs->ShardOf(*x), rig.fs->ShardOf(b));
  ASSERT_TRUE(rig.fs->Sync().ok());

  ASSERT_TRUE(rig.fs->Rename(b, "x", c, "x").ok());
  ASSERT_TRUE(rig.fs->Rename(c, "x", c, "y").ok());
  ASSERT_TRUE(rig.fs->Fsync(*x).ok());

  CrashImage image(*rig.inner);
  ASSERT_NE(image.fs, nullptr);
  EXPECT_FALSE(image.fs->reconcile_report().has_value())
      << image.fs->reconcile_report()->intents_settled << " intents settled at mount";
  EXPECT_EQ(image.fs->Lookup(b, "x").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(image.fs->Lookup(c, "x").status().code(), ErrorCode::kNotFound);
  auto y = image.fs->Lookup(c, "y");
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, *x);
  auto stat = image.fs->Stat(*x);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 1u);
  auto report = CheckShardedLfs(image.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// A/x -> B/x -> A/x across shards, then A/x -> A/y on A's shard, all
// fsynced. The first intent's stale roll-back re-inserts A/x; only the
// same-shard rename's own intent (published because pending intents name
// x) drops it again.
TEST(ShardedIntentTest, RenameOfAnInodePendingIntentsNamePublishes) {
  ShardedRig rig;
  const InodeNum a = rig.DirOnOtherShard(99, "trip-a");
  const InodeNum b = rig.DirOnOtherShard(rig.fs->ShardOf(a), "trip-b");
  auto x = rig.fs->Create(a, "x", FileType::kRegular);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(rig.fs->Sync().ok());

  ASSERT_TRUE(rig.fs->Rename(a, "x", b, "x").ok());
  ASSERT_TRUE(rig.fs->Rename(b, "x", a, "x").ok());
  ASSERT_TRUE(rig.fs->Rename(a, "x", a, "y").ok());
  ASSERT_TRUE(rig.fs->Fsync(*x).ok());
  ASSERT_TRUE(rig.fs->Fsync(b).ok());

  CrashImage image(*rig.inner);
  ASSERT_NE(image.fs, nullptr);
  EXPECT_EQ(image.fs->Lookup(a, "x").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(image.fs->Lookup(b, "x").status().code(), ErrorCode::kNotFound);
  auto y = image.fs->Lookup(a, "y");
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, *x);
  auto stat = image.fs->Stat(*x);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 1u);
  auto report = CheckShardedLfs(image.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// Device writes to the intent region: per rename none on one shard, one
// across shards and one where the guard holds; none for a Tick; at most one
// (a retire marker) for a Sync, after which the guard lets go.
TEST(ShardedIntentTest, IntentWritesOnlyWhereRecoveryNeedsThem) {
  ShardedRig rig;
  const InodeNum a = rig.DirOnOtherShard(99, "count-a");
  const InodeNum b = rig.DirOnOtherShard(rig.fs->ShardOf(a), "count-b");
  for (const char* name : {"x", "z", "w"}) {
    ASSERT_TRUE(rig.fs->Create(a, name, FileType::kRegular).ok());
  }
  ASSERT_TRUE(rig.fs->Sync().ok());

  // The writes one call makes to the intent region.
  auto intent_writes = [&rig](auto op) {
    const size_t before = rig.IntentWrites();
    EXPECT_TRUE(op().ok());
    return rig.IntentWrites() - before;
  };
  auto rename = [&rig](InodeNum from, const char* from_name, InodeNum to,
                       const char* to_name) {
    return [=, &rig] { return rig.fs->Rename(from, from_name, to, to_name); };
  };
  auto sync = [&rig] { return rig.fs->Sync(); };
  auto tick = [&rig] { return rig.fs->Tick(); };
  EXPECT_EQ(intent_writes(rename(a, "x", a, "x2")), 0u) << "same shard, synced volume";
  EXPECT_EQ(intent_writes(rename(a, "z", b, "z")), 1u) << "cross-shard";
  EXPECT_EQ(intent_writes(rename(b, "z", a, "z")), 1u) << "cross-shard, back";
  EXPECT_EQ(intent_writes(rename(a, "z", a, "z2")), 1u) << "same shard, pending intents";

  // Fsyncs make all three durable and a Tick retires them, in memory only:
  // until a synchronous write carries that, z's next rename still
  // publishes (and x's, never named, not).
  ASSERT_TRUE(rig.fs->Fsync(a).ok());
  ASSERT_TRUE(rig.fs->Fsync(b).ok());
  EXPECT_EQ(intent_writes(tick), 0u);
  EXPECT_EQ(rig.fs->intent_log()->PendingCount(), 0u);
  EXPECT_EQ(intent_writes(rename(a, "z2", a, "z3")), 1u) << "retired, unordered";
  EXPECT_EQ(intent_writes(rename(a, "x2", a, "x3")), 0u);
  EXPECT_EQ(intent_writes(sync), 1u) << "one marker retires z2 -> z3";
  EXPECT_EQ(intent_writes(sync), 0u) << "nothing retired since";
  EXPECT_EQ(intent_writes(rename(a, "z3", a, "z4")), 0u) << "retired, ordered";
  EXPECT_EQ(intent_writes(rename(a, "w", b, "w")), 1u);
  EXPECT_EQ(intent_writes(tick), 0u);

  auto report = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// --- retirement at mount and unmount -------------------------------------------

// Three durable cross-shard renames, retired by a Tick: an image taken then
// still reads their intents PENDING and settles them, with one marker for
// the batch; an image taken after the next Sync's marker settles nothing.
TEST(ShardedIntentTest, RetiredIntentReadsPendingUntilTheNextSynchronousWrite) {
  ShardedRig rig;
  const InodeNum a = rig.DirOnOtherShard(99, "ret-a");
  const InodeNum b = rig.DirOnOtherShard(rig.fs->ShardOf(a), "ret-b");
  const std::vector<std::string> names = {"p", "q", "r"};
  for (const std::string& name : names) {
    ASSERT_TRUE(rig.fs->Create(a, name, FileType::kRegular).ok());
  }
  ASSERT_TRUE(rig.fs->Sync().ok());
  for (const std::string& name : names) {
    ASSERT_TRUE(rig.fs->Rename(a, name, b, name).ok());
  }
  ASSERT_TRUE(rig.fs->Fsync(a).ok());
  ASSERT_TRUE(rig.fs->Fsync(b).ok());
  ASSERT_TRUE(rig.fs->Tick().ok());
  ASSERT_EQ(rig.fs->intent_log()->PendingCount(), 0u);

  auto expect_moved = [&](ShardedLfs* fs) {
    for (const std::string& name : names) {
      EXPECT_EQ(fs->Lookup(a, name).status().code(), ErrorCode::kNotFound) << name;
      EXPECT_TRUE(fs->Lookup(b, name).ok()) << name;
    }
    auto report = CheckShardedLfs(fs);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->Summary();
  };
  {
    CrashImage before(*rig.inner);
    ASSERT_NE(before.fs, nullptr);
    ASSERT_TRUE(before.fs->reconcile_report().has_value());
    EXPECT_EQ(before.fs->reconcile_report()->intents_settled, names.size());
    EXPECT_EQ(before.IntentWrites(), 1u) << "one marker for the settled batch";
    expect_moved(before.fs.get());
  }
  ASSERT_TRUE(rig.fs->Sync().ok());
  CrashImage after(*rig.inner);
  ASSERT_NE(after.fs, nullptr);
  EXPECT_FALSE(after.fs->reconcile_report().has_value());
  EXPECT_EQ(after.IntentWrites(), 0u);
  expect_moved(after.fs.get());
}

// A slot mount cannot read may hide a pending intent, so mount walks the
// whole namespace. A cross-shard mkdir whose dirent reached its log and
// whose inode did not is repaired although no intent can be read.
TEST(ShardedIntentTest, UnreadableIntentSlotsRunTheFullRepairWalk) {
  ShardedRig rig;
  const uint32_t root_shard = rig.fs->ShardOf(kRootIno);
  const InodeNum far = rig.DirOnOtherShard(root_shard, "far");
  ASSERT_TRUE(rig.fs->Fsync(kRootIno).ok());  // The dirent's log only.

  const LfsSuperblock& sb = rig.fs->shard(0)->superblock();
  CrashImage image(*rig.inner, [&sb](FaultInjectingDisk& disk) {
    disk.MarkBadSectors(sb.intent_start_sector, sb.intent_sectors,
                        FaultInjectingDisk::BadSectorMode::kRead);
  });
  ASSERT_NE(image.fs, nullptr);
  ASSERT_TRUE(image.fs->reconcile_report().has_value());
  EXPECT_EQ(image.fs->reconcile_report()->intents_settled, 0u);
  auto root = image.fs->ReadDir(kRootIno);
  ASSERT_TRUE(root.ok());
  for (const DirEntry& e : *root) {
    EXPECT_NE(e.ino, far) << "dangling entry '" << e.name << "' survived";
  }
  auto report = CheckShardedLfs(image.fs.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

// A clean unmount Syncs, so the fsynced chain B/x -> C/x -> C/y leaves no
// intent pending and the remount settles nothing (before, the first
// rename's roll-back brought B/x back beside C/y).
TEST(ShardedIntentTest, CleanUnmountRetiresItsIntents) {
  ShardedRig rig;
  const InodeNum b = rig.DirOnOtherShard(99, "um-b");
  const InodeNum c = rig.DirOnOtherShard(rig.fs->ShardOf(b), "um-c");
  auto x = rig.fs->Create(b, "x", FileType::kRegular);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(rig.fs->Sync().ok());
  ASSERT_TRUE(rig.fs->Rename(b, "x", c, "x").ok());
  ASSERT_TRUE(rig.fs->Rename(c, "x", c, "y").ok());
  for (InodeNum ino : {*x, b, c}) {
    ASSERT_TRUE(rig.fs->Fsync(ino).ok());
  }
  ASSERT_GT(rig.fs->intent_log()->PendingCount(), 0u);
  rig.fs.reset();

  CrashImage remount(*rig.inner);
  ASSERT_NE(remount.fs, nullptr);
  EXPECT_FALSE(remount.fs->reconcile_report().has_value())
      << remount.fs->reconcile_report()->intents_settled << " intents settled at mount";
  EXPECT_EQ(remount.fs->Lookup(b, "x").status().code(), ErrorCode::kNotFound);
  auto y = remount.fs->Lookup(c, "y");
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, *x);
  auto stat = remount.fs->Stat(*x);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 1u);
}

// --- the online repairer -----------------------------------------------------

TEST(ShardedIntentTest, RepairModeFixesSeededPreIntentDamage) {
  ShardedRig rig;
  const InodeNum d0 = rig.DirOnOtherShard(99, "rep-a");
  const InodeNum d1 = rig.DirOnOtherShard(rig.fs->ShardOf(d0), "rep-b");
  auto keep = rig.fs->Create(d0, "keep", FileType::kRegular);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(rig.fs->Write(*keep, 0, TestBytes(4096, 7)).ok());
  ASSERT_TRUE(rig.fs->Sync().ok());

  // Seed damage no intent names (what an intent region lost to media
  // faults would leave), via direct namespace edits (the documented
  // test/tool backdoor — the router is quiescent):
  //   1. a dangling dirent: names an ino that was never allocated;
  //   2. an orphan: an allocated inode no dirent references;
  //   3. a wrong nlink on a healthy file.
  LfsFileSystem* d1_home = rig.fs->shard(rig.fs->ShardOf(d1));
  ASSERT_TRUE(d1_home->DirInsert(d1, "dangles", *keep + 4 * kShards, FileType::kRegular).ok());
  uint32_t orphan_shard = (rig.fs->ShardOf(d0) + 1) % kShards;
  auto orphan = rig.fs->shard(orphan_shard)->AllocInode(FileType::kRegular, d0);
  ASSERT_TRUE(orphan.ok());
  LfsFileSystem* keep_home = rig.fs->shard(rig.fs->ShardOf(*keep));
  ASSERT_TRUE(keep_home->SetNlink(*keep, 5).ok());

  // Check-only: all three show up, nothing is touched.
  auto before = CheckShardedLfs(rig.fs.get(), /*verify_data=*/true);
  ASSERT_TRUE(before.ok());
  EXPECT_GE(before->problems.size(), 3u) << before->Summary();
  EXPECT_EQ(before->repairs_applied, 0u);

  // Repair mode: fixes everything in place and reports the POST-repair
  // state — clean, with the edits recorded.
  auto repaired = CheckShardedLfs(rig.fs.get(), /*verify_data=*/true,
                                  RepairMode::kRepair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->ok()) << repaired->Summary();
  EXPECT_GT(repaired->repairs_applied, 0u);
  // One note per edit, the lost+found.<i> it creates included.
  EXPECT_EQ(repaired->repairs_applied, repaired->repair_actions.size());

  // The repair is durable and honestly reported: a plain re-check agrees,
  // and the healthy file still has its bytes.
  auto after = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->ok()) << after->Summary();
  std::vector<std::byte> out(4096);
  ASSERT_TRUE(rig.fs->Read(*keep, 0, out).ok());
  EXPECT_EQ(out, TestBytes(4096, 7));
  auto stat = rig.fs->Stat(*keep);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 1u);
}

// Orphans that survive repair land in a per-shard lost+found rather than
// being destroyed: an allocated directory with children must be reattached
// or preserved, never silently reaped.
TEST(ShardedIntentTest, RepairPreservesUndecidableOrphansInLostFound) {
  ShardedRig rig;
  const InodeNum d0 = rig.DirOnOtherShard(99, "lf-a");
  ASSERT_TRUE(rig.fs->Sync().ok());

  // An allocated file inode with no referencing dirent and no intent
  // explaining it: the repairer cannot prove it was mid-create, so it must
  // preserve it under lost+found.<shard>.
  uint32_t orphan_shard = (rig.fs->ShardOf(d0) + 1) % kShards;
  auto orphan = rig.fs->shard(orphan_shard)->AllocInode(FileType::kRegular, d0);
  ASSERT_TRUE(orphan.ok());

  auto repaired = CheckShardedLfs(rig.fs.get(), /*verify_data=*/true,
                                  RepairMode::kRepair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->ok()) << repaired->Summary();

  // The orphan is reachable again, under root's lost+found for its shard.
  const std::string lf = "lost+found." + std::to_string(orphan_shard);
  auto lf_dir = rig.fs->Lookup(kRootIno, lf);
  ASSERT_TRUE(lf_dir.ok()) << "no " << lf << " after repair";
  auto entries = rig.fs->ReadDir(*lf_dir);
  ASSERT_TRUE(entries.ok());
  bool found = false;
  for (const DirEntry& e : *entries) {
    found = found || e.ino == *orphan;
  }
  EXPECT_TRUE(found) << "orphan ino " << *orphan << " not reattached under " << lf;
}

// True if `note` names `ino` as an inode ("ino 9"), a directory ("dir 9")
// or a lost+found entry ("ino9").
bool NoteNamesIno(const std::string& note, InodeNum ino) {
  const std::string number = std::to_string(ino);
  for (const char* prefix : {"ino ", "dir ", "ino"}) {
    const std::string token = prefix + number;
    for (size_t at = note.find(token); at != std::string::npos;
         at = note.find(token, at + 1)) {
      const size_t end = at + token.size();
      if (end == note.size() || !std::isdigit(static_cast<unsigned char>(note[end]))) {
        return true;
      }
    }
  }
  return false;
}

// Seeded orphans on every shard of a 4-log volume: one repair pass lists
// them before its first edit, so the lost+found.<i> it creates is never
// taken for an orphan and linked under itself (which left a directory
// cycle until a later pass dropped the duplicate link).
TEST(ShardedIntentTest, RepairNeverAdoptsTheLostFoundItCreates) {
  ShardedRig rig;
  const InodeNum d0 = rig.DirOnOtherShard(99, "adopt");
  ASSERT_TRUE(rig.fs->Sync().ok());
  std::vector<LfsFileSystem*> shards;
  uint64_t seeded = 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(rig.fs->shard(i));
    for (int k = 0; k < 2; ++k) {
      ASSERT_TRUE(rig.fs->shard(i)->AllocInode(FileType::kRegular, d0).ok());
      ++seeded;
    }
  }

  auto report = RepairShardedNamespace(shards, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->orphans_reattached, seeded);

  std::set<InodeNum> created;
  for (const std::string& note : report->actions) {
    const size_t at = note.find("(ino ");
    if (note.starts_with("created ") && at != std::string::npos) {
      created.insert(std::stoull(note.substr(at + 5)));
    }
  }
  EXPECT_EQ(created.size(), kShards);
  for (const std::string& note : report->actions) {
    for (InodeNum ino : created) {
      EXPECT_TRUE(note.starts_with("created ") || !NoteNamesIno(note, ino))
          << "note names ino " << ino << ", created in the same pass: " << note;
    }
  }

  // No directory cycle: every directory is reached from the root once.
  std::set<InodeNum> seen = {kRootIno};
  std::vector<InodeNum> stack = {kRootIno};
  while (!stack.empty()) {
    const InodeNum dir = stack.back();
    stack.pop_back();
    auto entries = rig.fs->ReadDir(dir);
    ASSERT_TRUE(entries.ok());
    for (const DirEntry& e : *entries) {
      if (e.name == "." || e.name == ".." || e.type != FileType::kDirectory) {
        continue;
      }
      EXPECT_TRUE(seen.insert(e.ino).second)
          << "directory ino " << e.ino << " reached twice (via dir " << dir << ")";
      stack.push_back(e.ino);
    }
  }
  auto check = CheckShardedLfs(rig.fs.get());
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok()) << check->Summary();

  // The pass converged: running it again changes nothing.
  auto again = RepairShardedNamespace(shards, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->total_edits(), 0u);
}

// --- the damage table ---------------------------------------------------------

// The seeded volume as the router sees it: every directory's entries and
// every named inode's nlink.
std::string NamespaceSnapshot(ShardedLfs* fs, const DamageVolume& v) {
  std::string out;
  for (InodeNum dir : {kRootIno, v.a, v.b, v.s}) {
    auto entries = fs->ReadDir(dir);
    out += "dir " + std::to_string(dir) + ":";
    for (const DirEntry& e : entries.ok() ? *entries : std::vector<DirEntry>{}) {
      out += " " + e.name + "=" + std::to_string(e.ino) + "/" +
             std::to_string(static_cast<int>(e.type));
    }
    out += "\n";
  }
  for (InodeNum ino : {kRootIno, v.a, v.b, v.f, v.s}) {
    auto stat = fs->Stat(ino);
    out += std::to_string(ino) + " nlink " + (stat.ok() ? std::to_string(stat->nlink) : "?") +
           "\n";
  }
  return out;
}

class NamespaceDamageTest : public ::testing::TestWithParam<DamageCase> {};

// Each flaw on a 4-log volume: check-only reports it and edits nothing;
// kRepair fixes it with exactly the table's notes and reports CLEAN; a
// second repair finds nothing; and where no orphan forces a lost+found,
// every nlink the check calls wrong is one the repair recounts, to the
// value the check expected.
TEST_P(NamespaceDamageTest, CheckReportsWhatRepairDoes) {
  const DamageCase& damage = GetParam();
  ShardedRig rig;
  DamageVolume v;
  v.a = rig.DirOnOtherShard(99, "a");
  v.b = rig.DirOnOtherShard(rig.fs->ShardOf(v.a), "b");
  auto f = rig.fs->Create(v.a, "f", FileType::kRegular);
  auto s = rig.fs->Create(v.a, "s", FileType::kDirectory);
  ASSERT_TRUE(f.ok() && s.ok());
  v.f = *f;
  v.s = *s;
  ShardedLfs* fs = rig.fs.get();
  v.log_of = [fs](InodeNum ino) { return fs->shard(fs->ShardOf(ino)); };
  v.other_log = fs->shard((fs->ShardOf(v.a) + 1) % kShards);
  v.unallocated = v.f + 64 * kShards;
  ASSERT_TRUE(fs->Sync().ok());
  auto x = damage.seed(v);
  ASSERT_TRUE(x.ok()) << x.status().ToString();

  const std::string seeded = NamespaceSnapshot(fs, v);
  std::vector<uint64_t> seqs;
  for (uint32_t i = 0; i < kShards; ++i) {
    seqs.push_back(fs->shard(i)->mutation_seq());
  }
  auto before = CheckShardedLfs(fs, /*verify_data=*/true);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before->ok()) << before->Summary();
  EXPECT_EQ(before->repairs_applied, 0u);
  EXPECT_EQ(NamespaceSnapshot(fs, v), seeded);
  for (uint32_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(fs->shard(i)->mutation_seq(), seqs[i]) << "shard " << i;
  }

  auto repaired = CheckShardedLfs(fs, /*verify_data=*/true, RepairMode::kRepair);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_TRUE(repaired->ok()) << repaired->Summary();
  EXPECT_EQ(repaired->repairs_applied, repaired->repair_actions.size());
  std::map<std::string, uint64_t> values = {
      {"a", v.a}, {"b", v.b}, {"f", v.f}, {"s", v.s}, {"x", *x}, {"part", fs->ShardOf(*x)}};
  if (damage.orphan) {
    auto lf = fs->Lookup(kRootIno, "lost+found." + std::to_string(fs->ShardOf(*x)));
    ASSERT_TRUE(lf.ok());
    values["lf"] = *lf;
  }
  std::multiset<std::string> want;
  for (const std::string& note : damage.notes) {
    want.insert(Fill(note, values));
  }
  const std::multiset<std::string> got(repaired->repair_actions.begin(),
                                       repaired->repair_actions.end());
  EXPECT_EQ(got, want);

  std::vector<LfsFileSystem*> shards;
  for (uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(fs->shard(i));
  }
  auto again = RepairShardedNamespace(shards, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->total_edits(), 0u);

  if (!damage.orphan) {
    EXPECT_EQ(NlinkProblems(before->problems), RecountNotes(repaired->repair_actions))
        << before->Summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Table, NamespaceDamageTest, ::testing::ValuesIn(DamageCases()),
                         DamageCaseName);

}  // namespace
}  // namespace logfs
