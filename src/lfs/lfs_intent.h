// Cross-shard intent log (DESIGN.md §6i).
//
// The sharded multi-log recovers each shard independently, so a crash
// between the two halves of a cross-shard namespace operation (create,
// link, unlink, rmdir, rename) can leave a dangling dirent on one shard or
// an orphaned inode on another. The intent log closes that gap with the
// classic write-ahead-intent discipline: before a multi-shard operation
// mutates its FIRST shard, the router durably records an intent describing
// the whole operation; on mount, unretired intents drive a deterministic
// reconciliation (src/lfs/lfs_repair.h) that rolls each half-applied
// operation forward or back, so the recovered namespace is always clean.
//
// On-disk layout: a small dedicated region after the last shard slice,
// located by the INT1 superblock extension (lfs_format.h). The region is a
// fixed array of `kIntentSlots` slots of `kIntentSlotBytes` each. A slot is
// either garbage (free), a PENDING record (a published intent), or a
// RETIRED retire marker, which names no operation; each record is
// CRC-sealed, so a torn slot write parses as garbage. Every record is
// written synchronously and carries a free mask: bit i is set when slot i
// held no live intent at the moment the record was written.
//
// Why garbage slots are always safe to ignore: a torn PENDING write means
// the op never started — the intent write is synchronous (a full barrier
// in the crash model) and returns before the first in-memory shard
// mutation, so no later flush can carry the op's effects if the intent
// itself did not land — and a torn marker only orders retirements, so
// losing it retires fewer intents.
//
// Retirement: an intent is retired once every involved shard's durable
// horizon (synced_seq) covers the mutation_seq that shard had when the
// operation completed. The horizon advances at checkpoints, whose
// synchronous writes are barriers, and, under roll-forward, at every Fsync,
// whose partial-segment writes are not; a retirement after an Fsync relies
// on the crash model treating a completed Fsync as a barrier (the sharded
// crash sweeps pass those positions as barrier_positions). Retiring writes
// nothing: it frees the slot in memory, and the next synchronous write to
// the region (a publish, or a retire marker that Sync, Checkpoint, mount
// reconciliation or a clean unmount writes) carries the slot's bit in its
// free mask. At mount, the valid record with the highest op_id is the
// newest; a PENDING record in a slot its mask marks, with a smaller op_id,
// reads retired. That is
// sound for any valid record, not just the newest: a record R proves the
// slot held no live intent when R was written, and a PENDING record older
// than R still in that slot was on disk then, so its intent had retired.
// No write lands in the newest record's slot, so when the newest record is
// torn the previous one is intact and its mask applies, which can only
// retire fewer intents. One marker cannot land half-way, so a batch of
// retirements becomes durable at once, in op order.
//
// Until a synchronous write orders it, a retired intent still reads
// PENDING after a crash, and recovery probes the actual shard state.
// Settling an already-durable op is a no-op only while no later op has
// changed the names it probes; ROADMAP.md item 11 lists the cases where a
// stale roll-back re-inserts a name a later op removed.
//
// Media faults: all region I/O goes through a ResilientDisk owned by the
// caller. A persistent media error on a slot marks it bad in memory and the
// publish moves to another slot; if the whole region is unwritable the
// publish fails and the router aborts the operation BEFORE any shard
// mutation — a cross-shard op either has a durable intent or never starts.
// A slot mount cannot read may hide a pending intent, so mount then runs the
// full namespace repair walk.
#ifndef LOGFS_SRC_LFS_LFS_INTENT_H_
#define LOGFS_SRC_LFS_LFS_INTENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/disk/block_device.h"
#include "src/fsbase/fs_types.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

// "INTM": records carry a free mask. The earlier "INTC" records (per-slot
// RETIRED overwrites, no mask) do not decode.
inline constexpr uint32_t kIntentRecordMagic = 0x494E544D;
// 64 slots x 1 KB = a 128-sector region; a slot comfortably holds two
// max-length names, and one bit per slot fits the free mask. The ring
// bounds the number of cross-shard operations in flight between
// retirements; the router drains (sync + retire) when it fills.
inline constexpr uint32_t kIntentSlots = 64;
inline constexpr uint32_t kIntentSlotBytes = 1024;
inline constexpr uint64_t kIntentRegionSectors =
    static_cast<uint64_t>(kIntentSlots) * kIntentSlotBytes / kSectorSize;

enum class IntentKind : uint8_t {
  kMarker = 0,  // A retire marker: names no operation, carries a free mask.
  kCreate = 1,  // dirent on from_dir's shard, new inode `child` elsewhere.
  kLink = 2,    // dirent on from_dir's shard, nlink++ on `child`.
  kUnlink = 3,  // dirent removal on from_dir's shard, link drop on `child`.
  kRmdir = 4,   // dirent removal on from_dir's shard, dir release of `child`.
  kRename = 5,  // entry moves from (from_dir, from_name) to (to_dir, to_name).
};

enum class IntentState : uint8_t {
  kPending = 1,
  kRetired = 2,
};

// One cross-shard operation, described completely enough that recovery can
// probe every half and decide the reconciliation direction without any
// other context. Fields that do not apply to a kind are zero / empty.
struct IntentRecord {
  uint64_t op_id = 0;  // Monotone across the volume's lifetime.
  IntentKind kind = IntentKind::kCreate;
  InodeNum from_dir = 0;      // Parent of the (only) name, or rename source dir.
  InodeNum to_dir = 0;        // Rename destination dir.
  InodeNum child = 0;         // Created / linked / unlinked ino; rename src ino.
  InodeNum victim = 0;        // Rename replace victim (0 = none).
  FileType child_type = FileType::kRegular;
  FileType victim_type = FileType::kRegular;
  std::string from_name;      // The name, or rename source name.
  std::string to_name;        // Rename destination name.
};

// A decoded slot as surfaced to recovery and tooling.
struct LoadedIntent {
  uint32_t slot = 0;
  // As written, then (in LoadAll) kRetired where the newest mask retires it.
  IntentState state = IntentState::kPending;
  IntentRecord record;
  uint64_t free_mask = 0;  // The mask the record carries, as written.
};

// Slot codec. Encode writes a CRC-sealed record with its free mask into
// `slot` (kIntentSlotBytes); Decode returns it (slot 0) or kCorrupted for
// garbage. A marker (kind kMarker) must be RETIRED and a published intent
// PENDING.
Status EncodeIntentSlot(const IntentRecord& rec, IntentState state, uint64_t free_mask,
                        std::span<std::byte> slot);
Result<LoadedIntent> DecodeIntentSlot(std::span<const std::byte> slot);

// What LoadAll read: the decodable records, slot-ordered, and how many
// slots could not be read at all.
struct IntentScan {
  std::vector<LoadedIntent> records;
  uint32_t unreadable_slots = 0;
};

// The runtime intent log. Thread-safe: a single internal mutex serializes
// slot allocation, region I/O and retirement bookkeeping (callers hold
// their shard locks around Publish, but the log itself never takes shard
// locks, so there is no ordering interaction).
class IntentLog {
 public:
  // `device` is the RAW volume device (typically wrapped in a
  // ResilientDisk by the owner); the region is [first_sector,
  // first_sector + sector_count). `sector_count` must cover kIntentSlots
  // slots.
  IntentLog(BlockDevice* device, uint64_t first_sector, uint64_t sector_count);

  // Reads every slot and applies the newest record's free mask (see the
  // file comment). Records that still read PENDING hold their slots until
  // RetireSettled; garbage and retired slots are free. A media error on a
  // slot read marks the slot bad (never reused) and counts it in
  // `unreadable_slots`: it may hide a pending intent, so the caller must
  // fall back to the full repair walk.
  Result<IntentScan> LoadAll();

  // Durably records a pending intent (synchronous region write — a full
  // barrier — whose free mask orders every earlier retirement). Assigns the
  // next op_id. Returns the slot, or:
  //   * kBusy when every writable slot is occupied by a live intent — the caller
  //     must drain (sync involved shards, RetireCovered) and retry;
  //   * the device error when the region cannot be written (all remaining
  //     slots bad): the caller must abort the operation unstarted.
  Result<uint32_t> Publish(IntentRecord* rec);

  // Marks the published intent applied: `covers` lists (shard index,
  // mutation_seq) pairs; the intent is retireable once every listed
  // shard's synced_seq reaches its mutation_seq. In-memory only.
  void MarkApplied(uint32_t slot, std::vector<std::pair<uint32_t, uint64_t>> covers);

  // Retires every applied slot whose covering sequences are all durable
  // per `synced_seqs` (indexed by shard). In-memory only: the slot is free
  // at once, and its retirement is durable at the next synchronous write.
  void RetireCovered(std::span<const uint64_t> synced_seqs);
  // Retires every intent LoadAll left pending. Mount reconciliation calls
  // this once its repair is durable.
  void RetireSettled();

  // Writes one retire marker when some retirement is not yet ordered by a
  // synchronous region write; otherwise writes nothing. A media error marks
  // the slot bad and tries another; if none takes it the retirements stay
  // unordered (safe: their intents re-settle at mount) and the next publish
  // carries them. Only kCrashed is returned.
  Status WriteRetireMarker();

  // Whether a slot that may still read PENDING after a crash names `ino` as
  // its child or victim: a live intent, or a retired one whose free bit no
  // synchronous write has carried yet. Recovery settles such an intent
  // against the names later ops left, so the router publishes for a
  // same-shard rename this returns true for.
  bool NamesUnretired(InodeNum ino);

  // Occupied (pending-on-disk, not yet retired) slots.
  uint32_t PendingCount();
  uint64_t next_op_id();

 private:
  enum class SlotState : uint8_t { kFree, kPublished, kApplied, kBad };
  struct Slot {
    SlotState state = SlotState::kFree;
    IntentRecord rec;
    std::vector<std::pair<uint32_t, uint64_t>> covers;
    bool retire_unordered = false;  // Retired; no synchronous write carries it yet.
  };

  uint64_t SlotSector(uint32_t slot) const {
    return first_sector_ + static_cast<uint64_t>(slot) * (kIntentSlotBytes / kSectorSize);
  }
  // Frees `s` in memory; its bit rides on the next synchronous write.
  static void Retire(Slot& s);
  // Free, and not the newest record's slot: a torn write there would take
  // the newest mask with it, where elsewhere it leaves that mask in force.
  bool Writable(uint32_t slot) const;
  // Synchronously writes `rec` (given the next op_id) with `state` and the
  // current free mask into the first writable slot that takes it. `live`: the
  // slot then holds a live intent, so the mask leaves its bit clear. A
  // media error marks a slot bad and moves on; returns the slot, kCrashed,
  // or kMediaError once no writable slot is left. Every earlier retirement is
  // ordered once it returns a slot.
  Result<uint32_t> WriteNext(IntentRecord& rec, IntentState state, bool live);

  BlockDevice* device_;
  uint64_t first_sector_;
  std::mutex mu_;
  std::vector<Slot> slots_;
  uint64_t next_op_id_ = 1;
  uint32_t newest_slot_ = kIntentSlots;  // Holds the newest record on disk; none yet.
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_INTENT_H_
