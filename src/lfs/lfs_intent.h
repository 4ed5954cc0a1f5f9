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
// either garbage (free), a PENDING record, or a RETIRED record; each record
// is CRC-sealed, so a torn slot write parses as garbage.
//
// Why garbage slots are always safe to ignore:
//   * a torn PENDING write means the op never started — the intent write is
//     synchronous (a full barrier in the crash model) and returns before
//     the first in-memory shard mutation, so no later flush can carry the
//     op's effects if the intent itself did not land;
//   * a torn RETIRED overwrite means the op was fully durable on every
//     involved shard (that is the retirement precondition), so there is
//     nothing to reconcile.
//
// Retirement: an intent is retired (slot overwritten with a RETIRED record)
// only once every involved shard's durable horizon (synced_seq) covers the
// mutation_seq that shard had when the operation completed. The horizon
// advances at checkpoints, whose synchronous writes are barriers, and, under
// roll-forward, at every Fsync, whose partial-segment writes are not. So a
// retire after an Fsync relies on the crash model treating a completed
// Fsync as a barrier (the sharded crash sweeps pass those positions as
// barrier_positions); then a reorder-crash can never surface a retired
// intent whose halves are not durable. Until it is retired the intent stays
// PENDING on disk, and recovery probes the actual shard state. Settling an
// already-durable op is a no-op only while no later op has changed the
// names it probes; ROADMAP.md lists the cases where a stale roll-back
// re-inserts a name a later op removed.
//
// Media faults: all region I/O goes through a ResilientDisk owned by the
// caller. A persistent media error on a slot marks it bad in memory and the
// publish moves to another slot; if the whole region is unwritable the
// publish fails and the router aborts the operation BEFORE any shard
// mutation — a cross-shard op either has a durable intent or never starts.
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

inline constexpr uint32_t kIntentRecordMagic = 0x494E5443;  // "INTC"
// 64 slots x 1 KB = a 128-sector region; a slot comfortably holds two
// max-length names. The ring bounds the number of cross-shard operations
// in flight between checkpoints; the router drains (sync + retire) when
// it fills.
inline constexpr uint32_t kIntentSlots = 64;
inline constexpr uint32_t kIntentSlotBytes = 1024;
inline constexpr uint64_t kIntentRegionSectors =
    static_cast<uint64_t>(kIntentSlots) * kIntentSlotBytes / kSectorSize;

enum class IntentKind : uint8_t {
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

// Slot codec. Encode writes a CRC-sealed record into `slot`
// (kIntentSlotBytes); Decode returns kCorrupted for garbage.
Status EncodeIntentSlot(const IntentRecord& rec, IntentState state,
                        std::span<std::byte> slot);
Result<std::pair<IntentRecord, IntentState>> DecodeIntentSlot(
    std::span<const std::byte> slot);

// A decoded slot as surfaced to recovery and tooling.
struct LoadedIntent {
  uint32_t slot = 0;
  IntentState state = IntentState::kPending;
  IntentRecord record;
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

  // Reads every slot; returns the parseable records (pending and retired),
  // slot-ordered. Garbage slots are recorded as free. A media error on a
  // slot read marks the slot bad and skips it (best-effort: recovery then
  // falls back to the full repair walk via the caller).
  Result<std::vector<LoadedIntent>> LoadAll();
  // Pending records only, sorted by op_id — the reconciliation work list.
  Result<std::vector<IntentRecord>> LoadPending();

  // Durably records a pending intent (synchronous region write — a full
  // barrier). Assigns the next op_id. Returns the slot, or:
  //   * kBusy when every slot is occupied by a live intent — the caller
  //     must drain (sync involved shards, RetireCovered) and retry;
  //   * the device error when the region cannot be written (all remaining
  //     slots bad): the caller must abort the operation unstarted.
  Result<uint32_t> Publish(IntentRecord* rec);

  // Marks the published intent applied: `covers` lists (shard index,
  // mutation_seq) pairs; the intent is retireable once every listed
  // shard's synced_seq reaches its mutation_seq. In-memory only.
  void MarkApplied(uint32_t slot, std::vector<std::pair<uint32_t, uint64_t>> covers);

  // Retires every applied slot whose covering sequences are all durable
  // per `synced_seqs` (indexed by shard). Retire writes are best-effort
  // and asynchronous-class: losing one means recovery settles a fully
  // durable op again, which is a no-op unless a later op changed its names.
  Status RetireCovered(std::span<const uint64_t> synced_seqs);

  // Overwrites one slot with a RETIRED record regardless of coverage.
  // Mount-time reconciliation calls this after repairing + syncing.
  Status RetireSlot(uint32_t slot, const IntentRecord& rec);

  // Whether a slot that may still read PENDING after a crash names `ino` as
  // its child or victim: a live intent, a slot whose retire write failed,
  // or a retired one whose RETIRED overwrite no barrier has ordered yet
  // (the next synchronous publish orders it). Recovery settles such an
  // intent against the names later ops left, so the router publishes for
  // a same-shard rename this returns true for.
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
    bool retire_unordered = false;  // Free, but its RETIRED write may not land.
  };

  uint64_t SlotSector(uint32_t slot) const {
    return first_sector_ + static_cast<uint64_t>(slot) * (kIntentSlotBytes / kSectorSize);
  }
  // Writes `rec` with `state` into `slot`. Synchronous iff `synchronous`.
  Status WriteSlot(uint32_t slot, const IntentRecord& rec, IntentState state,
                   bool synchronous);

  BlockDevice* device_;
  uint64_t first_sector_;
  std::mutex mu_;
  std::vector<Slot> slots_;
  uint64_t next_op_id_ = 1;
  bool loaded_ = false;
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_INTENT_H_
