// The segment usage array (paper Section 4.3.4).
//
// One entry per segment, tracking an estimate of the live bytes in the
// segment plus its lifecycle state. The cleaner uses live-byte counts to
// pick victims ("choose the segments with the most free space"). The table
// is memory-resident (a few bytes per segment) and serialized into blocks
// written to the log at checkpoints.
//
// Lifecycle: kClean -> (writer picks it) kActive -> (writer moves on)
// kDirty -> (cleaner empties it) kCleanPending -> (next checkpoint) kClean.
// The kCleanPending holding state keeps a cleaned segment from being
// rewritten before a checkpoint records the new homes of its blocks; until
// then, crash recovery may still need the old copies.
//
// kQuarantined is a terminal side-track off that cycle: a segment whose
// medium failed verification (checksum mismatch or persistent read error).
// The writer never allocates it, the cleaner never picks it as a victim
// (its salvage pass copies out whatever still verifies), and the state
// persists across remounts — media damage does not heal on reboot.
#ifndef LOGFS_SRC_LFS_LFS_SEG_USAGE_H_
#define LOGFS_SRC_LFS_LFS_SEG_USAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

enum class SegState : uint8_t {
  kClean = 0,
  kDirty = 1,
  kActive = 2,
  kCleanPending = 3,
  kQuarantined = 4,
};

struct SegUsage {
  uint32_t live_bytes = 0;
  uint64_t last_write_seq = 0;  // Log seq of the most recent write into it.
  SegState state = SegState::kClean;

  // --- memory-only heat telemetry (DESIGN.md §6j) ---
  // Never serialized: kSegUsageEntrySize and the encoded block layout are
  // unchanged, so remounts simply start the estimate over. Maintained even
  // with LOGFS_METRICS=OFF (plain doubles; export is what's gated).
  double allocated_at = 0.0;        // Sim time it last became kActive.
  double last_overwrite_at = 0.0;   // Sim time of the last live-block death.
  double heat_interval_ewma = 0.0;  // EWMA of inter-overwrite gaps, seconds.
                                    // 0 = no estimate yet; smaller = hotter.

  // Memory-only, like the heat fields: AddLive's underflow guard clamped this
  // estimate since the segment was last allocated, so a live_bytes of 0 is
  // not proof of emptiness and the cleaner still reads the segment.
  bool live_clamped = false;
};

inline constexpr size_t kSegUsageEntrySize = 16;

class SegmentUsageTable {
 public:
  SegmentUsageTable(uint32_t num_segments, uint32_t block_size);

  uint32_t num_segments() const { return num_segments_; }
  uint32_t entries_per_block() const { return entries_per_block_; }
  uint32_t block_count() const { return block_count_; }

  const SegUsage& Get(uint32_t seg) const { return entries_[seg]; }

  // Underflow-guarded: a negative delta larger than the current estimate
  // clamps to zero (and counts logfs.usage.underflow_clamps) instead of
  // wrapping the uint32 — a double-decrement must not turn a near-empty
  // segment into the cleaner's least-attractive victim. A clamp sets
  // live_clamped until the segment is next allocated.
  void AddLive(uint32_t seg, int64_t delta_bytes);
  void SetLive(uint32_t seg, uint32_t live_bytes);
  void SetState(uint32_t seg, SegState state);
  void SetWriteSeq(uint32_t seg, uint64_t seq);

  // --- heat telemetry (memory-only; never dirties a table block) ---
  // The segment was (re)allocated as the active segment: stamps
  // allocated_at and restarts the overwrite-interval estimate (heat is a
  // property of the data, and the data is new). Clears live_clamped.
  void NoteAllocated(uint32_t seg, double now);
  // A live block in `seg` just died to a foreground overwrite/delete:
  // folds the gap since the previous death into heat_interval_ewma
  // (alpha = kHeatAlpha; the first gap seeds the estimate).
  void RecordOverwrite(uint32_t seg, double now);
  static constexpr double kHeatAlpha = 0.25;

  uint32_t CountState(SegState state) const;
  uint64_t TotalLiveBytes() const;

  // Lowest-numbered clean segment, or kNotFound.
  Result<uint32_t> PickClean() const;
  // Victim-selection policy. kGreedy is the paper's choice ("choose the
  // segments with the most free space"); kFifo (oldest written first) is an
  // ablation baseline.
  enum class VictimPolicy { kGreedy, kFifo };
  // Up to `max_victims` kDirty segments. Segments at or above
  // `max_live_bytes` live bytes are never proposed (cleaning full segments
  // yields no space).
  std::vector<uint32_t> PickVictims(uint32_t max_victims, uint32_t max_live_bytes,
                                    VictimPolicy policy = VictimPolicy::kGreedy) const;
  // Promotes every kCleanPending segment to kClean (checkpoint completion).
  // A pending segment that still reports live bytes was not fully relocated
  // — the cleaner could not stage every live block (media damage) — and
  // promoting it would hand the allocator a segment whose contents are
  // still reachable. Such segments become kQuarantined instead; they are
  // returned so the caller can record the demotion.
  std::vector<uint32_t> CommitPendingClean();

  // --- block (de)serialization ---
  Status EncodeBlock(uint32_t block_index, std::span<std::byte> out) const;
  Status DecodeBlock(uint32_t block_index, std::span<const std::byte> in);
  bool BlockDirty(uint32_t block_index) const { return dirty_blocks_[block_index]; }
  void ClearBlockDirty(uint32_t block_index) { dirty_blocks_[block_index] = false; }
  // Forces a rewrite of one table block at the next checkpoint (cleaner
  // relocation of a live usage block).
  void MarkBlockDirty(uint32_t block_index) { dirty_blocks_[block_index] = true; }
  void MarkAllDirty();

 private:
  void MarkDirty(uint32_t seg) { dirty_blocks_[seg / entries_per_block_] = true; }

  uint32_t num_segments_;
  uint32_t block_size_;
  uint32_t entries_per_block_;
  uint32_t block_count_;
  std::vector<SegUsage> entries_;
  std::vector<bool> dirty_blocks_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_SEG_USAGE_H_
