// The inode map (paper Section 4.2.1).
//
// LFS inodes float in the log, so the inode map provides the indirection
// from inode number to the inode's current disk location. Each entry also
// keeps the allocation state, a version number bumped every time the file
// is deleted or truncated to length zero (used by the cleaner's fast
// liveness check, Section 4.3.3 step 1), and the file's access time
// (footnote 2: atime lives here so reads never relocate inodes).
//
// The map is partitioned into blocks written to the log like file blocks;
// the checkpoint records each block's address. In memory the whole map is
// resident (it is small), with per-block dirty bits driving what gets
// rewritten at checkpoint time.
//
// Sharding: a sharded volume (src/lfs/sharded_lfs.h) stripes the global
// inode-number space across shards by residue — shard i of N owns inode
// numbers with PartOf(ino, N) == i (src/fsbase/fs_types.h). Each shard's map holds only its own
// residue class: `stride` = N, `offset` = i, and `max_inodes` counts LOCAL
// slots. Slot s holds global inode number offset + s*stride + 1, so the
// on-disk block layout is exactly the unsharded one over the local slots
// while every ino that crosses the API (dirents, summaries, checkpoints)
// stays global. The default stride 1 / offset 0 is the identity mapping —
// bit-for-bit the original single-log behaviour.
#ifndef LOGFS_SRC_LFS_LFS_INODE_MAP_H_
#define LOGFS_SRC_LFS_LFS_INODE_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/fsbase/fs_types.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

struct ImapEntry {
  DiskAddr block_addr = kNoAddr;  // Inode block holding this inode.
  uint16_t slot = 0;              // Slot within that inode block.
  bool allocated = false;
  uint32_t version = 0;
  double atime = 0.0;
};

// On-disk size of one entry (addr 8 + slot 2 + flags 2 + version 4 + atime 8).
inline constexpr size_t kImapEntrySize = 24;

class InodeMap {
 public:
  InodeMap(uint32_t max_inodes, uint32_t block_size, uint32_t stride = 1,
           uint32_t offset = 0);

  // LOCAL slot capacity (equals the largest valid ino only when stride 1).
  uint32_t max_inodes() const { return max_inodes_; }
  uint32_t entries_per_block() const { return entries_per_block_; }
  uint32_t block_count() const { return block_count_; }
  uint32_t allocated_count() const { return allocated_count_; }
  uint32_t stride() const { return stride_; }
  uint32_t shard_offset() const { return offset_; }

  // True iff this map owns `ino`: right residue class, slot in range.
  bool IsValid(InodeNum ino) const {
    return ino >= kRootIno && PartOf(ino, stride_) == offset_ && SlotOf(ino) < max_inodes_;
  }
  // Global ino stored in local slot `slot` (< max_inodes()). Iterate the
  // map with slots, never by incrementing inos — a strided map owns only
  // every stride-th number.
  InodeNum InoAtSlot(uint32_t slot) const {
    return static_cast<InodeNum>(offset_ + static_cast<uint64_t>(slot) * stride_ + 1);
  }
  uint32_t SlotOf(InodeNum ino) const {
    return static_cast<uint32_t>((ino - 1 - offset_) / stride_);
  }

  const ImapEntry& Get(InodeNum ino) const { return entries_[SlotOf(ino)]; }
  const ImapEntry& GetSlot(uint32_t slot) const { return entries_[slot]; }

  // Records a new location for an (allocated) inode.
  void SetLocation(InodeNum ino, DiskAddr block_addr, uint16_t slot);
  void SetAtime(InodeNum ino, double atime);
  // Sets the version explicitly (roll-forward recovery).
  void SetVersion(InodeNum ino, uint32_t version);

  // Allocates the first free inode number at or after `hint` (wrapping,
  // rounded up to this map's residue class); bumps its version so blocks of
  // any previous incarnation read as dead. Returns a GLOBAL ino.
  Result<InodeNum> Allocate(InodeNum hint);
  // The ino Allocate(hint) WOULD return, without mutating anything. The
  // scan is deterministic, so under the owning shard's lock
  // PeekAllocate(h) == Allocate(h). Lets the cross-shard router name the
  // child ino in an intent record before the allocation dirties the shard.
  Result<InodeNum> PeekAllocate(InodeNum hint) const;
  // Marks an inode free and bumps its version (the delete fast-path of the
  // cleaner's liveness check).
  void Free(InodeNum ino);
  // Marks allocated without bumping (roll-forward recovery).
  void ForceAllocated(InodeNum ino, bool allocated);

  // --- block (de)serialization ---
  Status EncodeBlock(uint32_t block_index, std::span<std::byte> out) const;
  Status DecodeBlock(uint32_t block_index, std::span<const std::byte> in);

  bool BlockDirty(uint32_t block_index) const { return dirty_blocks_[block_index]; }
  void ClearBlockDirty(uint32_t block_index) { dirty_blocks_[block_index] = false; }
  // Forces a rewrite of one map block at the next checkpoint (used by the
  // cleaner to relocate a live imap block out of a victim segment).
  void MarkBlockDirty(uint32_t block_index) { dirty_blocks_[block_index] = true; }
  void MarkAllDirty();

 private:
  void MarkDirty(InodeNum ino) { dirty_blocks_[SlotOf(ino) / entries_per_block_] = true; }

  uint32_t max_inodes_;
  uint32_t block_size_;
  uint32_t entries_per_block_;
  uint32_t block_count_;
  uint32_t stride_;
  uint32_t offset_;
  uint32_t allocated_count_ = 0;
  std::vector<ImapEntry> entries_;
  std::vector<bool> dirty_blocks_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_INODE_MAP_H_
