// On-disk format of the LFS storage manager (paper Section 4).
//
// Layout:
//
//   block 0                         superblock (static after format)
//   blocks 1 .. 1+C-1               checkpoint region A   (C blocks)
//   blocks 1+C .. 1+2C-1            checkpoint region B
//   first_segment_sector ...        segments[0..nsegments), each `segment_size`
//
// Everything after the checkpoint regions is written strictly append-only in
// segment-sized units. A segment is filled by one or more *partial segments*,
// each laid out as:
//
//   [ summary block | content block 0 | ... | content block n-1 ]
//
// The summary block (lfs_segment.h) identifies every content block (file
// number, block offset, inode-map version) and carries a CRC over the whole
// partial segment, so a torn write invalidates the partial atomically.
//
// The checkpoint region holds the dynamic root state: the log tail, the
// disk addresses of the inode-map and segment-usage blocks (which live in
// the log), and allocation counters. Two regions alternate (Section 4.4.1);
// the one with the highest sequence number and a valid CRC wins at mount.
#ifndef LOGFS_SRC_LFS_LFS_FORMAT_H_
#define LOGFS_SRC_LFS_LFS_FORMAT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/fsbase/fs_types.h"
#include "src/sim/disk_model.h"  // kSectorSize
#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

inline constexpr uint32_t kLfsMagic = 0x4C465331;   // "LFS1"
inline constexpr uint32_t kCkptMagic = 0x434B5054;  // "CKPT"
inline constexpr uint32_t kShardMagic = 0x53485244;  // "SHRD"
inline constexpr uint32_t kIntentExtMagic = 0x494E5431;  // "INT1"

struct LfsParams {
  uint32_t block_size = 4096;        // Paper Section 5: LFS used 4 KB blocks.
  uint32_t segment_size = 1 << 20;   // Paper Section 5: 1 MB segments.
  uint32_t max_inodes = 65536;
  // Cleaning policy (Section 4.3.4): cleaning starts when the number of
  // clean segments drops below `clean_start`, and proceeds until
  // `clean_stop` segments are clean (or no further progress is possible).
  uint32_t clean_start_segments = 8;
  uint32_t clean_stop_segments = 16;
  // Segments held back from normal allocation so the cleaner always has
  // room to compact into.
  uint32_t reserved_segments = 4;
  // Checkpoint interval (Section 4.4.1; paper uses 30 s).
  double checkpoint_interval_seconds = 30.0;
  // Sharded multi-log membership (src/lfs/sharded_lfs.h). 0 = unsharded
  // single log (the seed format, byte-identical on disk). When >= 2, this
  // volume slice is log `shard_index` of `shard_count`; its inode map owns
  // the global numbers with (ino - 1) % shard_count == shard_index, and
  // `max_inodes` counts that shard's LOCAL inode slots. Only shard 0 hosts
  // the root directory.
  uint32_t shard_count = 0;
  uint32_t shard_index = 0;
  // Cross-shard intent log region (src/lfs/lfs_intent.h), in RAW volume
  // sectors (the region lives after the last shard slice, outside every
  // shard's window). 0/0 = no intent region: the unsharded seed format, and
  // sharded volumes formatted before the intent log existed.
  uint64_t intent_start_sector = 0;
  uint32_t intent_sectors = 0;
};

struct LfsSuperblock {
  uint32_t magic = kLfsMagic;
  uint32_t block_size = 0;
  uint32_t segment_size = 0;
  uint32_t max_inodes = 0;
  uint32_t checkpoint_region_blocks = 0;  // C above.
  uint64_t first_segment_sector = 0;
  uint32_t num_segments = 0;
  uint32_t clean_start_segments = 0;
  uint32_t clean_stop_segments = 0;
  uint32_t reserved_segments = 0;
  double checkpoint_interval_seconds = 30.0;
  // Shard membership (see LfsParams). Encoded as a tagged extension AFTER
  // the legacy payload+CRC, and only when shard_count >= 2 — an unsharded
  // superblock is byte-identical to the seed format, and a seed-era
  // superblock decodes with shard_count 0.
  uint32_t shard_count = 0;
  uint32_t shard_index = 0;
  // Intent-log region in RAW volume sectors (see LfsParams). Encoded as a
  // second tagged extension ("INT1") after the shard extension, present
  // only when sharded AND an intent region was formatted — so unsharded
  // images stay byte-identical to the seed, and pre-intent sharded images
  // decode with 0/0 (no region: recovery falls back to the repair walk).
  uint64_t intent_start_sector = 0;
  uint32_t intent_sectors = 0;

  bool sharded() const { return shard_count >= 2; }
  bool has_intent_region() const { return sharded() && intent_sectors > 0; }
  uint32_t SectorsPerBlock() const { return block_size / kSectorSize; }
  uint32_t BlocksPerSegment() const { return segment_size / block_size; }
  uint32_t SectorsPerSegment() const { return segment_size / kSectorSize; }
  // Sector address of block `offset` within segment `seg`.
  uint64_t SegmentBlockSector(uint32_t seg, uint32_t offset) const {
    return first_segment_sector +
           static_cast<uint64_t>(seg) * SectorsPerSegment() +
           static_cast<uint64_t>(offset) * SectorsPerBlock();
  }
  // Segment that contains `sector` (sector must be in the segment area).
  uint32_t SegmentOfSector(uint64_t sector) const {
    return static_cast<uint32_t>((sector - first_segment_sector) / SectorsPerSegment());
  }
  bool InSegmentArea(uint64_t sector) const {
    return sector >= first_segment_sector &&
           sector < first_segment_sector +
                        static_cast<uint64_t>(num_segments) * SectorsPerSegment();
  }
};

Status EncodeLfsSuperblock(const LfsSuperblock& sb, std::span<std::byte> block);
Result<LfsSuperblock> DecodeLfsSuperblock(std::span<const std::byte> block);

// The dynamic root state saved at each checkpoint.
struct CheckpointRecord {
  uint64_t sequence = 0;        // Monotone checkpoint counter.
  double timestamp = 0.0;       // SimClock time of the checkpoint.
  uint64_t next_log_seq = 1;    // Next partial-segment sequence number.
  uint32_t tail_segment = 0;    // Where the log continues after mount.
  uint32_t tail_offset = 0;     // Block offset within tail_segment.
  InodeNum next_ino_hint = 2;   // Allocation scan start.
  uint64_t total_live_bytes = 0;
  // Disk addresses (sector of first sector) of each inode-map block and
  // each segment-usage block, in block-index order. kNoAddr = never written
  // (entries all-free / all-clean).
  std::vector<DiskAddr> imap_block_addrs;
  std::vector<DiskAddr> usage_block_addrs;
};

// Encodes into `region` (checkpoint_region_blocks * block_size bytes).
Status EncodeCheckpoint(const CheckpointRecord& ckpt, std::span<std::byte> region);
Result<CheckpointRecord> DecodeCheckpoint(std::span<const std::byte> region);

// Exact byte length of the encoded checkpoint payload (the CRC-covered
// prefix of the region). Bytes past this offset are ignored by
// DecodeCheckpoint, which is the slack the black-box trailer rides in
// (src/lfs/lfs_blackbox.h).
size_t CheckpointPayloadBytes(const CheckpointRecord& ckpt);

// Computes the derived geometry for a device of `sector_count` sectors;
// fails if the device cannot hold at least a handful of segments.
Result<LfsSuperblock> ComputeLfsGeometry(const LfsParams& params, uint64_t sector_count);

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_FORMAT_H_
