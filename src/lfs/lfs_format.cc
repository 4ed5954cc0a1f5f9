#include "src/lfs/lfs_format.h"

#include <cstring>

#include "src/util/crc32.h"
#include "src/util/serializer.h"

namespace logfs {
namespace {

constexpr size_t kSuperblockPayload = 4 * 9 + 8 + 8;

Status ValidateLfsParams(const LfsParams& params) {
  if (params.block_size < 1024 || params.block_size % kSectorSize != 0 ||
      params.block_size > 65536) {
    return InvalidArgumentError("LFS block size must be 1K-64K and sector aligned");
  }
  if (params.segment_size % params.block_size != 0 ||
      params.segment_size / params.block_size < 4) {
    return InvalidArgumentError("LFS segment must hold at least 4 blocks");
  }
  if (params.max_inodes < 16) {
    return InvalidArgumentError("LFS needs at least 16 inodes");
  }
  if (params.clean_stop_segments < params.clean_start_segments) {
    return InvalidArgumentError("clean_stop must be >= clean_start");
  }
  if (params.shard_count == 1 || (params.shard_count >= 2 &&
                                  params.shard_index >= params.shard_count)) {
    return InvalidArgumentError("shard_index must be < shard_count (>= 2), or count 0");
  }
  if (params.intent_sectors > 0 && params.shard_count < 2) {
    return InvalidArgumentError("intent region requires a sharded volume");
  }
  return OkStatus();
}

// Shard extension layout, starting right after the legacy payload + CRC:
// magic u32, shard_count u32, shard_index u32, CRC32 over those 12 bytes.
constexpr size_t kShardExtOffset = kSuperblockPayload + 4;
constexpr size_t kShardExtPayload = 12;

// Intent extension layout, after the shard extension + its CRC:
// magic u32, intent_start_sector u64, intent_sectors u32, CRC32 over those
// 16 bytes. Present only on sharded superblocks with an intent region.
constexpr size_t kIntentExtOffset = kShardExtOffset + kShardExtPayload + 4;
constexpr size_t kIntentExtPayload = 16;

}  // namespace

Status EncodeLfsSuperblock(const LfsSuperblock& sb, std::span<std::byte> block) {
  if (block.size() < kSuperblockPayload + 4) {
    return InvalidArgumentError("superblock buffer too small");
  }
  std::memset(block.data(), 0, block.size());
  BufferWriter writer(block);
  RETURN_IF_ERROR(writer.WriteU32(sb.magic));
  RETURN_IF_ERROR(writer.WriteU32(sb.block_size));
  RETURN_IF_ERROR(writer.WriteU32(sb.segment_size));
  RETURN_IF_ERROR(writer.WriteU32(sb.max_inodes));
  RETURN_IF_ERROR(writer.WriteU32(sb.checkpoint_region_blocks));
  RETURN_IF_ERROR(writer.WriteU64(sb.first_segment_sector));
  RETURN_IF_ERROR(writer.WriteU32(sb.num_segments));
  RETURN_IF_ERROR(writer.WriteU32(sb.clean_start_segments));
  RETURN_IF_ERROR(writer.WriteU32(sb.clean_stop_segments));
  RETURN_IF_ERROR(writer.WriteU32(sb.reserved_segments));
  RETURN_IF_ERROR(writer.WriteF64(sb.checkpoint_interval_seconds));
  const uint32_t crc = Crc32(block.subspan(0, kSuperblockPayload));
  RETURN_IF_ERROR(writer.WriteU32(crc));
  if (sb.sharded()) {
    if (block.size() < kShardExtOffset + kShardExtPayload + 4) {
      return InvalidArgumentError("superblock buffer too small for shard extension");
    }
    RETURN_IF_ERROR(writer.WriteU32(kShardMagic));
    RETURN_IF_ERROR(writer.WriteU32(sb.shard_count));
    RETURN_IF_ERROR(writer.WriteU32(sb.shard_index));
    const uint32_t ext_crc = Crc32(block.subspan(kShardExtOffset, kShardExtPayload));
    RETURN_IF_ERROR(writer.WriteU32(ext_crc));
  }
  if (sb.has_intent_region()) {
    if (block.size() < kIntentExtOffset + kIntentExtPayload + 4) {
      return InvalidArgumentError("superblock buffer too small for intent extension");
    }
    RETURN_IF_ERROR(writer.WriteU32(kIntentExtMagic));
    RETURN_IF_ERROR(writer.WriteU64(sb.intent_start_sector));
    RETURN_IF_ERROR(writer.WriteU32(sb.intent_sectors));
    const uint32_t ext_crc = Crc32(block.subspan(kIntentExtOffset, kIntentExtPayload));
    RETURN_IF_ERROR(writer.WriteU32(ext_crc));
  }
  return OkStatus();
}

Result<LfsSuperblock> DecodeLfsSuperblock(std::span<const std::byte> block) {
  if (block.size() < kSuperblockPayload + 4) {
    return CorruptedError("superblock truncated");
  }
  BufferReader reader(block);
  LfsSuperblock sb;
  ASSIGN_OR_RETURN(sb.magic, reader.ReadU32());
  if (sb.magic != kLfsMagic) {
    return CorruptedError("bad LFS superblock magic");
  }
  ASSIGN_OR_RETURN(sb.block_size, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.segment_size, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.max_inodes, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.checkpoint_region_blocks, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.first_segment_sector, reader.ReadU64());
  ASSIGN_OR_RETURN(sb.num_segments, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.clean_start_segments, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.clean_stop_segments, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.reserved_segments, reader.ReadU32());
  ASSIGN_OR_RETURN(sb.checkpoint_interval_seconds, reader.ReadF64());
  ASSIGN_OR_RETURN(uint32_t stored_crc, reader.ReadU32());
  if (stored_crc != Crc32(block.subspan(0, kSuperblockPayload))) {
    return CorruptedError("LFS superblock CRC mismatch");
  }
  // Optional shard extension. Seed-era superblocks (and every unsharded
  // format since) have zeros here and decode as shard_count 0.
  if (block.size() >= kShardExtOffset + kShardExtPayload + 4) {
    BufferReader ext(block.subspan(kShardExtOffset));
    ASSIGN_OR_RETURN(uint32_t ext_magic, ext.ReadU32());
    if (ext_magic == kShardMagic) {
      ASSIGN_OR_RETURN(sb.shard_count, ext.ReadU32());
      ASSIGN_OR_RETURN(sb.shard_index, ext.ReadU32());
      ASSIGN_OR_RETURN(uint32_t ext_crc, ext.ReadU32());
      if (ext_crc != Crc32(block.subspan(kShardExtOffset, kShardExtPayload))) {
        return CorruptedError("LFS shard extension CRC mismatch");
      }
      if (sb.shard_count < 2 || sb.shard_index >= sb.shard_count) {
        return CorruptedError("LFS shard extension out of range");
      }
      // Intent extension: only meaningful on sharded superblocks. Absent
      // decodes as 0/0 (no region), which ShardedLfs::Mount refuses.
      if (block.size() >= kIntentExtOffset + kIntentExtPayload + 4) {
        BufferReader iext(block.subspan(kIntentExtOffset));
        ASSIGN_OR_RETURN(uint32_t iext_magic, iext.ReadU32());
        if (iext_magic == kIntentExtMagic) {
          ASSIGN_OR_RETURN(sb.intent_start_sector, iext.ReadU64());
          ASSIGN_OR_RETURN(sb.intent_sectors, iext.ReadU32());
          ASSIGN_OR_RETURN(uint32_t iext_crc, iext.ReadU32());
          if (iext_crc != Crc32(block.subspan(kIntentExtOffset, kIntentExtPayload))) {
            return CorruptedError("LFS intent extension CRC mismatch");
          }
          if (sb.intent_sectors == 0 || sb.intent_start_sector == 0) {
            return CorruptedError("LFS intent extension out of range");
          }
        }
      }
    }
  }
  return sb;
}

Status EncodeCheckpoint(const CheckpointRecord& ckpt, std::span<std::byte> region) {
  std::memset(region.data(), 0, region.size());
  BufferWriter writer(region);
  RETURN_IF_ERROR(writer.WriteU32(kCkptMagic));
  RETURN_IF_ERROR(writer.WriteU32(0));  // CRC placeholder, patched below.
  RETURN_IF_ERROR(writer.WriteU64(ckpt.sequence));
  RETURN_IF_ERROR(writer.WriteF64(ckpt.timestamp));
  RETURN_IF_ERROR(writer.WriteU64(ckpt.next_log_seq));
  RETURN_IF_ERROR(writer.WriteU32(ckpt.tail_segment));
  RETURN_IF_ERROR(writer.WriteU32(ckpt.tail_offset));
  RETURN_IF_ERROR(writer.WriteU32(ckpt.next_ino_hint));
  RETURN_IF_ERROR(writer.WriteU64(ckpt.total_live_bytes));
  RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(ckpt.imap_block_addrs.size())));
  RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(ckpt.usage_block_addrs.size())));
  for (DiskAddr addr : ckpt.imap_block_addrs) {
    RETURN_IF_ERROR(writer.WriteU64(addr));
  }
  for (DiskAddr addr : ckpt.usage_block_addrs) {
    RETURN_IF_ERROR(writer.WriteU64(addr));
  }
  const size_t payload = writer.offset();
  // CRC over the payload with the CRC field itself zeroed (it is).
  const uint32_t crc = Crc32(region.subspan(0, payload));
  RETURN_IF_ERROR(writer.SeekTo(4));
  RETURN_IF_ERROR(writer.WriteU32(crc));
  return OkStatus();
}

size_t CheckpointPayloadBytes(const CheckpointRecord& ckpt) {
  // Fixed header fields (through the two table counts) plus one u64 per
  // table entry; must match EncodeCheckpoint's write sequence exactly.
  return 60 + 8 * (ckpt.imap_block_addrs.size() + ckpt.usage_block_addrs.size());
}

Result<CheckpointRecord> DecodeCheckpoint(std::span<const std::byte> region) {
  BufferReader reader(region);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kCkptMagic) {
    return CorruptedError("bad checkpoint magic");
  }
  ASSIGN_OR_RETURN(uint32_t stored_crc, reader.ReadU32());
  CheckpointRecord ckpt;
  ASSIGN_OR_RETURN(ckpt.sequence, reader.ReadU64());
  ASSIGN_OR_RETURN(ckpt.timestamp, reader.ReadF64());
  ASSIGN_OR_RETURN(ckpt.next_log_seq, reader.ReadU64());
  ASSIGN_OR_RETURN(ckpt.tail_segment, reader.ReadU32());
  ASSIGN_OR_RETURN(ckpt.tail_offset, reader.ReadU32());
  ASSIGN_OR_RETURN(ckpt.next_ino_hint, reader.ReadU32());
  ASSIGN_OR_RETURN(ckpt.total_live_bytes, reader.ReadU64());
  ASSIGN_OR_RETURN(uint32_t imap_count, reader.ReadU32());
  ASSIGN_OR_RETURN(uint32_t usage_count, reader.ReadU32());
  if (static_cast<uint64_t>(imap_count) + usage_count > region.size() / 8) {
    return CorruptedError("checkpoint address tables exceed region");
  }
  ckpt.imap_block_addrs.resize(imap_count);
  for (DiskAddr& addr : ckpt.imap_block_addrs) {
    ASSIGN_OR_RETURN(addr, reader.ReadU64());
  }
  ckpt.usage_block_addrs.resize(usage_count);
  for (DiskAddr& addr : ckpt.usage_block_addrs) {
    ASSIGN_OR_RETURN(addr, reader.ReadU64());
  }
  const size_t payload = reader.offset();
  // Validate CRC with the stored field zeroed.
  std::vector<std::byte> copy(region.begin(), region.begin() + payload);
  std::memset(copy.data() + 4, 0, 4);
  if (stored_crc != Crc32(copy)) {
    return CorruptedError("checkpoint CRC mismatch");
  }
  return ckpt;
}

Result<LfsSuperblock> ComputeLfsGeometry(const LfsParams& params, uint64_t sector_count) {
  RETURN_IF_ERROR(ValidateLfsParams(params));
  LfsSuperblock sb;
  sb.block_size = params.block_size;
  sb.segment_size = params.segment_size;
  sb.max_inodes = params.max_inodes;
  sb.clean_start_segments = params.clean_start_segments;
  sb.clean_stop_segments = params.clean_stop_segments;
  sb.reserved_segments = params.reserved_segments;
  sb.checkpoint_interval_seconds = params.checkpoint_interval_seconds;
  sb.shard_count = params.shard_count;
  sb.shard_index = params.shard_index;
  sb.intent_start_sector = params.intent_start_sector;
  sb.intent_sectors = params.intent_sectors;

  // Checkpoint region: header (~64 B) + one 8-byte address per inode-map
  // block and per segment-usage block. Sized generously and rounded up.
  // imap entries are 24 B (lfs_inode_map.h), usage entries 16 B.
  const uint64_t imap_blocks =
      (static_cast<uint64_t>(params.max_inodes) * 24 + params.block_size - 1) /
      params.block_size;
  // Upper bound on segments: device / segment size.
  const uint64_t max_segments =
      sector_count * kSectorSize / params.segment_size + 1;
  const uint64_t usage_blocks =
      (max_segments * 16 + params.block_size - 1) / params.block_size;
  const uint64_t ckpt_bytes = 256 + (imap_blocks + usage_blocks) * 8;
  sb.checkpoint_region_blocks =
      static_cast<uint32_t>((ckpt_bytes + params.block_size - 1) / params.block_size);

  const uint64_t first_block = 1 + 2ull * sb.checkpoint_region_blocks;
  sb.first_segment_sector = first_block * sb.SectorsPerBlock();
  const uint64_t remaining_sectors = sector_count > sb.first_segment_sector
                                         ? sector_count - sb.first_segment_sector
                                         : 0;
  sb.num_segments = static_cast<uint32_t>(remaining_sectors / sb.SectorsPerSegment());
  if (sb.num_segments < params.reserved_segments + 4) {
    return InvalidArgumentError("device too small for an LFS log");
  }
  // Checkpoints rewrite the segment-usage blocks into a single partial
  // segment (their contents are patched after their addresses are known),
  // so the whole table must fit in one segment.
  const uint64_t usage_table_blocks =
      (static_cast<uint64_t>(sb.num_segments) * 16 + params.block_size - 1) /
      params.block_size;
  if (usage_table_blocks + 2 > sb.BlocksPerSegment()) {
    return InvalidArgumentError(
        "segment too small for this device's segment-usage table; use larger segments");
  }
  return sb;
}

}  // namespace logfs
