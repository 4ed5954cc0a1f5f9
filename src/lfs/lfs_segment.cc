#include "src/lfs/lfs_segment.h"

#include <cassert>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/crc32.h"
#include "src/util/serializer.h"

namespace logfs {
namespace {

constexpr uint32_t kSummaryMagic = 0x53554D32;  // "SUM2"
// magic, full crc, seq, time, nblocks, header crc.
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 4 + 4;
// kind, ino, version, offset, block crc.
constexpr size_t kEntrySize = 1 + 4 + 4 + 8 + 4;

// Header-field byte offsets referenced by the CRC stamping/validation code.
constexpr size_t kFullCrcOffset = 4;
constexpr size_t kNblocksEnd = 28;     // End of the fields the header CRC covers.
constexpr size_t kHeaderCrcOffset = 28;

// CRC over the fixed header with both CRC fields zeroed, streamed so the
// caller's block is never cloned.
uint32_t HeaderCrc(std::span<const std::byte> block) {
  static constexpr std::byte kZeroCrcField[4] = {};
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, block.subspan(0, kFullCrcOffset));
  crc = Crc32Update(crc, kZeroCrcField);
  crc = Crc32Update(crc, block.subspan(kFullCrcOffset + 4, kNblocksEnd - kFullCrcOffset - 4));
  crc = Crc32Update(crc, kZeroCrcField);
  return Crc32Finalize(crc);
}

}  // namespace

size_t SummaryCapacity(uint32_t block_size) { return (block_size - kHeaderSize) / kEntrySize; }

Status EncodeSummary(const SegmentSummary& summary, std::span<std::byte> block,
                     std::span<const std::byte> content) {
  if (summary.entries.size() > SummaryCapacity(static_cast<uint32_t>(block.size()))) {
    return InvalidArgumentError("too many entries for summary block");
  }
  std::memset(block.data(), 0, block.size());
  BufferWriter writer(block);
  RETURN_IF_ERROR(writer.WriteU32(kSummaryMagic));
  RETURN_IF_ERROR(writer.WriteU32(0));  // CRC patched below.
  RETURN_IF_ERROR(writer.WriteU64(summary.seq));
  RETURN_IF_ERROR(writer.WriteF64(summary.timestamp));
  RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(summary.entries.size())));
  RETURN_IF_ERROR(writer.WriteU32(0));  // Header CRC patched below.
  for (const SummaryEntry& entry : summary.entries) {
    RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(entry.kind)));
    RETURN_IF_ERROR(writer.WriteU32(entry.ino));
    RETURN_IF_ERROR(writer.WriteU32(entry.version));
    RETURN_IF_ERROR(writer.WriteI64(entry.offset));
    RETURN_IF_ERROR(writer.WriteU32(entry.block_crc));
  }
  // Header CRC first (over both CRC fields zeroed), so the full CRC below
  // covers the stamped header-CRC bytes.
  RETURN_IF_ERROR(writer.SeekTo(kHeaderCrcOffset));
  RETURN_IF_ERROR(writer.WriteU32(HeaderCrc(block)));
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, block);
  crc = Crc32Update(crc, content);
  crc = Crc32Finalize(crc);
  RETURN_IF_ERROR(writer.SeekTo(4));
  return writer.WriteU32(crc);
}

Result<SummaryPeek> PeekSummary(std::span<const std::byte> block, uint32_t block_size) {
  BufferReader reader(block);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kSummaryMagic) {
    return CorruptedError("bad summary magic");
  }
  RETURN_IF_ERROR(reader.Skip(4));
  SummaryPeek peek;
  ASSIGN_OR_RETURN(peek.seq, reader.ReadU64());
  RETURN_IF_ERROR(reader.Skip(8));
  ASSIGN_OR_RETURN(peek.nblocks, reader.ReadU32());
  ASSIGN_OR_RETURN(uint32_t stored_header_crc, reader.ReadU32());
  if (stored_header_crc != HeaderCrc(block)) {
    return CorruptedError("summary header CRC mismatch");
  }
  if (peek.nblocks > SummaryCapacity(block_size)) {
    return CorruptedError("summary block count out of range");
  }
  return peek;
}

namespace {

// Shared field decode for DecodeSummary / DecodeSummaryUnchecked; returns
// the summary plus the stored CRC for the caller to (not) validate.
Result<SegmentSummary> DecodeSummaryFields(std::span<const std::byte> block,
                                           uint32_t* stored_crc_out) {
  BufferReader reader(block);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kSummaryMagic) {
    return CorruptedError("bad summary magic");
  }
  ASSIGN_OR_RETURN(uint32_t stored_crc, reader.ReadU32());
  SegmentSummary summary;
  ASSIGN_OR_RETURN(summary.seq, reader.ReadU64());
  ASSIGN_OR_RETURN(summary.timestamp, reader.ReadF64());
  ASSIGN_OR_RETURN(uint32_t nblocks, reader.ReadU32());
  RETURN_IF_ERROR(reader.Skip(4));  // Header CRC (validated by PeekSummary).
  if (nblocks > SummaryCapacity(static_cast<uint32_t>(block.size()))) {
    return CorruptedError("summary block count out of range");
  }
  summary.entries.resize(nblocks);
  for (SummaryEntry& entry : summary.entries) {
    ASSIGN_OR_RETURN(uint8_t kind_raw, reader.ReadU8());
    if (kind_raw < static_cast<uint8_t>(BlockKind::kData) ||
        kind_raw > static_cast<uint8_t>(BlockKind::kMetaLog)) {
      return CorruptedError("bad summary entry kind");
    }
    entry.kind = static_cast<BlockKind>(kind_raw);
    ASSIGN_OR_RETURN(entry.ino, reader.ReadU32());
    ASSIGN_OR_RETURN(entry.version, reader.ReadU32());
    ASSIGN_OR_RETURN(entry.offset, reader.ReadI64());
    ASSIGN_OR_RETURN(entry.block_crc, reader.ReadU32());
  }
  *stored_crc_out = stored_crc;
  return summary;
}

}  // namespace

Result<SegmentSummary> DecodeSummary(std::span<const std::byte> block,
                                     std::span<const std::byte> content) {
  uint32_t stored_crc = 0;
  ASSIGN_OR_RETURN(SegmentSummary summary, DecodeSummaryFields(block, &stored_crc));
  // CRC over the summary block with the CRC field zeroed, then the content.
  // Streamed as prefix / four zero bytes / suffix so the block is not cloned
  // just to blank the field.
  static constexpr std::byte kZeroCrcField[4] = {};
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, block.subspan(0, 4));
  crc = Crc32Update(crc, kZeroCrcField);
  crc = Crc32Update(crc, block.subspan(8));
  crc = Crc32Update(crc, content);
  crc = Crc32Finalize(crc);
  if (crc != stored_crc) {
    return CorruptedError("summary CRC mismatch (torn or stale partial segment)");
  }
  return summary;
}

Result<SegmentSummary> DecodeSummaryUnchecked(std::span<const std::byte> block) {
  uint32_t ignored = 0;
  return DecodeSummaryFields(block, &ignored);
}

SummaryChain::SummaryChain(std::span<const std::byte> image, uint32_t block_size,
                           ChainMode mode)
    : image_(image), block_size_(block_size),
      blocks_(static_cast<uint32_t>(image.size() / block_size)), mode_(mode) {}

SummaryChain::SummaryChain(BlockDevice* device, const LfsSuperblock& sb, uint32_t segment,
                           ChainMode mode)
    : device_(device), first_sector_(sb.SegmentBlockSector(segment, 0)),
      block_size_(sb.block_size), blocks_(sb.BlocksPerSegment()), mode_(mode),
      buffer_(sb.block_size) {}

bool SummaryChain::Next() {
  // A partial needs its summary plus at least one content block.
  for (uint32_t offset = next_; offset + 1 < blocks_; ++offset) {
    const size_t pos = static_cast<size_t>(offset) * block_size_;
    std::span<const std::byte> block = buffer_;
    bool readable = true;
    if (device_ == nullptr) {
      block = image_.subspan(pos, block_size_);
    } else {
      readable = device_->ReadSectors(first_sector_ + pos / kSectorSize, buffer_).ok();
    }
    if (readable) {
      Result<SummaryPeek> peek = PeekSummary(block, block_size_);
      if (peek.ok() && offset + 1 + peek->nblocks <= blocks_) {
        offset_ = offset;
        peek_ = *peek;
        next_ = offset + 1 + peek->nblocks;
        return true;
      }
    }
    if (mode_ == ChainMode::kStrict) {
      break;
    }
  }
  next_ = blocks_;  // Ended: further calls stay false.
  return false;
}

std::span<const std::byte> SummaryChain::summary_block() const {
  if (device_ != nullptr) {
    return buffer_;
  }
  return image_.subspan(static_cast<size_t>(offset_) * block_size_, block_size_);
}

std::span<const std::byte> SummaryChain::content() const {
  assert(device_ == nullptr && "content() needs an in-memory image");
  return image_.subspan(static_cast<size_t>(offset_ + 1) * block_size_,
                        static_cast<size_t>(peek_.nblocks) * block_size_);
}

Result<std::vector<bool>> ReadSegmentImage(BlockDevice* device, const LfsSuperblock& sb,
                                           uint32_t segment, std::span<std::byte> image) {
  Status read = device->ReadSectors(sb.SegmentBlockSector(segment, 0), image);
  if (read.ok()) {
    return std::vector<bool>();
  }
  if (read.code() == ErrorCode::kCrashed) {
    return read;
  }
  const uint32_t bs = sb.block_size;
  std::vector<bool> unreadable(sb.BlocksPerSegment(), false);
  for (uint32_t b = 0; b < sb.BlocksPerSegment(); ++b) {
    std::span<std::byte> block = image.subspan(static_cast<size_t>(b) * bs, bs);
    Status block_read = device->ReadSectors(sb.SegmentBlockSector(segment, b), block);
    if (!block_read.ok()) {
      if (block_read.code() == ErrorCode::kCrashed) {
        return block_read;
      }
      unreadable[b] = true;
      std::memset(block.data(), 0, block.size());
    }
  }
  return unreadable;
}

SegmentBuilder::SegmentBuilder(BlockDevice* device, const LfsSuperblock& sb)
    : device_(device), sb_(sb), summary_block_(sb.block_size),
      capacity_(SummaryCapacity(sb.block_size)) {
  // A partial segment holds at most BlocksPerSegment()-1 content blocks, so
  // reserving the full segment size guarantees the resizes in
  // AppendDeferred never reallocate (see the capacity assert there).
  buffer_.reserve(sb_.segment_size);
}

void SegmentBuilder::StartAt(uint32_t segment, uint32_t offset) {
  assert(entries_.empty() && "repositioning with pending blocks");
  segment_ = segment;
  start_offset_ = offset;
  buffer_.clear();
  entry_sources_.clear();
}

bool SegmentBuilder::CanAppend() const {
  if (entries_.size() >= capacity_) {
    return false;
  }
  // Room needed: summary + existing entries + one more.
  return start_offset_ + 1 + entries_.size() + 1 <= sb_.BlocksPerSegment();
}

bool SegmentBuilder::SegmentHasRoom() const {
  return start_offset_ + 2 <= sb_.BlocksPerSegment();
}

Result<DiskAddr> SegmentBuilder::Append(BlockKind kind, uint32_t ino, uint32_t version,
                                        int64_t offset, std::span<const std::byte> data) {
  // Checked before AppendDeferred adds the entry: a rejected block must not
  // leave a zeroed phantom for the next Flush to write.
  if (data.size() != sb_.block_size) {
    return InvalidArgumentError("content block must be exactly one block");
  }
  std::span<std::byte> buffer;
  ASSIGN_OR_RETURN(DiskAddr addr, AppendDeferred(kind, ino, version, offset, &buffer));
  std::memcpy(buffer.data(), data.data(), data.size());
  return addr;
}

Result<DiskAddr> SegmentBuilder::AppendDeferred(BlockKind kind, uint32_t ino, uint32_t version,
                                                int64_t offset, std::span<std::byte>* buffer) {
  if (!CanAppend()) {
    return NoSpaceError("partial segment full; flush first");
  }
  const uint32_t block_offset = start_offset_ + 1 + static_cast<uint32_t>(entries_.size());
  entries_.push_back(SummaryEntry{kind, ino, version, offset});
  if constexpr (obs::kMetricsEnabled) {
    entry_sources_.push_back(EntrySource(kind));
  }
  const size_t pos = buffer_.size();
  // A reallocation here would dangle every span previously handed out; the
  // constructor's reserve makes it impossible.
  assert(pos + sb_.block_size <= buffer_.capacity() &&
         "owned content outgrew the constructor reserve; handed-out spans would dangle");
  buffer_.resize(pos + sb_.block_size, std::byte{0});
  *buffer = std::span<std::byte>(buffer_).subspan(pos, sb_.block_size);
  return sb_.SegmentBlockSector(segment_, block_offset);
}

Status SegmentBuilder::Flush(uint64_t seq, double timestamp) {
  if (entries_.empty()) {
    return OkStatus();
  }
  // Stamp each entry with its content CRC now — deferred blocks (segment
  // usage) are only final at flush time.
  const std::span<const std::byte> content(buffer_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].block_crc = Crc32(content.subspan(i * sb_.block_size, sb_.block_size));
  }
  SegmentSummary summary;
  summary.seq = seq;
  summary.timestamp = timestamp;
  summary.entries = entries_;
  RETURN_IF_ERROR(EncodeSummary(summary, summary_block_, content));
  // One vectored write: the summary block, then the content blocks in entry
  // order, already contiguous in buffer_.
  const std::span<const std::byte> iov[] = {summary_block_, content};
  const uint64_t sector = sb_.SegmentBlockSector(segment_, start_offset_);
  RETURN_IF_ERROR(device_->WriteSectorsV(sector, iov));
  // Per-flush (never per-append) accounting: one partial, its block count,
  // and the fill fraction of an entry-capacity'd summary. Handles are
  // resolved once per process; the increments are relaxed atomic adds.
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& partials = obs::Registry().GetCounter("logfs.segwriter.partials_flushed");
    static obs::Counter& blocks = obs::Registry().GetCounter("logfs.segwriter.blocks_written");
    static obs::Counter& bytes = obs::Registry().GetCounter("logfs.segwriter.bytes_written");
    static constexpr double kFillBounds[] = {0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
    static obs::Histogram& fill =
        obs::Registry().GetHistogram("logfs.segwriter.partial_fill", kFillBounds);
    partials.Increment();
    blocks.Increment(entries_.size());
    bytes.Increment((1 + entries_.size()) * sb_.block_size);
    fill.Observe(static_cast<double>(entries_.size()) /
                 static_cast<double>(SummaryCapacity(sb_.block_size)));
    // Provenance attribution (DESIGN.md §6j): content bytes split per entry
    // by the class captured at append time; the single device-write op and
    // the summary block go to the partial's dominant class — the highest
    // non-foreground class present, else fg_data whenever the partial
    // carried any data block. Σ over classes stays exactly one op and
    // (1 + entries) * block_size bytes per flush.
    uint64_t class_bytes[obs::kIoSourceCount] = {};
    obs::IoSource op_source = obs::IoSource::kForegroundMeta;
    bool any_data = false;
    for (obs::IoSource source : entry_sources_) {
      class_bytes[static_cast<size_t>(source)] += sb_.block_size;
      if (source == obs::IoSource::kForegroundData) {
        any_data = true;
      } else if (static_cast<uint8_t>(source) > static_cast<uint8_t>(op_source)) {
        op_source = source;
      }
    }
    if (op_source == obs::IoSource::kForegroundMeta && any_data) {
      op_source = obs::IoSource::kForegroundData;
    }
    class_bytes[static_cast<size_t>(op_source)] += sb_.block_size;  // Summary.
    obs::RecordWriteOp(op_source);
    for (size_t i = 0; i < obs::kIoSourceCount; ++i) {
      if (class_bytes[i] != 0) {
        obs::RecordWriteBytes(static_cast<obs::IoSource>(i), class_bytes[i]);
      }
    }
  }
  last_flush_.clear();
  last_flush_.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    last_flush_.push_back(FlushedBlock{
        sb_.SegmentBlockSector(segment_, start_offset_ + 1 + static_cast<uint32_t>(i)),
        entries_[i].block_crc});
  }
  start_offset_ += 1 + static_cast<uint32_t>(entries_.size());
  entries_.clear();
  entry_sources_.clear();
  buffer_.clear();
  return OkStatus();
}

}  // namespace logfs
