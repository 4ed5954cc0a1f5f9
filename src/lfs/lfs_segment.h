// Segment summary blocks and the partial-segment builder (paper 4.3.1).
//
// Every batch of blocks LFS writes — a "partial segment" — is laid out as a
// summary block followed by the content blocks, and hits the disk as a
// single sequential transfer. The summary identifies each content block
// (file, offset, inode-map version at write time), carries a monotonically
// increasing log sequence number used by roll-forward recovery, and a CRC
// computed over the summary AND all content bytes so that a torn write
// invalidates the whole partial segment atomically.
#ifndef LOGFS_SRC_LFS_LFS_SEGMENT_H_
#define LOGFS_SRC_LFS_LFS_SEGMENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/block_device.h"
#include "src/fsbase/fs_types.h"
#include "src/lfs/lfs_format.h"
#include "src/obs/space_observatory.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

// What a content block holds. The paper's summary identifies "the file
// number of the block's file and the position of the block within the
// file"; we additionally distinguish the metadata block types that share
// the log.
enum class BlockKind : uint8_t {
  kData = 1,        // File or directory data; offset = file block index.
  kIndirect = 2,    // Indirect pointer block; offset = indirect slot index.
  kInodeBlock = 3,  // Packed inodes (lfs_inode_map.h defines the layout).
  kImap = 4,        // Inode-map block; offset = imap block index.
  kSegUsage = 5,    // Segment-usage block; offset = usage block index.
  kMetaLog = 6,     // Directory-operation log (frees) for roll-forward.
};

struct SummaryEntry {
  BlockKind kind = BlockKind::kData;
  uint32_t ino = 0;      // Owning file for kData/kIndirect; 0 for metadata.
  uint32_t version = 0;  // Inode-map version of `ino` when written.
  int64_t offset = 0;    // Meaning depends on kind (see above).
  // CRC32 of this entry's content block alone. The partial-segment CRC
  // detects torn writes atomically; the per-block CRC localizes silent
  // corruption to one block, so readers can verify a single ReadBlockAt and
  // the cleaner/scrubber can salvage the intact blocks of a damaged partial.
  uint32_t block_crc = 0;
};

struct SegmentSummary {
  uint64_t seq = 0;        // Log sequence number of this partial segment.
  double timestamp = 0.0;  // SimClock time of the write.
  std::vector<SummaryEntry> entries;
};

// Max content blocks a single partial segment can describe.
size_t SummaryCapacity(uint32_t block_size);

// Encodes `summary` into the summary block and stamps two CRCs: a header
// CRC over the fixed header fields (so PeekSummary never trusts a garbage
// header) and a full CRC computed over the block (full-CRC field zeroed)
// plus `content` (the concatenated content blocks, in entry order).
// Per-entry block_crc values are written as given — the caller (normally
// SegmentBuilder::Flush) is responsible for computing them.
Status EncodeSummary(const SegmentSummary& summary, std::span<std::byte> block,
                     std::span<const std::byte> content);

// Header fields readable without the content. The header carries its own
// CRC, which Peek validates — so a "peek" cannot be fooled by random bytes
// that happen to start with the magic — but the content CRCs are not
// checked. Used by roll-forward to size the content read and to skip stale
// partials.
struct SummaryPeek {
  uint64_t seq = 0;
  uint32_t nblocks = 0;
};
Result<SummaryPeek> PeekSummary(std::span<const std::byte> block, uint32_t block_size);

// Full decode with CRC validation against the content bytes.
Result<SegmentSummary> DecodeSummary(std::span<const std::byte> block,
                                     std::span<const std::byte> content);

// Decode WITHOUT validating the CRC over the content: the entry table alone,
// which the header CRC vouches for only in length. For readers that must
// name the blocks of a partial whose content is missing or damaged: the
// mount-time CRC index (it reads summary blocks only, and the per-entry
// block CRCs it collects are what later verifies the content), and the
// scrubber and salvage, which check each entry's block CRC on its own. Also
// the crash-state explorer's injected "recovery trusts torn partial
// segments" bug (LfsFileSystem::Options::unsafe_skip_rollforward_crc).
Result<SegmentSummary> DecodeSummaryUnchecked(std::span<const std::byte> block);

// The chain rule, the one place it is written down. The partial segments of
// a segment form a chain: a summary sits at block 0, its `nblocks` content
// blocks follow, and the next summary comes right after them. The chain ends
// at the first block that is not a valid summary header (unreadable, or
// PeekSummary rejects it), or whose partial would overrun the segment. In
// kProbe mode — the scrubber and salvage, which read damaged segments — the
// walk instead steps one block on and keeps looking, since the chain may
// resume past the damage.
//
// The walk vouches for headers only. A caller that finds a partial's entry
// table or content bad either leaves the loop, ending the chain there, or
// goes on, which steps over the whole partial (the header CRC covers
// `nblocks`, so the partial's extent is trustworthy).
enum class ChainMode : uint8_t { kStrict, kProbe };

class SummaryChain {
 public:
  // Walks an in-memory image of a whole segment.
  SummaryChain(std::span<const std::byte> image, uint32_t block_size, ChainMode mode);
  // Walks segment `segment` on `device`, reading one summary block per step
  // and never any content.
  SummaryChain(BlockDevice* device, const LfsSuperblock& sb, uint32_t segment, ChainMode mode);

  // Moves to the next partial; false once the chain has ended.
  bool Next();

  // The current partial: the block offset of its summary within the
  // segment (content block i sits at offset() + 1 + i), its header, and its
  // summary block.
  uint32_t offset() const { return offset_; }
  const SummaryPeek& peek() const { return peek_; }
  std::span<const std::byte> summary_block() const;
  // The current partial's content blocks. In-memory image only.
  std::span<const std::byte> content() const;

 private:
  std::span<const std::byte> image_;  // Empty when reading from a device.
  BlockDevice* device_ = nullptr;
  uint64_t first_sector_ = 0;  // The segment's, on the device.
  uint32_t block_size_;
  uint32_t blocks_;  // Per segment.
  ChainMode mode_;
  uint32_t offset_ = 0;
  uint32_t next_ = 0;  // Where the next summary is looked for.
  SummaryPeek peek_;
  std::vector<std::byte> buffer_;  // The summary block read from the device.
};

// Reads segment `segment` into `image` (segment_size bytes) in one transfer.
// If that fails with anything but a crash, re-reads the segment block by
// block and zero-fills each block that stays unreadable: a zeroed block
// fails its checksum unless its content really was zeros, in which case
// nothing was lost. Returns the unreadable-block mask: empty when the one
// transfer succeeded, otherwise one flag per block of the segment.
Result<std::vector<bool>> ReadSegmentImage(BlockDevice* device, const LfsSuperblock& sb,
                                           uint32_t segment, std::span<std::byte> image);

// Assembles partial segments in memory and writes each as one transfer.
class SegmentBuilder {
 public:
  SegmentBuilder(BlockDevice* device, const LfsSuperblock& sb);

  // Positions the builder at (segment, block offset). Requires no pending
  // blocks.
  void StartAt(uint32_t segment, uint32_t offset);

  uint32_t segment() const { return segment_; }
  // Block offset the *next* partial segment would start at.
  uint32_t next_offset() const {
    return pending() == 0 ? start_offset_
                          : start_offset_ + 1 + static_cast<uint32_t>(entries_.size());
  }
  uint32_t pending() const { return static_cast<uint32_t>(entries_.size()); }

  // True if one more content block fits in this partial segment (summary
  // capacity and segment boundary respected).
  bool CanAppend() const;
  // True if the segment has room for a fresh partial segment (summary + 1).
  bool SegmentHasRoom() const;

  // Appends a copy of one content block to the pending partial; returns its
  // assigned disk address. The caller must have checked CanAppend().
  Result<DiskAddr> Append(BlockKind kind, uint32_t ino, uint32_t version, int64_t offset,
                          std::span<const std::byte> data);

  // Appends a block whose content will be filled in *after* the append but
  // before Flush (used for segment-usage blocks, whose contents depend on
  // the addresses this very append assigns). `*buffer` stays valid until
  // Flush or the next StartAt.
  Result<DiskAddr> AppendDeferred(BlockKind kind, uint32_t ino, uint32_t version, int64_t offset,
                                  std::span<std::byte>* buffer);

  // Writes the pending partial segment as one sequential transfer and
  // advances past it. No-op when nothing is pending. Computes each entry's
  // block_crc from its staged block immediately before encoding.
  Status Flush(uint64_t seq, double timestamp);

  // Provenance context for write attribution (DESIGN.md §6j). The file
  // system stamps this before every append; a foreground context classifies
  // each entry by its BlockKind (kData -> fg_data, metadata kinds ->
  // fg_meta), any other context claims the entry outright. Flush charges
  // the device-write op and the summary block to the partial's dominant
  // class and splits content bytes per entry, so the exact-sum invariant
  // holds however classes mix within one partial.
  void set_io_context(obs::IoSource context) { io_context_ = context; }
  obs::IoSource io_context() const { return io_context_; }

  // Address and content CRC of every content block the last successful
  // Flush wrote, in log order. The file system folds these into its
  // in-memory CRC index so reads can verify without re-decoding summaries.
  struct FlushedBlock {
    DiskAddr addr = 0;
    uint32_t crc = 0;
  };
  const std::vector<FlushedBlock>& last_flush() const { return last_flush_; }

 private:
  // Provenance of one pending entry under the context active at append time
  // (see set_io_context).
  obs::IoSource EntrySource(BlockKind kind) const {
    if (io_context_ != obs::IoSource::kForegroundData) {
      return io_context_;
    }
    return kind == BlockKind::kData ? obs::IoSource::kForegroundData
                                    : obs::IoSource::kForegroundMeta;
  }

  BlockDevice* device_;
  LfsSuperblock sb_;
  uint32_t segment_ = 0;
  uint32_t start_offset_ = 0;  // Where the pending partial segment begins.
  std::vector<SummaryEntry> entries_;
  obs::IoSource io_context_ = obs::IoSource::kForegroundData;
  // Parallel to entries_ (maintained only with metrics enabled): the
  // provenance class captured when each entry was appended.
  std::vector<obs::IoSource> entry_sources_;
  // The pending partial's content blocks, in entry order: the partial goes
  // to the device as {summary_block_, buffer_}. Reserved to the full
  // segment size up front and never allowed to reallocate: the spans
  // AppendDeferred hands out point into it.
  std::vector<std::byte> buffer_;
  std::vector<std::byte> summary_block_;
  std::vector<FlushedBlock> last_flush_;
  size_t capacity_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_SEGMENT_H_
