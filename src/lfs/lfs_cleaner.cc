#include "src/lfs/lfs_cleaner.h"

#include <cstring>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/obs/tracer.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace logfs {

Result<uint32_t> LfsCleaner::CleanSegments(uint32_t max_victims) {
  if (fs_->in_cleaner_ || max_victims == 0) {
    return uint32_t{0};  // Re-entrant call from within a cleaning flush.
  }
  const LfsSuperblock& sb = fs_->sb_;
  // Victims must yield space: skip segments that are essentially full
  // (cleaning them costs a segment's worth of writes for no gain).
  const uint32_t max_live = sb.segment_size - 2 * sb.block_size;
  return CleanVictims(
      fs_->usage_.PickVictims(max_victims, max_live, fs_->options_.cleaner_policy));
}

Result<uint32_t> LfsCleaner::CleanVictims(std::vector<uint32_t> victims) {
  if (fs_->in_cleaner_) {
    return uint32_t{0};
  }
  // Only dirty, non-active segments are cleanable; drop the rest.
  std::erase_if(victims, [&](uint32_t seg) {
    return fs_->usage_.Get(seg).state != SegState::kDirty;
  });
  if (victims.empty()) {
    return uint32_t{0};
  }
  fs_->in_cleaner_ = true;
  const LfsFileSystem::CleanerStats before = fs_->cleaner_stats_;
  // A pass that makes room for a traced op is that op's cleaner time.
  obs::SpanTimer span(fs_->clock_, "cleaner", "pass", fs_->OpSpanParent());
  span.AddArg("victims", std::to_string(victims.size()));
  Result<uint32_t> result = [&]() -> Result<uint32_t> {
    const LfsSuperblock& sb = fs_->sb_;
    if (victims.empty()) {
      return uint32_t{0};
    }
    ++fs_->cleaner_stats_.passes;

    std::vector<std::byte> image(sb.segment_size);
    for (uint32_t seg : victims) {
      bool salvage = false;
      Status read = fs_->device_->ReadSectors(sb.SegmentBlockSector(seg, 0), image);
      if (!read.ok()) {
        if (read.code() == ErrorCode::kCrashed) {
          return read;
        }
        // Media trouble: retry block-by-block so one bad sector does not
        // hide the rest of the segment, zero-filling whatever stays
        // unreadable (a zeroed block fails its per-entry checksum unless
        // its content really was zeros, in which case nothing was lost)
        // and switching this victim to the tolerant salvage walk.
        salvage = true;
        const uint32_t bs = sb.block_size;
        for (uint32_t b = 0; b < sb.BlocksPerSegment(); ++b) {
          std::span<std::byte> slot =
              std::span<std::byte>(image).subspan(static_cast<size_t>(b) * bs, bs);
          Status block_read =
              fs_->device_->ReadSectors(sb.SegmentBlockSector(seg, b), slot);
          if (!block_read.ok()) {
            if (block_read.code() == ErrorCode::kCrashed) {
              return block_read;
            }
            std::memset(slot.data(), 0, slot.size());
          }
        }
      }
      ++fs_->cleaner_stats_.segment_reads;
      RETURN_IF_ERROR(GatherLive(seg, image, salvage));
      // Staging live blocks must not exhaust the cache (large segments can
      // hold more live data than the cache does): compact mid-pass once
      // half the cache is dirty.
      if (fs_->cache_.dirty_count() > fs_->cache_.policy().capacity_blocks / 2) {
        RETURN_IF_ERROR(fs_->FlushEverything());
      }
    }
    // Phase two: the normal write-back path compacts the staged blocks.
    RETURN_IF_ERROR(fs_->FlushEverything());
    for (uint32_t seg : victims) {
      if constexpr (obs::kMetricsEnabled) {
        // The victim is retiring from the log: record how long it lived and
        // how hot its data ran before the state (and heat) is recycled.
        const SegUsage& u = fs_->usage_.Get(seg);
        if (u.allocated_at > 0.0) {
          obs::ObserveSegmentAge((fs_->Now() - u.allocated_at) * 1e6);
        }
        if (u.heat_interval_ewma > 0.0) {
          obs::ObserveSegmentHeat(u.heat_interval_ewma * 1e6);
        }
      }
      fs_->usage_.SetState(seg, SegState::kCleanPending);
    }
    // The checkpoint rewrites any imap/usage blocks the cleaner displaced
    // and commits the victims to kClean. Victims it could NOT commit clean
    // (live blocks lost to media damage, so relocation was incomplete)
    // come back quarantined instead; those were not cleaned.
    RETURN_IF_ERROR(fs_->Checkpoint());
    uint32_t cleaned = 0;
    for (uint32_t seg : victims) {
      if (fs_->usage_.Get(seg).state != SegState::kQuarantined) {
        ++cleaned;
      }
    }
    fs_->cleaner_stats_.segments_cleaned += cleaned;
    return cleaned;
  }();
  fs_->in_cleaner_ = false;
  if constexpr (obs::kMetricsEnabled) {
    const LfsFileSystem::CleanerStats& after = fs_->cleaner_stats_;
    static obs::Counter& passes = obs::Registry().GetCounter("logfs.cleaner.passes");
    static obs::Counter& cleaned = obs::Registry().GetCounter("logfs.cleaner.segments_cleaned");
    static obs::Counter& reads = obs::Registry().GetCounter("logfs.cleaner.segment_reads");
    static obs::Counter& examined = obs::Registry().GetCounter("logfs.cleaner.blocks_examined");
    static obs::Counter& copied = obs::Registry().GetCounter("logfs.cleaner.live_blocks_copied");
    passes.Increment(after.passes - before.passes);
    cleaned.Increment(after.segments_cleaned - before.segments_cleaned);
    reads.Increment(after.segment_reads - before.segment_reads);
    examined.Increment(after.blocks_examined - before.blocks_examined);
    copied.Increment(after.live_blocks_copied - before.live_blocks_copied);
    span.AddArg("segments_read", std::to_string(after.segment_reads - before.segment_reads));
    span.AddArg("blocks_examined", std::to_string(after.blocks_examined - before.blocks_examined));
    span.AddArg("live_blocks_copied",
                std::to_string(after.live_blocks_copied - before.live_blocks_copied));
    span.AddArg("ok", result.ok() ? "true" : "false");
    // Derived paper metrics over the cumulative run: u is the observed live
    // fraction of everything the cleaner has examined.
    if (examined.Value() > 0) {
      const double u = static_cast<double>(copied.Value()) /
                       static_cast<double>(examined.Value());
      obs::Registry().GetGauge("logfs.cleaner.utilization").Set(u);
      // PaperWriteCost clamps u -> 1, so the gauge stays finite (and fresh)
      // even when every examined block turned out to be live.
      obs::Registry().GetGauge("logfs.cleaner.write_cost").Set(PaperWriteCost(u));
    }
  }
  return result;
}

Result<uint64_t> LfsCleaner::SalvageSegment(uint32_t seg, std::span<const std::byte> image) {
  const uint64_t before = fs_->cleaner_stats_.live_blocks_copied;
  RETURN_IF_ERROR(GatherLive(seg, image, /*salvage=*/true));
  return fs_->cleaner_stats_.live_blocks_copied - before;
}

Status LfsCleaner::GatherLive(uint32_t seg, std::span<const std::byte> image, bool salvage) {
  const LfsSuperblock& sb = fs_->sb_;
  const uint32_t bs = sb.block_size;
  const uint32_t bps = sb.BlocksPerSegment();
  uint32_t offset = 0;
  while (offset + 1 < bps) {
    std::span<const std::byte> summary_block = image.subspan(offset * bs, bs);
    Result<SummaryPeek> peek = PeekSummary(summary_block, bs);
    if (!peek.ok() || offset + 1 + peek->nblocks > bps) {
      if (!salvage) {
        break;  // End of the valid partial-segment chain.
      }
      ++offset;  // Probe: the chain may resume past the damage.
      continue;
    }
    std::span<const std::byte> content =
        image.subspan((offset + 1) * bs, static_cast<size_t>(peek->nblocks) * bs);
    Result<SegmentSummary> summary = DecodeSummary(summary_block, content);
    bool per_block_verify = false;
    if (!summary.ok()) {
      if (!salvage) {
        break;
      }
      // Torn or damaged partial: trust only the content blocks whose own
      // checksum matches their summary entry. Blocks that fail stay put —
      // the checkpoint's residue accounting quarantines the segment.
      summary = DecodeSummaryUnchecked(summary_block);
      if (!summary.ok()) {
        ++offset;
        continue;
      }
      per_block_verify = true;
    }
    for (size_t i = 0; i < summary->entries.size(); ++i) {
      const SummaryEntry& entry = summary->entries[i];
      const DiskAddr addr = sb.SegmentBlockSector(seg, offset + 1 + static_cast<uint32_t>(i));
      std::span<const std::byte> block = content.subspan(i * bs, bs);
      ++fs_->cleaner_stats_.blocks_examined;
      if (fs_->cpu_ != nullptr) {
        fs_->ChargeCpu(fs_->cpu_->costs().per_block_instructions);
      }
      if (per_block_verify && Crc32(block) != entry.block_crc) {
        continue;  // Unsalvageable: the block no longer matches its summary.
      }
      switch (entry.kind) {
        case BlockKind::kData: {
          if (!fs_->imap_.IsValid(entry.ino)) {
            break;
          }
          const ImapEntry& map_entry = fs_->imap_.Get(entry.ino);
          // Step 1 (fast path): version mismatch means the file was deleted
          // or truncated to zero — the block is dead.
          if (!map_entry.allocated || map_entry.version != entry.version) {
            break;
          }
          // Step 2: consult the inode / indirect blocks.
          ASSIGN_OR_RETURN(LfsFileSystem::CachedInode * ci, fs_->GetInode(entry.ino));
          const Inode inode = ci->inode;
          ASSIGN_OR_RETURN(DiskAddr current,
                           fs_->GetDataBlockAddr(entry.ino, inode,
                                                 static_cast<uint64_t>(entry.offset)));
          if (current != addr) {
            break;  // Superseded by a newer copy.
          }
          // Live: stage it through the cache, dirty, so the normal
          // write-back relocates it.
          const BlockKey key{LfsFileSystem::DataObject(entry.ino),
                             static_cast<uint64_t>(entry.offset)};
          ASSIGN_OR_RETURN(CacheRef ref, fs_->cache_.Install(key, block));
          fs_->cache_.MarkDirty(ref.get());
          ++fs_->cleaner_stats_.live_blocks_copied;
          break;
        }
        case BlockKind::kIndirect: {
          if (!fs_->imap_.IsValid(entry.ino)) {
            break;
          }
          const ImapEntry& map_entry = fs_->imap_.Get(entry.ino);
          if (!map_entry.allocated || map_entry.version != entry.version) {
            break;
          }
          ASSIGN_OR_RETURN(DiskAddr current,
                           fs_->GetIndirectAddr(entry.ino, static_cast<uint64_t>(entry.offset)));
          if (current != addr) {
            break;
          }
          const BlockKey key{LfsFileSystem::IndirectObject(entry.ino),
                             static_cast<uint64_t>(entry.offset)};
          ASSIGN_OR_RETURN(CacheRef ref, fs_->cache_.Install(key, block));
          fs_->cache_.MarkDirty(ref.get());
          ++fs_->cleaner_stats_.live_blocks_copied;
          break;
        }
        case BlockKind::kInodeBlock: {
          Result<std::vector<PackedInode>> packed = DecodeInodeBlock(block);
          if (!packed.ok()) {
            break;  // Stale bytes that happen to sit under a stale summary.
          }
          for (size_t k = 0; k < packed->size(); ++k) {
            const InodeNum ino = (*packed)[k].ino;
            if (!fs_->imap_.IsValid(ino)) {
              continue;
            }
            const ImapEntry& map_entry = fs_->imap_.Get(ino);
            if (!map_entry.allocated || map_entry.block_addr != addr ||
                map_entry.slot != k) {
              continue;  // This slot is stale; the inode lives elsewhere.
            }
            // Live inode: ensure it is in core and rewrite it.
            ASSIGN_OR_RETURN(LfsFileSystem::CachedInode * ci, fs_->GetInode(ino));
            fs_->SetInodeDirty(ci);
            ++fs_->cleaner_stats_.live_blocks_copied;
          }
          break;
        }
        case BlockKind::kImap: {
          const uint32_t index = static_cast<uint32_t>(entry.offset);
          if (index < fs_->imap_block_addrs_.size() &&
              fs_->imap_block_addrs_[index] == addr) {
            // Current inode-map block: force a rewrite at the checkpoint
            // that ends this cleaning pass.
            fs_->imap_.MarkBlockDirty(index);
            ++fs_->cleaner_stats_.live_blocks_copied;
          }
          break;
        }
        case BlockKind::kSegUsage: {
          const uint32_t index = static_cast<uint32_t>(entry.offset);
          if (index < fs_->usage_block_addrs_.size() &&
              fs_->usage_block_addrs_[index] == addr) {
            fs_->usage_.MarkBlockDirty(index);
            ++fs_->cleaner_stats_.live_blocks_copied;
          }
          break;
        }
        case BlockKind::kMetaLog:
          break;  // Meta-log blocks are dead once checkpointed past.
      }
    }
    offset += 1 + peek->nblocks;
  }
  return OkStatus();
}

}  // namespace logfs
