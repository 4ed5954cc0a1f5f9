#include "src/lfs/lfs_cleaner.h"

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
  // The survivors need clean segments to land in (paper §4.3). Keep victims
  // only while their live bytes fit in all but one of the clean segments,
  // so a pass can never wrap the log mid-relocation.
  const LfsSuperblock& sb = fs_->sb_;
  const uint32_t clean = fs_->CleanSegmentCount();
  uint64_t room = clean > 1 ? (clean - 1) * (sb.segment_size - 2ull * sb.block_size) : 0;
  size_t fit = 0;
  for (; fit < victims.size(); ++fit) {
    const uint32_t live = fs_->usage_.Get(victims[fit]).live_bytes;
    if (live > room) {
      break;
    }
    room -= live;
  }
  victims.resize(fit);
  if (victims.empty()) {
    return uint32_t{0};
  }
  fs_->in_cleaner_ = true;
  const LfsFileSystem::CleanerStats before = fs_->cleaner_stats_;
  // A pass that makes room for a traced op is that op's cleaner time.
  obs::SpanTimer span(fs_->clock_, "cleaner", "pass", fs_->OpSpanParent());
  span.AddArg("victims", std::to_string(victims.size()));
  Result<uint32_t> result = [&]() -> Result<uint32_t> {
    ++fs_->cleaner_stats_.passes;

    std::vector<std::byte> image;
    for (uint32_t seg : victims) {
      // The usage table says nothing here is live, and no clamp has cast
      // doubt on it: there is nothing to stage, so skip the read (paper
      // §4.3.4). The checkpoint below still commits the segment.
      const SegUsage& usage = fs_->usage_.Get(seg);
      if (usage.live_bytes == 0 && !usage.live_clamped) {
        continue;
      }
      image.resize(sb.segment_size);
      // Media trouble switches this victim to the tolerant salvage walk.
      ASSIGN_OR_RETURN(const std::vector<bool> unreadable,
                       ReadSegmentImage(fs_->device_, sb, seg, image));
      ++fs_->cleaner_stats_.segment_reads;
      RETURN_IF_ERROR(GatherLive(seg, image, /*salvage=*/!unreadable.empty()));
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
  for (SummaryChain chain(image, bs, salvage ? ChainMode::kProbe : ChainMode::kStrict);
       chain.Next();) {
    const std::span<const std::byte> content = chain.content();
    Result<SegmentSummary> summary = DecodeSummary(chain.summary_block(), content);
    const bool per_block_verify = !summary.ok();
    if (per_block_verify) {
      if (!salvage) {
        break;  // The write path's notion of where the valid chain ends.
      }
      // Torn or damaged partial: trust only the content blocks whose own
      // checksum matches their summary entry. Blocks that fail stay put —
      // the checkpoint's residue accounting quarantines the segment.
      summary = DecodeSummaryUnchecked(chain.summary_block());
      if (!summary.ok()) {
        continue;
      }
    }
    for (size_t i = 0; i < summary->entries.size(); ++i) {
      const SummaryEntry& entry = summary->entries[i];
      const DiskAddr addr =
          sb.SegmentBlockSector(seg, chain.offset() + 1 + static_cast<uint32_t>(i));
      const std::span<const std::byte> block = content.subspan(i * bs, bs);
      ++fs_->cleaner_stats_.blocks_examined;
      if (fs_->cpu_ != nullptr) {
        fs_->ChargeCpu(fs_->cpu_->costs().per_block_instructions);
      }
      if (per_block_verify && Crc32(block) != entry.block_crc) {
        continue;  // Unsalvageable: the block no longer matches its summary.
      }
      if (entry.kind == BlockKind::kInodeBlock) {
        RETURN_IF_ERROR(StageLiveInodes(addr, block));
        continue;
      }
      ASSIGN_OR_RETURN(bool live, fs_->IsBlockLive(entry, addr));
      if (!live) {
        continue;
      }
      // Stage it so the checkpoint or the normal write-back relocates it.
      const uint64_t offset = static_cast<uint64_t>(entry.offset);
      if (entry.kind == BlockKind::kImap) {
        fs_->imap_.MarkBlockDirty(static_cast<uint32_t>(offset));
      } else if (entry.kind == BlockKind::kSegUsage) {
        fs_->usage_.MarkBlockDirty(static_cast<uint32_t>(offset));
      } else {  // Data or indirect: IsBlockLive calls no meta-log block live.
        const uint64_t object = entry.kind == BlockKind::kData
                                    ? LfsFileSystem::DataObject(entry.ino)
                                    : LfsFileSystem::IndirectObject(entry.ino);
        ASSIGN_OR_RETURN(CacheRef ref, fs_->cache_.Install(BlockKey{object, offset}, block));
        fs_->cache_.MarkDirty(ref.get());
      }
      ++fs_->cleaner_stats_.live_blocks_copied;
    }
  }
  return OkStatus();
}

Status LfsCleaner::StageLiveInodes(DiskAddr addr, std::span<const std::byte> block) {
  Result<std::vector<PackedInode>> packed = DecodeInodeBlock(block);
  if (!packed.ok()) {
    return OkStatus();  // Stale bytes that happen to sit under a stale summary.
  }
  for (size_t k = 0; k < packed->size(); ++k) {
    const InodeNum ino = (*packed)[k].ino;
    if (!fs_->imap_.IsValid(ino)) {
      continue;
    }
    const ImapEntry& map_entry = fs_->imap_.Get(ino);
    if (!map_entry.allocated || map_entry.block_addr != addr || map_entry.slot != k) {
      continue;  // This slot is stale; the inode lives elsewhere.
    }
    // Live inode: ensure it is in core and rewrite it.
    ASSIGN_OR_RETURN(LfsFileSystem::CachedInode * ci, fs_->GetInode(ino));
    fs_->SetInodeDirty(ci);
    ++fs_->cleaner_stats_.live_blocks_copied;
  }
  return OkStatus();
}

}  // namespace logfs
