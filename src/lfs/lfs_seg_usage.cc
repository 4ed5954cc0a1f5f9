#include "src/lfs/lfs_seg_usage.h"

#include <algorithm>
#include <cassert>

#include "src/obs/metrics.h"
#include "src/util/serializer.h"

namespace logfs {

SegmentUsageTable::SegmentUsageTable(uint32_t num_segments, uint32_t block_size)
    : num_segments_(num_segments),
      block_size_(block_size),
      entries_per_block_(block_size / kSegUsageEntrySize),
      entries_(num_segments) {
  block_count_ = (num_segments_ + entries_per_block_ - 1) / entries_per_block_;
  dirty_blocks_.assign(block_count_, false);
}

void SegmentUsageTable::AddLive(uint32_t seg, int64_t delta_bytes) {
  assert(seg < num_segments_);
  SegUsage& usage = entries_[seg];
  int64_t next = static_cast<int64_t>(usage.live_bytes) + delta_bytes;
  if (next < 0) {
    // Double-decrement guard: clamp instead of wrapping the uint32 (which
    // would make this segment look maximally live and starve the cleaner of
    // its best victim). Counted so the anomaly stays visible.
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& clamps =
          obs::Registry().GetCounter("logfs.usage.underflow_clamps");
      clamps.Increment();
    }
    next = 0;
    usage.live_clamped = true;
  }
  usage.live_bytes = static_cast<uint32_t>(next);
  MarkDirty(seg);
}

void SegmentUsageTable::SetLive(uint32_t seg, uint32_t live_bytes) {
  assert(seg < num_segments_);
  entries_[seg].live_bytes = live_bytes;
  MarkDirty(seg);
}

void SegmentUsageTable::SetState(uint32_t seg, SegState state) {
  assert(seg < num_segments_);
  entries_[seg].state = state;
  MarkDirty(seg);
}

void SegmentUsageTable::SetWriteSeq(uint32_t seg, uint64_t seq) {
  assert(seg < num_segments_);
  entries_[seg].last_write_seq = seq;
  MarkDirty(seg);
}

void SegmentUsageTable::NoteAllocated(uint32_t seg, double now) {
  assert(seg < num_segments_);
  // Deliberately no MarkDirty: heat is memory-only and must never add a
  // usage block to a checkpoint that would not otherwise carry one.
  SegUsage& usage = entries_[seg];
  usage.allocated_at = now;
  usage.last_overwrite_at = 0.0;
  usage.heat_interval_ewma = 0.0;
  usage.live_clamped = false;
}

void SegmentUsageTable::RecordOverwrite(uint32_t seg, double now) {
  assert(seg < num_segments_);
  SegUsage& usage = entries_[seg];
  if (usage.last_overwrite_at > 0.0) {
    const double interval = now - usage.last_overwrite_at;
    if (interval >= 0.0) {
      usage.heat_interval_ewma =
          usage.heat_interval_ewma == 0.0
              ? interval
              : kHeatAlpha * interval + (1.0 - kHeatAlpha) * usage.heat_interval_ewma;
    }
  }
  usage.last_overwrite_at = now;
}

uint32_t SegmentUsageTable::CountState(SegState state) const {
  uint32_t count = 0;
  for (const SegUsage& usage : entries_) {
    if (usage.state == state) {
      ++count;
    }
  }
  return count;
}

uint64_t SegmentUsageTable::TotalLiveBytes() const {
  uint64_t total = 0;
  for (const SegUsage& usage : entries_) {
    total += usage.live_bytes;
  }
  return total;
}

Result<uint32_t> SegmentUsageTable::PickClean() const {
  for (uint32_t seg = 0; seg < num_segments_; ++seg) {
    if (entries_[seg].state == SegState::kClean) {
      return seg;
    }
  }
  return NotFoundError("no clean segments");
}

std::vector<uint32_t> SegmentUsageTable::PickVictims(uint32_t max_victims,
                                                     uint32_t max_live_bytes,
                                                     VictimPolicy policy) const {
  std::vector<uint32_t> dirty;
  for (uint32_t seg = 0; seg < num_segments_; ++seg) {
    if (entries_[seg].state == SegState::kDirty &&
        entries_[seg].live_bytes < max_live_bytes) {
      dirty.push_back(seg);
    }
  }
  std::sort(dirty.begin(), dirty.end(), [&](uint32_t a, uint32_t b) {
    if (policy == VictimPolicy::kGreedy) {
      if (entries_[a].live_bytes != entries_[b].live_bytes) {
        return entries_[a].live_bytes < entries_[b].live_bytes;
      }
    } else {
      if (entries_[a].last_write_seq != entries_[b].last_write_seq) {
        return entries_[a].last_write_seq < entries_[b].last_write_seq;
      }
    }
    return a < b;
  });
  if (dirty.size() > max_victims) {
    dirty.resize(max_victims);
  }
  return dirty;
}

std::vector<uint32_t> SegmentUsageTable::CommitPendingClean() {
  std::vector<uint32_t> quarantined;
  for (uint32_t seg = 0; seg < num_segments_; ++seg) {
    if (entries_[seg].state != SegState::kCleanPending) {
      continue;
    }
    if (entries_[seg].live_bytes != 0) {
      // Live bytes the cleaning pass could not relocate: keep them charged
      // (the pointers to the lost blocks are still out there) and side-track
      // the segment so it is never reallocated.
      entries_[seg].state = SegState::kQuarantined;
      quarantined.push_back(seg);
    } else {
      entries_[seg].state = SegState::kClean;
    }
    MarkDirty(seg);
  }
  return quarantined;
}

Status SegmentUsageTable::EncodeBlock(uint32_t block_index, std::span<std::byte> out) const {
  if (block_index >= block_count_ || out.size() < block_size_) {
    return InvalidArgumentError("bad usage block encode request");
  }
  BufferWriter writer(out);
  const uint32_t first = block_index * entries_per_block_;
  const uint32_t last = std::min(first + entries_per_block_, num_segments_);
  for (uint32_t seg = first; seg < last; ++seg) {
    const SegUsage& usage = entries_[seg];
    RETURN_IF_ERROR(writer.WriteU32(usage.live_bytes));
    // kActive is a runtime-only state; it persists as kDirty (the segment
    // holds live data and is not clean).
    const SegState persisted =
        usage.state == SegState::kActive ? SegState::kDirty : usage.state;
    RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(persisted)));
    RETURN_IF_ERROR(writer.WriteU64(usage.last_write_seq));
  }
  return writer.WriteZeros(out.size() - writer.offset());
}

Status SegmentUsageTable::DecodeBlock(uint32_t block_index, std::span<const std::byte> in) {
  if (block_index >= block_count_ || in.size() < block_size_) {
    return CorruptedError("bad usage block decode request");
  }
  BufferReader reader(in);
  const uint32_t first = block_index * entries_per_block_;
  const uint32_t last = std::min(first + entries_per_block_, num_segments_);
  for (uint32_t seg = first; seg < last; ++seg) {
    SegUsage usage;
    ASSIGN_OR_RETURN(usage.live_bytes, reader.ReadU32());
    ASSIGN_OR_RETURN(uint32_t state_raw, reader.ReadU32());
    if (state_raw > static_cast<uint32_t>(SegState::kQuarantined)) {
      return CorruptedError("bad segment state");
    }
    usage.state = static_cast<SegState>(state_raw);
    // A kCleanPending state can only persist if the checkpoint that wrote
    // it was itself the cleaning barrier; after a reload it is clean.
    if (usage.state == SegState::kCleanPending) {
      usage.state = SegState::kClean;
      usage.live_bytes = 0;
    }
    ASSIGN_OR_RETURN(usage.last_write_seq, reader.ReadU64());
    entries_[seg] = usage;
  }
  dirty_blocks_[block_index] = false;
  return OkStatus();
}

void SegmentUsageTable::MarkAllDirty() { dirty_blocks_.assign(block_count_, true); }

}  // namespace logfs
