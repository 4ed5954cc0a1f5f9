#include "src/lfs/lfs_file_system.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "src/fsbase/dirent.h"
#include "src/lfs/lfs_blackbox.h"
#include "src/lfs/lfs_cleaner.h"
#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/obs/trace_context.h"
#include "src/obs/tracer.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace logfs {

// Live-byte accounting rules (kept in exact agreement with
// ComputeExactUsage and the checker):
//   * data / indirect blocks:   one full block each;
//   * inode slots:              a fixed quantum q = block_size / slots-per-
//                               inode-block each (an inode block with k live
//                               slots counts k*q live bytes);
//   * imap / usage blocks:      one full block each (rooted in the
//                               checkpoint, relocated on rewrite);
//   * meta-log blocks, summary blocks: zero (dead on arrival; the cleaner
//                               never copies them).

uint32_t LfsFileSystem::InodeLiveQuantum() const {
  return BlockSize() / static_cast<uint32_t>(InodesPerLfsBlock(BlockSize()));
}

// --- Format -------------------------------------------------------------------

Status LfsFileSystem::Format(BlockDevice* device, const LfsParams& params) {
  ASSIGN_OR_RETURN(LfsSuperblock sb, ComputeLfsGeometry(params, device->sector_count()));
  std::vector<std::byte> block(sb.block_size);
  RETURN_IF_ERROR(EncodeLfsSuperblock(sb, block));
  RETURN_IF_ERROR(device->WriteSectors(0, block));
  // Format traffic is attributed to the checkpoint class: it writes exactly
  // the structures a checkpoint owns (superblock + both regions).
  obs::RecordWrite(obs::IoSource::kCheckpoint, block.size());

  // Initial checkpoint: empty file system, log starts at segment 0. All
  // imap/usage block addresses are kNoAddr ("decodes as default state").
  CheckpointRecord ckpt;
  ckpt.sequence = 1;
  ckpt.next_log_seq = 1;
  ckpt.tail_segment = 0;
  ckpt.tail_offset = 0;
  ckpt.next_ino_hint = kRootIno;
  const InodeMap imap_geometry(sb.max_inodes, sb.block_size);
  const SegmentUsageTable usage_geometry(sb.num_segments, sb.block_size);
  ckpt.imap_block_addrs.assign(imap_geometry.block_count(), kNoAddr);
  ckpt.usage_block_addrs.assign(usage_geometry.block_count(), kNoAddr);

  std::vector<std::byte> region(static_cast<size_t>(sb.checkpoint_region_blocks) *
                                sb.block_size);
  RETURN_IF_ERROR(EncodeCheckpoint(ckpt, region));
  if constexpr (obs::kMetricsEnabled) {
    // Seed region A with an empty black-box trailer so that from the very
    // first post-format write stream, at least one region always holds a
    // complete, CRC-valid telemetry ring (the crashsim sweep relies on it).
    obs::TelemetrySampler empty;
    const size_t payload = CheckpointPayloadBytes(ckpt);
    std::vector<std::byte> blob =
        empty.SerializeRing(BlackBoxCapacity(region.size(), payload));
    if (!blob.empty()) {
      (void)EmbedBlackBox(region, payload, blob);
    }
  }
  RETURN_IF_ERROR(
      device->WriteSectors((1ull) * sb.SectorsPerBlock(), region, IoOptions{.synchronous = true}));
  obs::RecordWrite(obs::IoSource::kCheckpoint, region.size());
  // Region B gets sequence 0 content? No — leave it invalid (zeroed) so the
  // first mount picks region A; the first checkpoint then writes B.
  std::vector<std::byte> zeros(region.size(), std::byte{0});
  RETURN_IF_ERROR(device->WriteSectors(
      (1ull + sb.checkpoint_region_blocks) * sb.SectorsPerBlock(), zeros));
  obs::RecordWrite(obs::IoSource::kCheckpoint, zeros.size());

  // Only shard 0 of a sharded volume (or an unsharded volume) hosts the
  // root directory — global ino 1 lives in residue class 0. The other
  // shards start as empty logs; their freshly written region A is already a
  // mountable state.
  if (sb.sharded() && sb.shard_index != 0) {
    return OkStatus();
  }
  // Create the root directory through a throwaway mount; its first
  // checkpoint persists everything.
  Options options;
  options.roll_forward = false;
  ASSIGN_OR_RETURN(auto fs, Mount(device, nullptr, nullptr, options));
  RETURN_IF_ERROR(fs->InitializeRoot());
  return fs->Checkpoint();
}

Status LfsFileSystem::InitializeRoot() {
  if (imap_.Get(kRootIno).allocated) {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(InodeNum ino, imap_.Allocate(kRootIno));
  if (ino != kRootIno) {
    return CorruptedError("root inode number unavailable");
  }
  CachedInode root;
  root.ino = kRootIno;
  root.inode.type = FileType::kDirectory;
  root.inode.nlink = 2;
  root.inode.generation = 1;
  auto [it, inserted] = inodes_.emplace(kRootIno, root);
  (void)inserted;
  SetInodeDirty(&it->second);
  RETURN_IF_ERROR(DirInsert(kRootIno, ".", kRootIno, FileType::kDirectory));
  return DirInsert(kRootIno, "..", kRootIno, FileType::kDirectory);
}

// --- Mount --------------------------------------------------------------------

LfsFileSystem::LfsFileSystem(BlockDevice* device, SimClock* clock, CpuModel* cpu,
                             const LfsSuperblock& sb, Options options)
    : device_(device),
      clock_(clock),
      cpu_(cpu),
      sb_(sb),
      options_(options),
      cache_(sb.block_size, options.cache_policy, clock),
      imap_(sb.max_inodes, sb.block_size, sb.sharded() ? sb.shard_count : 1,
            sb.sharded() ? sb.shard_index : 0),
      usage_(sb.num_segments, sb.block_size),
      builder_(device, sb),
      sampler_(obs::TelemetrySampler::Options{
          .interval_seconds = options.telemetry_interval_seconds,
          .capacity = options.telemetry_capacity}) {
  cache_.set_writeback_handler(this);
  imap_block_addrs_.assign(imap_.block_count(), kNoAddr);
  usage_block_addrs_.assign(usage_.block_count(), kNoAddr);
}

LfsFileSystem::~LfsFileSystem() { (void)Sync(); }

Result<std::unique_ptr<LfsFileSystem>> LfsFileSystem::Mount(BlockDevice* device, SimClock* clock,
                                                            CpuModel* cpu, Options options) {
  std::vector<std::byte> first(4096);
  RETURN_IF_ERROR(device->ReadSectors(0, first));
  ASSIGN_OR_RETURN(LfsSuperblock sb, DecodeLfsSuperblock(first));
  auto fs = std::unique_ptr<LfsFileSystem>(new LfsFileSystem(device, clock, cpu, sb, options));

  // Seed the block-checksum index from the segment summaries before any
  // block is read back, so even the checkpoint's imap/usage reads verify.
  RETURN_IF_ERROR(fs->LoadBlockCrcIndex());

  // Read both checkpoint regions; the valid one with the highest sequence
  // number wins (Section 4.4.1).
  const size_t region_bytes = static_cast<size_t>(sb.checkpoint_region_blocks) * sb.block_size;
  std::vector<std::byte> region(region_bytes);
  Result<CheckpointRecord> best = CorruptedError("no valid checkpoint region");
  int best_region = -1;
  uint64_t max_ring_seq = 0;
  for (int r = 0; r < 2; ++r) {
    const uint64_t sector =
        (1ull + static_cast<uint64_t>(r) * sb.checkpoint_region_blocks) * sb.SectorsPerBlock();
    if (!device->ReadSectors(sector, region).ok()) {
      continue;
    }
    Result<CheckpointRecord> candidate = DecodeCheckpoint(region);
    if (candidate.ok() && (!best.ok() || candidate->sequence > best->sequence)) {
      best = std::move(candidate);
      best_region = r;
    }
    if constexpr (obs::kMetricsEnabled) {
      // Continue the flight recorder's numbering across remounts, else the
      // fresh sampler would restart at seq 1 and lose the "highest seq
      // wins" race against rings written before this mount.
      Result<std::vector<std::byte>> blob = ExtractBlackBox(region);
      if (blob.ok()) {
        Result<obs::TelemetryRing> ring = obs::TelemetryRing::Decode(*blob);
        if (ring.ok()) {
          max_ring_seq = std::max(max_ring_seq, ring->seq);
        }
      }
    }
  }
  if constexpr (obs::kMetricsEnabled) {
    if (max_ring_seq > 0) {
      fs->sampler_.SeedSequence(max_ring_seq + 1);
    }
  }
  if (!best.ok()) {
    return best.status();
  }
  RETURN_IF_ERROR(fs->LoadFromCheckpoint(*best));
  fs->next_ckpt_region_ = best_region == 0 ? 1 : 0;
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().GetCounter("logfs.recovery.mounts").Increment();
    obs::Tracer().RecordInstant("recovery", "checkpoint_select", fs->Now(),
                                {{"region", std::to_string(best_region)},
                                 {"sequence", std::to_string(best->sequence)}});
  }

  if (options.roll_forward) {
    RETURN_IF_ERROR(fs->RollForward());
  }
  if (fs->rolled_forward_partials_ == 0) {
    // Position the log writer at the checkpoint tail. (After a roll-forward
    // the builder already sits past the recovered partials and the recovery
    // checkpoint — rewinding it would overwrite recovered data.)
    fs->builder_.StartAt(best->tail_segment, best->tail_offset);
    fs->usage_.SetState(fs->builder_.segment(), SegState::kActive);
    // Heat baseline for the resumed tail segment (no lifecycle event: a
    // remount continues the segment, it does not allocate one).
    fs->usage_.NoteAllocated(fs->builder_.segment(), fs->Now());
  }
  fs->last_checkpoint_time_ = fs->Now();
  return fs;
}

Status LfsFileSystem::LoadFromCheckpoint(const CheckpointRecord& ckpt) {
  if (ckpt.imap_block_addrs.size() != imap_.block_count() ||
      ckpt.usage_block_addrs.size() != usage_.block_count()) {
    return CorruptedError("checkpoint geometry mismatch");
  }
  std::vector<std::byte> block(BlockSize());
  for (uint32_t i = 0; i < imap_.block_count(); ++i) {
    if (ckpt.imap_block_addrs[i] != kNoAddr) {
      RETURN_IF_ERROR(ReadBlockAt(ckpt.imap_block_addrs[i], block));
      RETURN_IF_ERROR(imap_.DecodeBlock(i, block));
    }
    imap_block_addrs_[i] = ckpt.imap_block_addrs[i];
  }
  for (uint32_t i = 0; i < usage_.block_count(); ++i) {
    if (ckpt.usage_block_addrs[i] != kNoAddr) {
      RETURN_IF_ERROR(ReadBlockAt(ckpt.usage_block_addrs[i], block));
      RETURN_IF_ERROR(usage_.DecodeBlock(i, block));
    }
    usage_block_addrs_[i] = ckpt.usage_block_addrs[i];
  }
  next_log_seq_ = ckpt.next_log_seq;
  checkpoint_seq_ = ckpt.sequence;
  next_ino_hint_ = ckpt.next_ino_hint;
  return OkStatus();
}

// --- Raw device helpers ---------------------------------------------------------

Status LfsFileSystem::ReadBlockAt(DiskAddr addr, std::span<std::byte> out) {
  const double t0 = Now();
  Status read = device_->ReadSectors(addr, out.subspan(0, BlockSize()));
  RecordDiskSpan("disk", "read", t0);
  RETURN_IF_ERROR(read);
  return VerifyBlockChecksum(addr, out.subspan(0, BlockSize()));
}

Status LfsFileSystem::VerifyBlockChecksum(DiskAddr addr, std::span<const std::byte> block) {
  const auto it = block_crcs_.find(addr);
  if (it == block_crcs_.end() || Crc32(block) == it->second) {
    return OkStatus();
  }
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& failures = obs::Registry().GetCounter("logfs.lfs.checksum_failures");
    failures.Increment();
  }
  QuarantineSegment(SegmentOfAddr(addr));
  return CorruptedError("block checksum mismatch (silent corruption)");
}

// --- Per-op latency ------------------------------------------------------------

#ifndef LOGFS_METRICS_DISABLED

namespace {

constexpr const char* kOpNames[] = {"create", "read", "write", "sync", "fsync"};

}  // namespace

LfsFileSystem::OpScope::OpScope(LfsFileSystem* fs, Op op) : fs_(fs), op_(op) {
  if (fs_->op_depth_++ > 0) {
    return;  // Internal reentry: the outermost op owns the time.
  }
  start_ = fs_->Now();
  parent_ = obs::CurrentTraceContext();
  if (parent_.active()) {
    span_id_ = obs::MintSpanId(parent_);
    ambient_.emplace(obs::TraceContext{parent_.trace_id, span_id_});
  }
}

LfsFileSystem::OpScope::~OpScope() {
  if (--fs_->op_depth_ > 0) {
    return;  // Not the outermost op.
  }
  // Resolved once: the registry is process-global.
  static constexpr double kBounds[] = {0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0};
  static const std::array<obs::Histogram*, std::size(kOpNames)> seconds = [] {
    std::array<obs::Histogram*, std::size(kOpNames)> h{};
    for (size_t i = 0; i < h.size(); ++i) {
      h[i] = &obs::Registry().GetHistogram(
          std::string("logfs.op.") + kOpNames[i] + ".seconds", kBounds);
    }
    return h;
  }();
  const size_t i = static_cast<size_t>(op_);
  const double end = fs_->Now();
  seconds[i]->Observe(end - start_);
  if (span_id_ != 0) {
    ambient_.reset();  // Restore the caller's context first.
    obs::Tracer().RecordSpanIds("op", kOpNames[i], start_, end, parent_.trace_id, span_id_,
                                parent_.span_id);
  }
}

obs::TraceContext LfsFileSystem::OpSpanParent() const {
  // A traced OpScope installed its "op" span as the ambient context.
  return op_depth_ > 0 ? obs::CurrentTraceContext() : obs::TraceContext{};
}

bool LfsFileSystem::RecordDiskSpan(const char* category, const char* name, double start) {
  const obs::TraceContext parent = in_cleaner_ ? obs::TraceContext{} : OpSpanParent();
  if (!parent.active()) {
    return false;
  }
  obs::Tracer().RecordSpanIds(category, name, start, Now(), parent.trace_id,
                              obs::MintSpanId(parent), parent.span_id);
  return true;
}

#endif  // LOGFS_METRICS_DISABLED

Status LfsFileSystem::CheckWritable() const {
  if (read_only_) {
    return ReadOnlyError("mount demoted to read-only after checkpoint write failure");
  }
  return OkStatus();
}

void LfsFileSystem::QuarantineSegment(uint32_t seg) {
  const SegState state = usage_.Get(seg).state;
  // The active segment belongs to the builder; its summaries are not stable
  // yet, so a verification miss there is reported to the caller but the
  // segment stays writable.
  if (state == SegState::kQuarantined || state == SegState::kActive) {
    return;
  }
  usage_.SetState(seg, SegState::kQuarantined);
  if constexpr (obs::kMetricsEnabled) {
    obs::RecordSegLifecycle(obs::SegLifecycle::kQuarantined);
    static obs::Counter& quarantined =
        obs::Registry().GetCounter("logfs.lfs.segments_quarantined");
    quarantined.Increment();
    obs::Tracer().RecordInstant("lfs", "quarantine", Now(),
                                {{"segment", std::to_string(seg)}});
  }
}

Status LfsFileSystem::LoadBlockCrcIndex() {
  for (uint32_t seg = 0; seg < sb_.num_segments; ++seg) {
    // Damage just ends a segment's contribution early; the scrubber and the
    // cleaner deal with it.
    for (SummaryChain chain(device_, sb_, seg, ChainMode::kStrict); chain.Next();) {
      // The content CRCs are exactly what this index exists to check later.
      Result<SegmentSummary> summary = DecodeSummaryUnchecked(chain.summary_block());
      if (!summary.ok()) {
        break;
      }
      for (size_t i = 0; i < summary->entries.size(); ++i) {
        block_crcs_[sb_.SegmentBlockSector(seg, chain.offset() + 1 + static_cast<uint32_t>(i))] =
            summary->entries[i].block_crc;
      }
    }
  }
  return OkStatus();
}

void LfsFileSystem::ChargeCpu(uint64_t instructions) {
  if (cpu_ != nullptr) {
    cpu_->ChargeTracked(instructions);
  }
}

// --- In-core inodes --------------------------------------------------------------

Result<LfsFileSystem::CachedInode*> LfsFileSystem::GetInode(InodeNum ino) {
  if (!imap_.IsValid(ino)) {
    return InvalidArgumentError("inode number out of range");
  }
  auto it = inodes_.find(ino);
  if (it != inodes_.end()) {
    return &it->second;
  }
  const ImapEntry& entry = imap_.Get(ino);
  if (!entry.allocated) {
    return NotFoundError("inode not allocated");
  }
  if (entry.block_addr == kNoAddr) {
    return CorruptedError("allocated inode with no on-disk copy");
  }
  std::vector<std::byte> block(BlockSize());
  RETURN_IF_ERROR(ReadBlockAt(entry.block_addr, block));
  ASSIGN_OR_RETURN(std::vector<PackedInode> packed, DecodeInodeBlock(block));
  if (entry.slot >= packed.size()) {
    return CorruptedError("inode slot out of range");
  }
  // Install the requested inode, plus any siblings whose inode-map entry
  // still points at this block (sibling slots may be stale).
  for (size_t k = 0; k < packed.size(); ++k) {
    const InodeNum sibling = packed[k].ino;
    if (!imap_.IsValid(sibling)) {
      continue;
    }
    const ImapEntry& sib_entry = imap_.Get(sibling);
    if (sib_entry.allocated && sib_entry.block_addr == entry.block_addr &&
        sib_entry.slot == k && !inodes_.contains(sibling)) {
      inodes_.emplace(sibling, CachedInode{sibling, packed[k].inode, false});
    }
  }
  it = inodes_.find(ino);
  if (it == inodes_.end()) {
    return CorruptedError("inode block does not contain the expected inode");
  }
  return &it->second;
}

void LfsFileSystem::MarkInodeDirty(InodeNum ino) {
  auto it = inodes_.find(ino);
  assert(it != inodes_.end());
  SetInodeDirty(&it->second);
}

void LfsFileSystem::SetInodeDirty(CachedInode* ci) {
  if (!ci->dirty) {
    ci->dirty = true;
    dirty_inodes_.insert(ci->ino);
  }
}

void LfsFileSystem::SetInodeClean(CachedInode* ci) {
  if (ci->dirty) {
    ci->dirty = false;
    dirty_inodes_.erase(ci->ino);
  }
}

// --- Block mapping ----------------------------------------------------------------

Result<DiskAddr> LfsFileSystem::GetIndirectAddr(InodeNum ino, uint64_t slot) {
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  if (slot == kSingleSlot) {
    return ci->inode.single_indirect;
  }
  if (slot == kDoubleRootSlot) {
    return ci->inode.double_indirect;
  }
  // Leaf: its address lives in the double-indirect root.
  CacheRef root = cache_.AcquireIfPresent(BlockKey{IndirectObject(ino), kDoubleRootSlot});
  if (!root) {
    if (ci->inode.double_indirect == kNoAddr) {
      return kNoAddr;
    }
    ASSIGN_OR_RETURN(root, GetIndirectRef(ino, kDoubleRootSlot, /*create=*/false));
  }
  return ReadIndirectEntry(root->data(), slot - 2);
}

Result<CacheRef> LfsFileSystem::GetIndirectRef(InodeNum ino, uint64_t slot, bool create) {
  const BlockKey key{IndirectObject(ino), slot};
  if (CacheRef ref = cache_.AcquireIfPresent(key)) {
    return ref;
  }
  if (create && slot >= 2) {
    // Materialize the root first so the leaf has a parent to register with.
    ASSIGN_OR_RETURN(CacheRef root, GetIndirectRef(ino, kDoubleRootSlot, /*create=*/true));
  }
  ASSIGN_OR_RETURN(DiskAddr addr, GetIndirectAddr(ino, slot));
  if (addr == kNoAddr) {
    if (!create) {
      return NotFoundError("indirect block does not exist");
    }
    ASSIGN_OR_RETURN(CacheRef fresh, cache_.Create(key));
    cache_.MarkDirty(fresh.get());
    return fresh;
  }
  return cache_.Acquire(key, [&](std::span<std::byte> out) { return ReadBlockAt(addr, out); });
}

Result<DiskAddr> LfsFileSystem::GetDataBlockAddr(InodeNum ino, const Inode& inode,
                                                 uint64_t index) {
  ASSIGN_OR_RETURN(BlockLocation loc, ResolveBlockIndex(index, EntriesPerBlock()));
  switch (loc.level) {
    case BlockLocation::Level::kDirect:
      return inode.direct[loc.direct_index];
    case BlockLocation::Level::kSingleIndirect: {
      if (inode.single_indirect == kNoAddr &&
          !cache_.AcquireIfPresent(BlockKey{IndirectObject(ino), kSingleSlot})) {
        return kNoAddr;
      }
      ASSIGN_OR_RETURN(CacheRef ref, GetIndirectRef(ino, kSingleSlot, /*create=*/false));
      return ReadIndirectEntry(ref->data(), loc.l1_index);
    }
    case BlockLocation::Level::kDoubleIndirect: {
      ASSIGN_OR_RETURN(DiskAddr leaf_addr, GetIndirectAddr(ino, 2 + loc.l1_index));
      if (leaf_addr == kNoAddr &&
          !cache_.AcquireIfPresent(BlockKey{IndirectObject(ino), 2 + loc.l1_index})) {
        return kNoAddr;
      }
      ASSIGN_OR_RETURN(CacheRef leaf, GetIndirectRef(ino, 2 + loc.l1_index, /*create=*/false));
      return ReadIndirectEntry(leaf->data(), loc.l2_index);
    }
  }
  return CorruptedError("unreachable block level");
}

Result<DiskAddr> LfsFileSystem::SetDataBlockAddr(InodeNum ino, uint64_t index,
                                                 DiskAddr new_addr) {
  ASSIGN_OR_RETURN(BlockLocation loc, ResolveBlockIndex(index, EntriesPerBlock()));
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  switch (loc.level) {
    case BlockLocation::Level::kDirect: {
      const DiskAddr old = ci->inode.direct[loc.direct_index];
      ci->inode.direct[loc.direct_index] = new_addr;
      SetInodeDirty(ci);
      return old;
    }
    case BlockLocation::Level::kSingleIndirect: {
      ASSIGN_OR_RETURN(CacheRef ref, GetIndirectRef(ino, kSingleSlot, /*create=*/true));
      const DiskAddr old = ReadIndirectEntry(ref->data(), loc.l1_index);
      WriteIndirectEntry(ref->mutable_data(), loc.l1_index, new_addr);
      cache_.MarkDirty(ref.get());
      return old;
    }
    case BlockLocation::Level::kDoubleIndirect: {
      ASSIGN_OR_RETURN(CacheRef leaf, GetIndirectRef(ino, 2 + loc.l1_index, /*create=*/true));
      const DiskAddr old = ReadIndirectEntry(leaf->data(), loc.l2_index);
      WriteIndirectEntry(leaf->mutable_data(), loc.l2_index, new_addr);
      cache_.MarkDirty(leaf.get());
      return old;
    }
  }
  return CorruptedError("unreachable block level");
}

Result<DiskAddr> LfsFileSystem::SetIndirectAddr(InodeNum ino, uint64_t slot, DiskAddr new_addr) {
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  if (slot == kSingleSlot) {
    const DiskAddr old = ci->inode.single_indirect;
    ci->inode.single_indirect = new_addr;
    SetInodeDirty(ci);
    return old;
  }
  if (slot == kDoubleRootSlot) {
    const DiskAddr old = ci->inode.double_indirect;
    ci->inode.double_indirect = new_addr;
    SetInodeDirty(ci);
    return old;
  }
  ASSIGN_OR_RETURN(CacheRef root, GetIndirectRef(ino, kDoubleRootSlot, /*create=*/true));
  const DiskAddr old = ReadIndirectEntry(root->data(), slot - 2);
  WriteIndirectEntry(root->mutable_data(), slot - 2, new_addr);
  cache_.MarkDirty(root.get());
  return old;
}

Result<CacheRef> LfsFileSystem::GetFileBlock(InodeNum ino, const Inode& inode, uint64_t index,
                                             bool create) {
  const BlockKey key{DataObject(ino), index};
  if (CacheRef ref = cache_.AcquireIfPresent(key)) {
    return ref;
  }
  ASSIGN_OR_RETURN(DiskAddr addr, GetDataBlockAddr(ino, inode, index));
  if (addr == kNoAddr) {
    if (!create) {
      // Hole: materialize a zero block in the cache (clean — reading a hole
      // must not cause log writes).
      return cache_.Create(key);
    }
    ASSIGN_OR_RETURN(CacheRef fresh, cache_.Create(key));
    return fresh;
  }
  if (!create && options_.read_ahead_blocks > 0) {
    return ReadBlockRun(ino, inode, index, addr);
  }
  return cache_.Acquire(key, [&](std::span<std::byte> out) { return ReadBlockAt(addr, out); });
}

Result<CacheRef> LfsFileSystem::ReadBlockRun(InodeNum ino, const Inode& inode, uint64_t index,
                                             DiskAddr addr) {
  // Extend the run while the next file block sits right after this one on
  // disk; the log layout makes whole-file runs the common case ("the log
  // layout algorithm places the data blocks sequentially on disk",
  // Section 4.2.1).
  const uint32_t spb = sb_.SectorsPerBlock();
  uint32_t run = 1;
  while (run <= options_.read_ahead_blocks) {
    Result<DiskAddr> next = GetDataBlockAddr(ino, inode, index + run);
    if (!next.ok() || *next != addr + static_cast<uint64_t>(run) * spb) {
      break;
    }
    if (cache_.AcquireIfPresent(BlockKey{DataObject(ino), index + run})) {
      break;  // Already cached (possibly dirty): do not clobber.
    }
    ++run;
  }
  // Create the run's cache blocks up front (read-ahead blocks first, then
  // the target, matching the legacy fill order) and scatter the single
  // transfer straight into their storage — no bounce buffer.
  std::vector<CacheRef> ahead;
  ahead.reserve(run);
  for (uint32_t k = 1; k < run; ++k) {
    ASSIGN_OR_RETURN(CacheRef ref, cache_.Create(BlockKey{DataObject(ino), index + k}));
    ahead.push_back(std::move(ref));
  }
  ASSIGN_OR_RETURN(CacheRef main, cache_.Create(BlockKey{DataObject(ino), index}));
  std::vector<std::span<std::byte>> bufs;
  bufs.reserve(run);
  bufs.push_back(main->mutable_data());  // Disk order: the target block is first.
  for (CacheRef& ref : ahead) {
    bufs.push_back(ref->mutable_data());
  }
  const double read_start = Now();
  Status read = device_->ReadSectorsV(addr, bufs);
  RecordDiskSpan("disk", "read", read_start);
  if (read.ok()) {
    // Verify the whole run: bufs[0] is the target at `addr`, bufs[k] the
    // k-th read-ahead block right after it on disk.
    for (uint32_t k = 0; k < run && read.ok(); ++k) {
      read = VerifyBlockChecksum(addr + static_cast<uint64_t>(k) * spb, bufs[k]);
    }
  }
  if (!read.ok()) {
    // Drop the half-filled blocks so a later retry re-reads the device.
    main.Release();
    cache_.InvalidateBlock(BlockKey{DataObject(ino), index});
    for (uint32_t k = 1; k < run; ++k) {
      ahead[k - 1].Release();
      cache_.InvalidateBlock(BlockKey{DataObject(ino), index + k});
    }
    return read;
  }
  return main;
}

// --- Log appending ----------------------------------------------------------------

Status LfsFileSystem::AdvanceSegment() {
  const uint32_t old_segment = builder_.segment();
  if (usage_.Get(old_segment).state == SegState::kActive) {
    usage_.SetState(old_segment, SegState::kDirty);
    if constexpr (obs::kMetricsEnabled) {
      obs::RecordSegLifecycle(obs::SegLifecycle::kSealed);
      const double allocated_at = usage_.Get(old_segment).allocated_at;
      if (allocated_at > 0.0) {
        obs::ObserveSegmentAge((Now() - allocated_at) * 1e6);
      }
    }
  }
  Result<uint32_t> next = usage_.PickClean();
  if (!next.ok()) {
    return NoSpaceError("log wrapped: no clean segments");
  }
  usage_.SetState(*next, SegState::kActive);
  usage_.NoteAllocated(*next, Now());
  if constexpr (obs::kMetricsEnabled) {
    obs::RecordSegLifecycle(obs::SegLifecycle::kAllocated);
  }
  builder_.StartAt(*next, 0);
  return OkStatus();
}

Status LfsFileSystem::EnsureAppendRoom() {
  if (!builder_.CanAppend()) {
    RETURN_IF_ERROR(FlushPartial());
    if (!builder_.SegmentHasRoom()) {
      RETURN_IF_ERROR(AdvanceSegment());
    }
  }
  return OkStatus();
}

Result<DiskAddr> LfsFileSystem::AppendToLog(BlockKind kind, uint32_t ino, uint32_t version,
                                            int64_t offset, std::span<const std::byte> data) {
  RETURN_IF_ERROR(EnsureAppendRoom());
  builder_.set_io_context(CurrentIoContext());
  ASSIGN_OR_RETURN(DiskAddr addr, builder_.Append(kind, ino, version, offset, data));
  usage_.SetWriteSeq(builder_.segment(), next_log_seq_);
  return addr;
}

Result<DiskAddr> LfsFileSystem::AppendToLogDeferred(BlockKind kind, uint32_t ino,
                                                    uint32_t version, int64_t offset,
                                                    std::span<std::byte>* buffer) {
  RETURN_IF_ERROR(EnsureAppendRoom());
  builder_.set_io_context(CurrentIoContext());
  ASSIGN_OR_RETURN(DiskAddr addr, builder_.AppendDeferred(kind, ino, version, offset, buffer));
  usage_.SetWriteSeq(builder_.segment(), next_log_seq_);
  return addr;
}

Status LfsFileSystem::FlushPartial() {
  if (builder_.pending() == 0) {
    return OkStatus();
  }
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().segment_build_per_block * builder_.pending());
  }
  const double flush_start = Now();
  Status flushed = builder_.Flush(next_log_seq_++, flush_start);
  const bool traced = RecordDiskSpan("segwriter", "flush", flush_start);
  RETURN_IF_ERROR(flushed);
  // Fold the write-time checksums into the read-verification index.
  for (const SegmentBuilder::FlushedBlock& fb : builder_.last_flush()) {
    block_crcs_[fb.addr] = fb.crc;
  }
  if constexpr (obs::kMetricsEnabled) {
    static constexpr double kLatencyBounds[] = {0.0001, 0.001, 0.01, 0.05, 0.1, 0.5};
    static obs::Histogram& latency =
        obs::Registry().GetHistogram("logfs.segwriter.flush_seconds", kLatencyBounds);
    latency.Observe(Now() - flush_start);
    if (!traced) {
      obs::Tracer().RecordSpan("segwriter", "flush", flush_start, Now());
    }
  }
  return OkStatus();
}

void LfsFileSystem::AccountReplace(DiskAddr old_addr, DiskAddr new_addr, uint32_t bytes) {
  if (old_addr != kNoAddr) {
    AccountBlockDeath(old_addr, bytes);
  }
  if (new_addr != kNoAddr) {
    usage_.AddLive(SegmentOfAddr(new_addr), bytes);
  }
}

void LfsFileSystem::AccountBlockDeath(DiskAddr addr, uint32_t bytes) {
  const uint32_t seg = SegmentOfAddr(addr);
  usage_.AddLive(seg, -static_cast<int64_t>(bytes));
  // Heat tracks *workload* overwrite cadence; cleaner relocation kills the
  // old copy too, but that death says nothing about how hot the data is.
  if (!in_cleaner_) {
    usage_.RecordOverwrite(seg, Now());
  }
}

void LfsFileSystem::CollectSegmentUtilization(std::vector<double>* out) const {
  // The paper's Fig. 3 as a live metric: utilization of every segment that
  // currently holds log data. Clean segments are empty by definition and
  // quarantined ones are out of service, so neither belongs on the curve.
  const double capacity =
      static_cast<double>(sb_.BlocksPerSegment()) * BlockSize();
  for (uint32_t seg = 0; seg < sb_.num_segments; ++seg) {
    const SegUsage& u = usage_.Get(seg);
    if (u.state == SegState::kClean || u.state == SegState::kQuarantined) {
      continue;
    }
    out->push_back(static_cast<double>(u.live_bytes) / capacity);
  }
}

void LfsFileSystem::PublishSpaceTelemetry() {
  if constexpr (!obs::kMetricsEnabled) {
    return;
  }
  std::vector<double> utils;
  utils.reserve(sb_.num_segments);
  CollectSegmentUtilization(&utils);
  obs::PublishUtilization(utils);
}

// --- Write-back machinery -----------------------------------------------------------

Status LfsFileSystem::WriteBack(std::span<CacheBlock* const> blocks) {
  // Phase 1: file/directory data blocks. The cache hands them over sorted
  // by (object, index), so each file's blocks land contiguously in the
  // segment — the layout property that makes LFS reads fast.
  for (CacheBlock* block : blocks) {
    if (block->key().object_id & kIndirectFlag) {
      continue;  // Phase 2.
    }
    const InodeNum ino = static_cast<InodeNum>(block->key().object_id);
    const uint64_t index = block->key().index;
    if (!imap_.Get(ino).allocated) {
      // The file vanished between dirtying and flushing; its cache blocks
      // should have been invalidated.
      return CorruptedError("dirty block for unallocated inode");
    }
    const uint32_t version = imap_.Get(ino).version;
    ASSIGN_OR_RETURN(DiskAddr addr, AppendToLog(BlockKind::kData, ino, version,
                                                static_cast<int64_t>(index), block->data()));
    ASSIGN_OR_RETURN(DiskAddr old, SetDataBlockAddr(ino, index, addr));
    AccountReplace(old, addr, BlockSize());
    // Mark clean immediately so the cache has evictable blocks while the
    // rest of the flush proceeds (the cache re-marks the batch clean after
    // we return; MarkClean is idempotent).
    cache_.MarkClean(block);
  }
  RETURN_IF_ERROR(FlushDirtyIndirect());
  RETURN_IF_ERROR(FlushDirtyInodes());
  RETURN_IF_ERROR(FlushPendingFrees());
  return FlushPartial();
}

Status LfsFileSystem::FlushDirtyIndirect() {
  // Leaves (slot >= 2) first: appending a leaf updates the double-indirect
  // root, which must therefore be appended after all its leaves.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<CacheBlock*> dirty = cache_.DirtyBlocks();
    for (CacheBlock* block : dirty) {
      if (!(block->key().object_id & kIndirectFlag)) {
        continue;
      }
      const uint64_t slot = block->key().index;
      const bool is_leaf = slot >= 2;
      if ((pass == 0) != is_leaf) {
        continue;
      }
      const InodeNum ino = static_cast<InodeNum>(block->key().object_id & 0xFFFFFFFFu);
      if (!imap_.Get(ino).allocated) {
        return CorruptedError("dirty indirect block for unallocated inode");
      }
      const uint32_t version = imap_.Get(ino).version;
      ASSIGN_OR_RETURN(DiskAddr addr, AppendToLog(BlockKind::kIndirect, ino, version,
                                                  static_cast<int64_t>(slot), block->data()));
      ASSIGN_OR_RETURN(DiskAddr old, SetIndirectAddr(ino, slot, addr));
      AccountReplace(old, addr, BlockSize());
      cache_.MarkClean(block);
    }
  }
  return OkStatus();
}

Status LfsFileSystem::FlushDirtyInodes() {
  if (dirty_inodes_.empty()) {
    return OkStatus();
  }
  // A copy: SetInodeClean below shrinks the set.
  const std::vector<InodeNum> dirty(dirty_inodes_.begin(), dirty_inodes_.end());
  const size_t per_block = InodesPerLfsBlock(BlockSize());
  const uint32_t quantum = InodeLiveQuantum();
  for (size_t start = 0; start < dirty.size(); start += per_block) {
    const size_t count = std::min(per_block, dirty.size() - start);
    std::vector<PackedInode> packed(count);
    for (size_t k = 0; k < count; ++k) {
      const InodeNum ino = dirty[start + k];
      packed[k].ino = ino;
      packed[k].version = imap_.Get(ino).version;
      packed[k].inode = inodes_.at(ino).inode;
    }
    // Encode straight into the builder's staging block.
    std::span<std::byte> block;
    ASSIGN_OR_RETURN(DiskAddr addr, AppendToLogDeferred(BlockKind::kInodeBlock, 0, 0, 0, &block));
    RETURN_IF_ERROR(EncodeInodeBlock(packed, block));
    for (size_t k = 0; k < count; ++k) {
      const InodeNum ino = dirty[start + k];
      const DiskAddr old = imap_.Get(ino).block_addr;
      AccountReplace(old, addr, quantum);
      imap_.SetLocation(ino, addr, static_cast<uint16_t>(k));
      SetInodeClean(&inodes_.at(ino));
    }
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& blocks = obs::Registry().GetCounter("logfs.imap.inode_blocks_written");
      static obs::Counter& flushed = obs::Registry().GetCounter("logfs.imap.inodes_flushed");
      blocks.Increment();
      flushed.Increment(count);
    }
  }
  return OkStatus();
}

Status LfsFileSystem::FlushPendingFrees() {
  if (pending_frees_.empty()) {
    return OkStatus();
  }
  const size_t per_block = FreeRecordsPerBlock(BlockSize());
  for (size_t start = 0; start < pending_frees_.size(); start += per_block) {
    const size_t count = std::min(per_block, pending_frees_.size() - start);
    std::span<std::byte> block;
    RETURN_IF_ERROR(AppendToLogDeferred(BlockKind::kMetaLog, 0, 0, 0, &block).status());
    RETURN_IF_ERROR(EncodeMetaLogBlock(
        std::span<const FreeRecord>(pending_frees_).subspan(start, count), block));
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& blocks = obs::Registry().GetCounter("logfs.lfs.meta_log_blocks");
      blocks.Increment();
    }
  }
  pending_frees_.clear();
  return OkStatus();
}

Status LfsFileSystem::FlushEverything() {
  RETURN_IF_ERROR(cache_.FlushAll());
  // Cover the cases where no cache blocks were dirty but inodes or frees
  // are pending (e.g. pure truncates).
  RETURN_IF_ERROR(FlushDirtyIndirect());
  RETURN_IF_ERROR(FlushDirtyInodes());
  RETURN_IF_ERROR(FlushPendingFrees());
  return FlushPartial();
}

// --- Checkpoints ---------------------------------------------------------------------

Status LfsFileSystem::WriteCheckpointRegion(const CheckpointRecord& ckpt) {
  std::vector<std::byte> region(static_cast<size_t>(sb_.checkpoint_region_blocks) *
                                BlockSize());
  RETURN_IF_ERROR(EncodeCheckpoint(ckpt, region));
  if constexpr (obs::kMetricsEnabled) {
    // Stow the flight recorder in the region's tail slack: the region is
    // written as one request either way, so the black box costs no I/O.
    const size_t payload = CheckpointPayloadBytes(ckpt);
    std::vector<std::byte> blob =
        sampler_.SerializeRing(BlackBoxCapacity(region.size(), payload));
    if (!blob.empty()) {
      (void)EmbedBlackBox(region, payload, blob);
    }
  }
  auto region_sector = [&](uint32_t r) {
    return (1ull + static_cast<uint64_t>(r) * sb_.checkpoint_region_blocks) *
           sb_.SectorsPerBlock();
  };
  const double ckpt_io_start = Now();
  Status first = device_->WriteSectors(region_sector(next_ckpt_region_), region,
                                       IoOptions{.synchronous = true});
  RecordDiskSpan("disk", "checkpoint_region", ckpt_io_start);
  if (first.ok()) {
    next_ckpt_region_ ^= 1;
    obs::RecordWrite(RegionIoSource(), region.size());
    return OkStatus();
  }
  if (first.code() == ErrorCode::kCrashed) {
    return first;  // Power-off, not media damage: recovery handles it.
  }
  // The chosen region is suspect; fall back to the alternate so the
  // checkpoint still lands somewhere durable. The failed region stays next
  // in the rotation: if it recovers the alternation resumes, and if it is
  // persistently bad every checkpoint retries it and keeps landing here.
  const uint32_t failed = next_ckpt_region_;
  const double failover_start = Now();
  Status second = device_->WriteSectors(region_sector(failed ^ 1), region,
                                        IoOptions{.synchronous = true});
  RecordDiskSpan("disk", "checkpoint_region", failover_start);
  if (second.ok()) {
    next_ckpt_region_ = failed;
    obs::RecordWrite(RegionIoSource(), region.size());
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& failovers =
          obs::Registry().GetCounter("logfs.lfs.ckpt_region_failovers");
      failovers.Increment();
    }
    return OkStatus();
  }
  if (second.code() == ErrorCode::kCrashed) {
    return second;
  }
  // Neither region can hold a checkpoint: further writes could never be
  // made durable, so demote the mount instead of silently losing them.
  // Last forensic gesture first: try to land just the black-box trailer
  // sectors (a much smaller target than the full region) so the telemetry
  // leading up to the failure survives if any tail sector still accepts
  // writes.
  PersistBlackBoxNow();
  read_only_ = true;
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& demotions =
        obs::Registry().GetCounter("logfs.lfs.readonly_demotions");
    demotions.Increment();
    obs::Tracer().RecordInstant("lfs", "readonly_demotion", Now(), {});
  }
  return MediaError("checkpoint write failed on both regions; mount is now read-only: " +
                    first.message());
}

void LfsFileSystem::PersistBlackBoxNow() {
  if constexpr (!obs::kMetricsEnabled) {
    return;
  }
  const size_t region_bytes =
      static_cast<size_t>(sb_.checkpoint_region_blocks) * BlockSize();
  std::vector<std::byte> region(region_bytes);
  for (uint32_t r = 0; r < 2; ++r) {
    const uint64_t sector =
        (1ull + static_cast<uint64_t>(r) * sb_.checkpoint_region_blocks) *
        sb_.SectorsPerBlock();
    if (!device_->ReadSectors(sector, region).ok()) {
      continue;
    }
    // Preserve a decodable checkpoint payload; if the region holds garbage
    // anyway, the whole slack (minus the footer) is fair game.
    size_t payload = 0;
    Result<CheckpointRecord> ckpt = DecodeCheckpoint(region);
    if (ckpt.ok()) {
      payload = CheckpointPayloadBytes(*ckpt);
    }
    std::vector<std::byte> blob =
        sampler_.SerializeRing(BlackBoxCapacity(region_bytes, payload));
    if (blob.empty() || !EmbedBlackBox(region, payload, blob).ok()) {
      continue;
    }
    // Rewrite only the sectors the trailer touches; stale bytes ahead of
    // the blob are ignored by ExtractBlackBox (the footer is end-anchored).
    const size_t trailer_bytes = blob.size() + kBlackBoxFooterBytes;
    const size_t start_byte =
        (region_bytes - trailer_bytes) / kSectorSize * kSectorSize;
    Status wrote = device_->WriteSectors(
        sector + start_byte / kSectorSize,
        std::span<const std::byte>(region).subspan(start_byte),
        IoOptions{.synchronous = true});
    if (wrote.ok()) {
      obs::RecordWrite(obs::IoSource::kCheckpoint, region_bytes - start_byte);
    }
  }
}

Status LfsFileSystem::Checkpoint() {
  RETURN_IF_ERROR(CheckWritable());
  // FlushEverything drains *foreground* dirty state; only the imap/usage
  // rewrites below are checkpoint-class traffic.
  RETURN_IF_ERROR(FlushEverything());
  ScopedFlag checkpoint_scope(&in_checkpoint_);

  // Rewrite dirty inode-map blocks into the log, encoding each straight
  // into the builder's staging block.
  for (uint32_t i = 0; i < imap_.block_count(); ++i) {
    if (!imap_.BlockDirty(i)) {
      continue;
    }
    std::span<std::byte> block;
    ASSIGN_OR_RETURN(DiskAddr addr, AppendToLogDeferred(BlockKind::kImap, 0, 0, i, &block));
    RETURN_IF_ERROR(imap_.EncodeBlock(i, block));
    AccountReplace(imap_block_addrs_[i], addr, BlockSize());
    imap_block_addrs_[i] = addr;
    imap_.ClearBlockDirty(i);
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& rewrites = obs::Registry().GetCounter("logfs.imap.blocks_rewritten");
      rewrites.Increment();
    }
  }

  // Rewrite dirty segment-usage blocks. Their contents depend on the disk
  // addresses these very appends assign (usage changes as blocks land), so
  // they are appended with deferred content and patched afterwards — which
  // requires them all to share one partial segment. Reserve room for the
  // worst case (every usage block) before starting.
  const uint32_t usage_needed = usage_.block_count() + 1;  // + summary.
  if (usage_needed > sb_.BlocksPerSegment()) {
    return NoSpaceError("segment too small to checkpoint the usage table");
  }
  if (builder_.next_offset() + usage_needed > sb_.BlocksPerSegment() ||
      builder_.pending() + usage_.block_count() > SummaryCapacity(BlockSize())) {
    RETURN_IF_ERROR(FlushPartial());
    if (builder_.next_offset() + usage_needed > sb_.BlocksPerSegment()) {
      RETURN_IF_ERROR(AdvanceSegment());
    }
  }
  std::vector<std::pair<uint32_t, std::span<std::byte>>> deferred;
  for (int round = 0; round < 8; ++round) {
    bool appended = false;
    for (uint32_t i = 0; i < usage_.block_count(); ++i) {
      if (!usage_.BlockDirty(i)) {
        continue;
      }
      bool already = false;
      for (const auto& [index, span] : deferred) {
        if (index == i) {
          already = true;
          break;
        }
      }
      if (already) {
        continue;
      }
      if (!builder_.CanAppend()) {
        // Usage blocks must share one partial segment (their buffers are
        // patched before Flush). Make room first.
        if (!deferred.empty()) {
          return IoError("usage blocks split across partial segments");
        }
        RETURN_IF_ERROR(FlushPartial());
        if (!builder_.SegmentHasRoom()) {
          RETURN_IF_ERROR(AdvanceSegment());
        }
      }
      std::span<std::byte> buffer;
      builder_.set_io_context(CurrentIoContext());
      ASSIGN_OR_RETURN(DiskAddr addr,
                       builder_.AppendDeferred(BlockKind::kSegUsage, 0, 0, i, &buffer));
      usage_.SetWriteSeq(builder_.segment(), next_log_seq_);
      AccountReplace(usage_block_addrs_[i], addr, BlockSize());
      usage_block_addrs_[i] = addr;
      deferred.emplace_back(i, buffer);
      appended = true;
    }
    if (!appended) {
      break;
    }
  }
  for (auto& [i, buffer] : deferred) {
    RETURN_IF_ERROR(usage_.EncodeBlock(i, buffer));
    usage_.ClearBlockDirty(i);
  }
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& rewrites = obs::Registry().GetCounter("logfs.usage.blocks_rewritten");
    rewrites.Increment(deferred.size());
  }
  RETURN_IF_ERROR(FlushPartial());

  // One guaranteed sample per checkpoint, taken after the flushes so the
  // black box records the counters exactly as of the state it rides with.
  // Refresh the utilization-distribution gauges first so the sample carries
  // the current Fig.-3 curve.
  PublishSpaceTelemetry();
  sampler_.SampleNow(Now());

  CheckpointRecord ckpt;
  ckpt.sequence = ++checkpoint_seq_;
  ckpt.timestamp = Now();
  ckpt.next_log_seq = next_log_seq_;
  ckpt.tail_segment = builder_.segment();
  ckpt.tail_offset = builder_.next_offset();
  ckpt.next_ino_hint = next_ino_hint_;
  ckpt.total_live_bytes = usage_.TotalLiveBytes();
  ckpt.imap_block_addrs = imap_block_addrs_;
  ckpt.usage_block_addrs = usage_block_addrs_;
  RETURN_IF_ERROR(WriteCheckpointRegion(ckpt));

  // Segments emptied by the cleaner become allocatable only now that the
  // checkpoint has recorded the new homes of their blocks. Pending segments
  // the cleaner could NOT fully relocate (live blocks lost to media damage)
  // come back quarantined instead of clean.
  const uint32_t pending_before = usage_.CountState(SegState::kCleanPending);
  const std::vector<uint32_t> quarantined = usage_.CommitPendingClean();
  if constexpr (obs::kMetricsEnabled) {
    // Lifecycle accounting: cleaner-emptied segments become "cleaned" at the
    // checkpoint that commits them. Recovery's terminal checkpoint merely
    // re-promotes pending state left over from before the crash — replaying
    // it would double-count, so it is excluded.
    if (!in_recovery_) {
      const uint32_t cleaned =
          pending_before - static_cast<uint32_t>(quarantined.size());
      for (uint32_t i = 0; i < cleaned; ++i) {
        obs::RecordSegLifecycle(obs::SegLifecycle::kCleaned);
      }
      for (size_t i = 0; i < quarantined.size(); ++i) {
        obs::RecordSegLifecycle(obs::SegLifecycle::kQuarantined);
      }
    }
    if (!quarantined.empty()) {
      static obs::Counter& counter =
          obs::Registry().GetCounter("logfs.lfs.segments_quarantined");
      counter.Increment(quarantined.size());
      for (uint32_t seg : quarantined) {
        obs::Tracer().RecordInstant("lfs", "quarantine", Now(),
                                    {{"segment", std::to_string(seg)}});
      }
    }
  }
  last_checkpoint_time_ = Now();
  ++checkpoint_count_;
  // Everything mutated before this point is now reachable from the
  // checkpoint: the durable horizon catches up to the mutation counter.
  synced_seq_ = mutation_seq_;
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& checkpoints = obs::Registry().GetCounter("logfs.lfs.checkpoints");
    checkpoints.Increment();
  }
  return OkStatus();
}

// --- Roll-forward recovery ------------------------------------------------------------

Status LfsFileSystem::RollForward() {
  // Everything written while rolling forward — including the terminal
  // checkpoint below — is recovery-class traffic for attribution.
  ScopedFlag recovery_scope(&in_recovery_);
  const uint64_t checkpoint_next_seq = next_log_seq_;
  const uint32_t rolled_before = rolled_forward_partials_;
  obs::SpanTimer roll_span(clock_, "recovery", "roll_forward");
  struct Found {
    uint32_t segment;
    uint32_t offset;
    SegmentSummary summary;
    std::vector<std::byte> content;
  };
  std::map<uint64_t, Found> found;

  for (uint32_t seg = 0; seg < sb_.num_segments; ++seg) {
    for (SummaryChain chain(device_, sb_, seg, ChainMode::kStrict); chain.Next();) {
      const SummaryPeek& peek = chain.peek();
      if (peek.seq < next_log_seq_) {
        continue;  // Already covered by the checkpoint.
      }
      // Candidate: validate fully against its content.
      std::vector<std::byte> content(static_cast<size_t>(peek.nblocks) * BlockSize());
      if (!device_->ReadSectors(sb_.SegmentBlockSector(seg, chain.offset() + 1), content).ok()) {
        break;
      }
      Result<SegmentSummary> summary = options_.unsafe_skip_rollforward_crc
                                           ? DecodeSummaryUnchecked(chain.summary_block())
                                           : DecodeSummary(chain.summary_block(), content);
      if (!summary.ok()) {
        break;  // Torn write: the log ends here.
      }
      found.emplace(peek.seq, Found{seg, chain.offset(), std::move(*summary), std::move(content)});
    }
  }

  // Apply in sequence order while contiguous with the checkpoint tail.
  uint32_t tail_segment = 0;
  uint32_t tail_offset = 0;
  bool advanced = false;
  while (true) {
    auto it = found.find(next_log_seq_);
    if (it == found.end()) {
      break;
    }
    const Found& partial = it->second;
    RETURN_IF_ERROR(ApplyRolledPartial(partial.summary, partial.segment, partial.offset,
                                       partial.content));
    tail_segment = partial.segment;
    tail_offset = partial.offset + 1 + static_cast<uint32_t>(partial.summary.entries.size());
    advanced = true;
    ++next_log_seq_;
    ++rolled_forward_partials_;
    found.erase(it);
  }
  if constexpr (obs::kMetricsEnabled) {
    const uint32_t applied = rolled_forward_partials_ - rolled_before;
    obs::Registry().GetCounter("logfs.recovery.segments_scanned").Increment(sb_.num_segments);
    obs::Registry().GetCounter("logfs.recovery.rolled_partials").Increment(applied);
    roll_span.AddArg("segments_scanned", std::to_string(sb_.num_segments));
    roll_span.AddArg("partials_applied", std::to_string(applied));
  }
  if (!advanced) {
    return OkStatus();
  }

  // Reposition the writer, rebuild the usage table exactly, and persist the
  // recovered state immediately.
  builder_.StartAt(tail_segment, tail_offset);
  RETURN_IF_ERROR(RebuildUsageFromScratch(tail_segment, checkpoint_next_seq));
  return Checkpoint();
}

Status LfsFileSystem::ApplyRolledPartial(const SegmentSummary& summary, uint32_t segment,
                                         uint32_t offset,
                                         std::span<const std::byte> content) {
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& replayed = obs::Registry().GetCounter("logfs.recovery.replayed_records");
    replayed.Increment(summary.entries.size());
  }
  for (size_t i = 0; i < summary.entries.size(); ++i) {
    const SummaryEntry& entry = summary.entries[i];
    const DiskAddr block_addr = sb_.SegmentBlockSector(segment, offset + 1 +
                                                                    static_cast<uint32_t>(i));
    std::span<const std::byte> block = content.subspan(i * BlockSize(), BlockSize());
    switch (entry.kind) {
      case BlockKind::kInodeBlock: {
        ASSIGN_OR_RETURN(std::vector<PackedInode> packed, DecodeInodeBlock(block));
        for (size_t k = 0; k < packed.size(); ++k) {
          const InodeNum ino = packed[k].ino;
          if (!imap_.IsValid(ino)) {
            return CorruptedError("rolled-forward inode out of range");
          }
          // Never resurrect an older incarnation: only apply if this write
          // is at least as new as what the map knows.
          if (packed[k].version >= imap_.Get(ino).version) {
            imap_.ForceAllocated(ino, true);
            imap_.SetVersion(ino, packed[k].version);
            imap_.SetLocation(ino, block_addr, static_cast<uint16_t>(k));
          }
        }
        break;
      }
      case BlockKind::kMetaLog: {
        ASSIGN_OR_RETURN(std::vector<FreeRecord> records, DecodeMetaLogBlock(block));
        for (const FreeRecord& record : records) {
          if (!imap_.IsValid(record.ino)) {
            return CorruptedError("rolled-forward free record out of range");
          }
          if (record.new_version >= imap_.Get(record.ino).version) {
            imap_.ForceAllocated(record.ino, false);
            imap_.SetVersion(record.ino, record.new_version);
            imap_.SetLocation(record.ino, kNoAddr, 0);
          }
        }
        break;
      }
      case BlockKind::kImap: {
        // A checkpoint-era imap block re-found in the log: its content is
        // already reflected via the checkpoint (or superseded by newer
        // inode blocks); re-register its address if it is the current one.
        break;
      }
      case BlockKind::kData:
      case BlockKind::kIndirect:
      case BlockKind::kSegUsage:
        // Reached through inodes (data/indirect) or rebuilt from scratch
        // after roll-forward (usage); nothing to apply directly.
        break;
    }
  }
  return OkStatus();
}

Status LfsFileSystem::RebuildUsageFromScratch(uint32_t active_segment,
                                              uint64_t checkpoint_next_seq) {
  ASSIGN_OR_RETURN(std::vector<uint64_t> live, ComputeExactUsage());
  for (uint32_t seg = 0; seg < sb_.num_segments; ++seg) {
    usage_.SetLive(seg, static_cast<uint32_t>(live[seg]));
    if (usage_.Get(seg).state == SegState::kQuarantined) {
      continue;  // Media damage survives recovery; never reclassify it.
    }
    if (seg == active_segment) {
      usage_.SetState(seg, SegState::kActive);
      // Heat baseline for the resumed tail; not a lifecycle "allocated"
      // event — the segment was allocated before the crash.
      usage_.NoteAllocated(seg, Now());
    } else if (live[seg] > 0) {
      usage_.SetState(seg, SegState::kDirty);
    } else if (usage_.Get(seg).last_write_seq >= checkpoint_next_seq) {
      // Written after the checkpoint we recovered from: until the
      // post-recovery checkpoint lands, a second crash would roll forward
      // from the old checkpoint again, so keep the rolled log intact.
      usage_.SetState(seg, SegState::kCleanPending);
    } else {
      usage_.SetState(seg, SegState::kClean);
    }
  }
  return OkStatus();
}

Status LfsFileSystem::WalkLiveBlocks(const std::function<void(const LivePointer&)>& visit) {
  const uint32_t bs = BlockSize();
  // Visits one pointer; returns whether the block it names may be read.
  auto point = [&](DiskAddr addr, BlockKind kind, InodeNum ino, uint32_t bytes) {
    if (addr == kNoAddr) {
      return false;
    }
    const bool in_area = sb_.InSegmentArea(addr);
    visit(LivePointer{addr, kind, ino, bytes, in_area});
    return in_area;
  };
  for (DiskAddr addr : imap_block_addrs_) {
    point(addr, BlockKind::kImap, 0, bs);
  }
  for (DiskAddr addr : usage_block_addrs_) {
    point(addr, BlockKind::kSegUsage, 0, bs);
  }
  const uint32_t quantum = InodeLiveQuantum();
  for (uint32_t slot = 0; slot < imap_.max_inodes(); ++slot) {
    const ImapEntry& entry = imap_.GetSlot(slot);
    if (!entry.allocated) {
      continue;
    }
    const InodeNum ino = imap_.InoAtSlot(slot);
    // An inode with no on-disk copy yet can only come from core (GetInode).
    if (!point(entry.block_addr, BlockKind::kInodeBlock, ino, quantum) &&
        entry.block_addr != kNoAddr) {
      continue;
    }
    ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
    const Inode inode = ci->inode;  // Copy: cache ops below may rehash.
    for (DiskAddr addr : inode.direct) {
      point(addr, BlockKind::kData, ino, bs);
    }
    if (point(inode.single_indirect, BlockKind::kIndirect, ino, bs)) {
      ASSIGN_OR_RETURN(CacheRef ref, GetIndirectRef(ino, kSingleSlot, /*create=*/false));
      for (uint64_t j = 0; j < EntriesPerBlock(); ++j) {
        point(ReadIndirectEntry(ref->data(), j), BlockKind::kData, ino, bs);
      }
    }
    if (point(inode.double_indirect, BlockKind::kIndirect, ino, bs)) {
      for (uint64_t j = 0; j < EntriesPerBlock(); ++j) {
        ASSIGN_OR_RETURN(DiskAddr leaf_addr, GetIndirectAddr(ino, 2 + j));
        if (!point(leaf_addr, BlockKind::kIndirect, ino, bs)) {
          continue;
        }
        ASSIGN_OR_RETURN(CacheRef leaf, GetIndirectRef(ino, 2 + j, /*create=*/false));
        for (uint64_t k = 0; k < EntriesPerBlock(); ++k) {
          point(ReadIndirectEntry(leaf->data(), k), BlockKind::kData, ino, bs);
        }
      }
    }
  }
  return OkStatus();
}

Result<std::vector<uint64_t>> LfsFileSystem::ComputeExactUsage() {
  std::vector<uint64_t> live(sb_.num_segments, 0);
  bool outside = false;
  RETURN_IF_ERROR(WalkLiveBlocks([&](const LivePointer& pointer) {
    if (pointer.in_area) {
      live[SegmentOfAddr(pointer.addr)] += pointer.bytes;
    } else {
      outside = true;
    }
  }));
  if (outside) {
    return CorruptedError("live block pointer outside the segment area");
  }
  return live;
}

// --- Liveness and media scrubbing ---------------------------------------------------

Result<bool> LfsFileSystem::IsBlockLive(const SummaryEntry& entry, DiskAddr addr) {
  switch (entry.kind) {
    case BlockKind::kData:
    case BlockKind::kIndirect: {
      // Step 1: a version mismatch means the file was deleted or truncated
      // to zero since.
      if (!imap_.IsValid(entry.ino)) {
        return false;
      }
      const ImapEntry& map_entry = imap_.Get(entry.ino);
      if (!map_entry.allocated || map_entry.version != entry.version) {
        return false;
      }
      // Step 2: the inode or indirect block must still point here.
      const uint64_t offset = static_cast<uint64_t>(entry.offset);
      DiskAddr current = kNoAddr;
      if (entry.kind == BlockKind::kIndirect) {
        ASSIGN_OR_RETURN(current, GetIndirectAddr(entry.ino, offset));
      } else {
        ASSIGN_OR_RETURN(CachedInode * ci, GetInode(entry.ino));
        const Inode inode = ci->inode;
        ASSIGN_OR_RETURN(current, GetDataBlockAddr(entry.ino, inode, offset));
      }
      return current == addr;
    }
    case BlockKind::kInodeBlock: {
      // The summary cannot say which slots are current, and the (possibly
      // damaged) content is not trustworthy — consult the map's reverse
      // direction instead: any allocated inode homed in this block keeps it
      // live.
      for (uint32_t slot = 0; slot < imap_.max_inodes(); ++slot) {
        const ImapEntry& map_entry = imap_.GetSlot(slot);
        if (map_entry.allocated && map_entry.block_addr == addr) {
          return true;
        }
      }
      return false;
    }
    case BlockKind::kImap: {
      const uint32_t index = static_cast<uint32_t>(entry.offset);
      return index < imap_block_addrs_.size() && imap_block_addrs_[index] == addr;
    }
    case BlockKind::kSegUsage: {
      const uint32_t index = static_cast<uint32_t>(entry.offset);
      return index < usage_block_addrs_.size() && usage_block_addrs_[index] == addr;
    }
    case BlockKind::kMetaLog:
      return false;  // Dead once checkpointed past.
  }
  return false;
}

Result<LfsFileSystem::ScrubReport> LfsFileSystem::Scrub(uint32_t max_segments) {
  ScrubReport report;
  if (max_segments == 0 || sb_.num_segments == 0) {
    return report;
  }
  const uint32_t bs = BlockSize();
  std::vector<std::byte> image(sb_.segment_size);
  for (uint32_t step = 0; step < sb_.num_segments && report.segments_scanned < max_segments;
       ++step) {
    const uint32_t seg = next_scrub_segment_;
    next_scrub_segment_ = (next_scrub_segment_ + 1) % sb_.num_segments;
    // Only settled segments with on-disk state worth checking: clean ones
    // hold nothing, the active one is still being written, pending ones are
    // about to be reclaimed, quarantined ones are already known bad.
    if (usage_.Get(seg).state != SegState::kDirty) {
      continue;
    }
    ++report.segments_scanned;
    ASSIGN_OR_RETURN(const std::vector<bool> unreadable,
                     ReadSegmentImage(device_, sb_, seg, image));
    report.media_errors += std::count(unreadable.begin(), unreadable.end(), true);
    auto readable = [&](uint32_t b) { return unreadable.empty() || !unreadable[b]; };
    // Unreadable blocks no partial below accounts for, entry by entry.
    std::vector<bool> stray = unreadable;
    bool quarantine = false;
    for (SummaryChain chain(image, bs, ChainMode::kProbe); chain.Next();) {
      const uint32_t first = chain.offset() + 1;  // The partial's first content block.
      const uint32_t end = first + chain.peek().nblocks;
      const bool content_readable =
          unreadable.empty() || std::find(unreadable.begin() + first, unreadable.begin() + end,
                                          true) == unreadable.begin() + end;
      if (content_readable && DecodeSummary(chain.summary_block(), chain.content()).ok()) {
        ++report.partials_verified;
        report.blocks_verified += chain.peek().nblocks;
        continue;
      }
      // Damaged partial: fall back to per-entry checksums so the damage is
      // localized to specific blocks and only *live* losses quarantine.
      Result<SegmentSummary> summary = DecodeSummaryUnchecked(chain.summary_block());
      if (!summary.ok()) {
        continue;
      }
      for (size_t i = 0; i < summary->entries.size(); ++i) {
        const SummaryEntry& entry = summary->entries[i];
        const uint32_t b = first + static_cast<uint32_t>(i);
        if (readable(b) && Crc32(chain.content().subspan(i * bs, bs)) == entry.block_crc) {
          ++report.blocks_verified;
          continue;
        }
        if (readable(b)) {
          ++report.checksum_failures;
        }
        Result<bool> live = IsBlockLive(entry, sb_.SegmentBlockSector(seg, b));
        if (!live.ok() || *live) {  // Unknown liveness counts as live.
          quarantine = true;
        }
      }
      if (!stray.empty()) {
        std::fill(stray.begin() + chain.offset(), stray.begin() + end, false);
      }
    }
    // An unreadable block no partial accounts for may have been the summary
    // of live data (the last block cannot start a partial). Whenever the
    // segment holds live data at all, that counts as live damage —
    // conservative, but quarantine never loses data.
    if (usage_.Get(seg).live_bytes > 0 && !stray.empty() &&
        std::find(stray.begin(), stray.end() - 1, true) != stray.end() - 1) {
      quarantine = true;
    }
    if (quarantine) {
      QuarantineSegment(seg);
      ++report.segments_quarantined;
      // Salvage what still verifies so readers stop depending on the
      // damaged medium, then relocate it through the normal write-back.
      // Salvage is relocation, so it runs as cleaner work: its writes are
      // cleaner traffic and the deaths it causes are not workload heat. A
      // read-only mount cannot write new homes, so it only reports.
      if (!read_only_) {
        ScopedFlag cleaning(&in_cleaner_);
        LfsCleaner cleaner(this);
        ASSIGN_OR_RETURN(uint64_t staged, cleaner.SalvageSegment(seg, image));
        report.blocks_salvaged += staged;
        if (staged > 0) {
          obs::RecordSegLifecycle(obs::SegLifecycle::kSalvaged);
          RETURN_IF_ERROR(FlushEverything());
        }
      }
    }
  }
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& scanned = obs::Registry().GetCounter("logfs.scrub.segments_scanned");
    static obs::Counter& verified = obs::Registry().GetCounter("logfs.scrub.blocks_verified");
    static obs::Counter& failures = obs::Registry().GetCounter("logfs.scrub.checksum_failures");
    static obs::Counter& media = obs::Registry().GetCounter("logfs.scrub.media_errors");
    static obs::Counter& quarantined =
        obs::Registry().GetCounter("logfs.scrub.segments_quarantined");
    static obs::Counter& salvaged = obs::Registry().GetCounter("logfs.scrub.blocks_salvaged");
    scanned.Increment(report.segments_scanned);
    verified.Increment(report.blocks_verified);
    failures.Increment(report.checksum_failures);
    media.Increment(report.media_errors);
    quarantined.Increment(report.segments_quarantined);
    salvaged.Increment(report.blocks_salvaged);
  }
  return report;
}

}  // namespace logfs
