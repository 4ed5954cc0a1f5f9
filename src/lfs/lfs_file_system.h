// LfsFileSystem: the log-structured storage manager (paper Section 4).
//
// All modifications — file data, directories, inodes, the inode map and the
// segment usage array — are accumulated in memory and written to disk in
// large sequential partial-segment transfers. Nothing is ever updated in
// place. Namespace operations (create, unlink, rename) perform *no*
// synchronous disk I/O; durability comes from write-behind flushes,
// fsync-triggered partial segments, periodic checkpoints, and roll-forward
// recovery over the segment summaries.
//
// Major in-memory state:
//   * BufferCache          — dirty file/directory/indirect blocks
//   * in-core inode table  — all touched inodes, with dirty flags
//   * InodeMap             — ino -> (inode block address, slot), version, atime
//   * SegmentUsageTable    — per-segment live bytes and lifecycle state
//   * SegmentBuilder       — the partial segment being assembled
//
// See lfs_cleaner.h for the segment cleaner and lfs_check.h for the offline
// consistency checker.
#ifndef LOGFS_SRC_LFS_LFS_FILE_SYSTEM_H_
#define LOGFS_SRC_LFS_LFS_FILE_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/block_device.h"
#include "src/fsbase/file_system.h"
#include "src/fsbase/inode.h"
#include "src/lfs/lfs_blocks.h"
#include "src/lfs/lfs_format.h"
#include "src/lfs/lfs_inode_map.h"
#include "src/lfs/lfs_seg_usage.h"
#include "src/lfs/lfs_segment.h"
#include "src/obs/sampler.h"
#include "src/obs/trace_context.h"
#include "src/sim/cpu_model.h"
#include "src/sim/sim_clock.h"

namespace logfs {

class LfsCleaner;

class LfsFileSystem : public FileSystem, private WritebackHandler {
 public:
  struct Options {
    Options() { cache_policy.capacity_blocks = 3840; }  // 15 MB of 4 KB blocks.
    CachePolicy cache_policy;
    // Replay the log past the last checkpoint at mount (the paper's "roll
    // forward" recovery). With false, mount restores exactly the last
    // checkpoint (the paper's "zero recovery time" variant).
    bool roll_forward = true;
    // Run the cleaner automatically from Tick() when clean segments drop
    // below the start threshold.
    bool auto_clean = true;
    // Victim-selection policy (greedy = paper; fifo = ablation baseline).
    SegmentUsageTable::VictimPolicy cleaner_policy =
        SegmentUsageTable::VictimPolicy::kGreedy;
    // Sequential read-ahead: on a read miss, fetch up to this many further
    // blocks in the same transfer when they are contiguous on disk (which
    // LFS's log layout makes common). 0 disables.
    uint32_t read_ahead_blocks = 0;
    // Soft cap on the in-core inode table; clean entries beyond it are
    // pruned at Tick() boundaries (dirty inodes are never dropped).
    size_t max_cached_inodes = 16384;
    // TEST-ONLY fault injection: skip the summary-CRC validation during
    // roll-forward, i.e. trust torn partial segments. Exists so the crash
    // explorer's self-test (tests/crashsim_test.cc) can prove the Oracle
    // detects a real recovery bug. Must stay false everywhere else.
    bool unsafe_skip_rollforward_crc = false;
    // Background scrubbing: verify up to this many segments per Tick(),
    // round-robin, so latent media errors surface before a reader or the
    // cleaner trips on them. 0 disables.
    uint32_t scrub_segments_per_tick = 0;
    // Flight-recorder cadence: the telemetry sampler takes one sample per
    // interval (driven from Tick) plus one at every checkpoint, retaining
    // the newest `telemetry_capacity` samples. Each checkpoint embeds the
    // encoded ring in the checkpoint-region tail slack as the on-disk black
    // box (src/lfs/lfs_blackbox.h). No-op with LOGFS_METRICS=OFF.
    double telemetry_interval_seconds = 1.0;
    size_t telemetry_capacity = 256;
  };

  // Writes a fresh file system: superblock, two checkpoint regions, and a
  // root directory (persisted via an internal mount + checkpoint).
  static Status Format(BlockDevice* device, const LfsParams& params);

  static Result<std::unique_ptr<LfsFileSystem>> Mount(BlockDevice* device, SimClock* clock,
                                                      CpuModel* cpu, Options options = {});

  ~LfsFileSystem() override;

  // --- FileSystem interface ---
  Result<InodeNum> Create(InodeNum dir, std::string_view name, FileType type) override;
  Result<InodeNum> Lookup(InodeNum dir, std::string_view name) override;
  Status Unlink(InodeNum dir, std::string_view name) override;
  Status Rmdir(InodeNum dir, std::string_view name) override;
  Status Link(InodeNum dir, std::string_view name, InodeNum target) override;
  Status Rename(InodeNum from_dir, std::string_view from_name, InodeNum to_dir,
                std::string_view to_name) override;
  Result<uint64_t> Read(InodeNum ino, uint64_t offset, std::span<std::byte> out) override;
  Result<uint64_t> Write(InodeNum ino, uint64_t offset, std::span<const std::byte> data) override;
  Status Truncate(InodeNum ino, uint64_t new_size) override;
  Result<FileStat> Stat(InodeNum ino) override;
  Result<std::vector<DirEntry>> ReadDir(InodeNum dir) override;
  Status Sync() override;
  Status Fsync(InodeNum ino) override;
  Status DropCaches() override;
  Status Tick() override;
  std::string name() const override { return "LFS"; }

  // --- LFS-specific public API ---

  // Forces a checkpoint now (Section 4.4.1).
  Status Checkpoint();

  // --- group-commit seam ---
  //
  // Every successful mutating operation advances mutation_seq(); a
  // successful full flush records the value it covered as synced_seq().
  // SyncAsOf(seq) is the coalescing primitive the file service layers on: a
  // durability request whose horizon an earlier flush already covered is a
  // free no-op (counted as logfs.sync.coalesced), so N clients' commits
  // racing into the server collapse into one segment flush plus N-1 nops.
  uint64_t mutation_seq() const { return mutation_seq_; }
  uint64_t synced_seq() const { return synced_seq_; }
  Status SyncAsOf(uint64_t seq);

  // User-initiated cleaning (Section 4.3.4: "the user-level process
  // interface allows cleaning to be initiated at night..."). Cleans up to
  // `max_victims` segments; returns the number actually cleaned.
  Result<uint32_t> CleanNow(uint32_t max_victims);

  // Cleans exactly the given segments (skipping any that are not dirty by
  // the time they are reached). Used by measurement harnesses that must
  // clean a fixed victim set — repeatedly calling CleanNow would happily
  // re-clean the segments the cleaner itself just filled.
  Result<uint32_t> CleanTheseSegments(const std::vector<uint32_t>& segments);

  // Proactive media verification: reads up to `max_segments` dirty segments
  // (round-robin across calls) and checks every partial segment's CRC,
  // falling back to per-block checksums where the full CRC fails. A segment
  // with unreadable or corrupt *live* blocks is quarantined and its
  // still-verifiable live blocks are salvaged through the cleaner's staging
  // path, as cleaner work. Driven from Tick() via
  // Options::scrub_segments_per_tick and from the `lfs_inspect scrub` verb.
  struct ScrubReport {
    uint64_t segments_scanned = 0;
    uint64_t partials_verified = 0;
    uint64_t blocks_verified = 0;
    uint64_t checksum_failures = 0;
    uint64_t media_errors = 0;
    uint64_t segments_quarantined = 0;
    uint64_t blocks_salvaged = 0;
  };
  Result<ScrubReport> Scrub(uint32_t max_segments);

  // True once a persistent checkpoint-write failure demoted the mount to
  // read-only: every mutating operation returns kReadOnly, reads still
  // work. The demotion is sticky for the life of the mount.
  bool read_only() const { return read_only_; }

  // The flight recorder: periodic MetricsRegistry samples whose encoded
  // ring becomes the on-disk black box at every checkpoint.
  obs::TelemetrySampler& telemetry() { return sampler_; }

  // Best-effort crash-path persistence: rewrites only the black-box trailer
  // sectors of both checkpoint regions with the freshest ring, leaving the
  // checkpoint payloads untouched. Never reports failure — it runs on paths
  // (read-only demotion) where the main write already failed.
  void PersistBlackBoxNow();

  // Introspection for benchmarks, tests, the cleaner and the checker.
  const LfsSuperblock& superblock() const { return sb_; }
  const InodeMap& imap() const { return imap_; }
  const SegmentUsageTable& usage() const { return usage_; }
  const CacheStats& cache_stats() const { return cache_.stats(); }
  uint32_t CleanSegmentCount() const { return usage_.CountState(SegState::kClean); }
  uint32_t QuarantinedSegmentCount() const {
    return usage_.CountState(SegState::kQuarantined);
  }
  uint64_t TotalLiveBytes() const { return usage_.TotalLiveBytes(); }
  // Capacity available to user data (excludes reserved segments and
  // per-partial summary overhead estimates).
  uint64_t UsableBytes() const;
  uint64_t checkpoint_count() const { return checkpoint_count_; }
  uint64_t rolled_forward_partials() const { return rolled_forward_partials_; }

  struct CleanerStats {
    uint64_t passes = 0;
    uint64_t segments_cleaned = 0;
    uint64_t blocks_examined = 0;
    uint64_t live_blocks_copied = 0;
    uint64_t segment_reads = 0;
  };
  const CleanerStats& cleaner_stats() const { return cleaner_stats_; }

  // Exact live-byte recount per segment, from WalkLiveBlocks. kCorrupted if
  // a live pointer leaves the segment area. Used by tests and the
  // post-roll-forward usage reconstruction.
  Result<std::vector<uint64_t>> ComputeExactUsage();

  // The paper's two-step liveness check, asked by the cleaner, the scrubber
  // and tests: (1) the inode-map version in `entry`, (2) the pointer that
  // should name `addr`. An inode block is live if the map homes any inode
  // there, which needs no trust in its (possibly damaged) content; the
  // cleaner, which must know which slots to rewrite, checks slot by slot.
  Result<bool> IsBlockLive(const SummaryEntry& entry, DiskAddr addr);

  // Live-byte quantum charged per inode slot (see inode accounting note in
  // the .cc).
  uint32_t InodeLiveQuantum() const;

  // --- Sharded-router seam (src/lfs/sharded_lfs.h) ---
  //
  // A cross-shard namespace operation decomposes into these primitives: the
  // router holds the locks of every involved shard and sequences dirent
  // edits on the parent's shard against inode/link edits on the child's
  // shard. Each primitive performs exactly the slice of the corresponding
  // native operation that touches THIS shard's structures, with the same
  // CPU charges, space reservations, dirtying and mutation accounting.
  // Same-shard operations route through the unsliced native ops and never
  // reach these. Implemented in lfs_shard_seam.cc.

  // Read-only: `dir` must be a local directory; returns its entry for
  // `name` (kNotFound if absent).
  Result<DirEntry> ShardFindEntry(InodeNum dir, std::string_view name);
  // Read-only precheck for an insert: dir exists, is a directory, `name`
  // free — the fast-fail before the child's shard allocates an inode.
  Status ShardCheckCanInsert(InodeNum dir, std::string_view name);
  // Allocates and initializes a new child inode homed on this shard. For
  // directories, inserts "." and ".." (the parent may live on any shard).
  Result<InodeNum> ShardAllocInode(FileType type, InodeNum parent_dir);
  // Undo of ShardAllocInode when the dirent insert on the parent's shard
  // fails afterwards. Best-effort: a failure here leaves an orphaned inode,
  // the same exposure a crash between the two shard edits has.
  void ShardAbortAlloc(InodeNum ino);
  // Inserts (dir, name) -> child. `child_is_dir` bumps dir's nlink for the
  // child's ".." — the router passes it only when the child's ".." will
  // newly point here (false for same-directory renames).
  Status ShardAddEntry(InodeNum dir, std::string_view name, InodeNum child, FileType type,
                       bool child_is_dir);
  // Removes (dir, name); `child_was_dir` drops dir's nlink.
  Status ShardRemoveEntry(InodeNum dir, std::string_view name, bool child_was_dir);
  // Replaces the target of (dir, name); `nlink_delta` (-1, 0, +1) applies
  // the child-directory ".." arithmetic computed by the router.
  Status ShardReplaceEntry(InodeNum dir, std::string_view name, InodeNum child, FileType type,
                           int nlink_delta);
  // nlink++ on a local non-directory inode (hard-link target).
  Status ShardAddLink(InodeNum ino);
  // nlink-- on a local inode; frees it at zero (unlink victim,
  // file-over-file rename victim).
  Status ShardDropLink(InodeNum ino);
  // Releases a local directory inode outright (rmdir victim, dir-over-dir
  // rename victim — native semantics release without walking nlink to 0).
  Status ShardReleaseDir(InodeNum ino);
  // Local directory empty?
  Result<bool> ShardDirIsEmpty(InodeNum ino);
  // Rewrites a local directory's ".." (directory moved across parents).
  Status ShardSetDotDot(InodeNum child_dir, InodeNum new_parent);

  // The ino ShardAllocInode WOULD return, without mutating anything — the
  // router records it in a cross-shard intent BEFORE the allocation can
  // dirty (and potentially pressure-flush) this shard.
  Result<InodeNum> ShardPeekAllocInode() const;

  // --- Repair primitives (src/lfs/lfs_repair.h) ---
  //
  // Raw structural edits for the cross-shard reconciler / repairer. Unlike
  // the operation slices above they do NO nlink arithmetic — the repairer
  // finishes with an exact nlink recount (ShardSetNlink), so intermediate
  // counts do not need to be maintained edit by edit.

  // Removes (dir, name) without touching any nlink.
  Status ShardRepairRemoveEntry(InodeNum dir, std::string_view name);
  // Inserts (dir, name) -> child without touching any nlink.
  Status ShardRepairInsertEntry(InodeNum dir, std::string_view name, InodeNum child,
                                FileType type);
  // Repoints (dir, name) -> child without touching any nlink ('.'/'..'
  // fixes and duplicate-link detachment).
  Status ShardRepairSetEntry(InodeNum dir, std::string_view name, InodeNum child,
                             FileType type);
  // Forces a local inode's nlink to the recounted value.
  Status ShardSetNlink(InodeNum ino, uint32_t nlink);
  // Reaps a local orphan outright: forces nlink to 0 and releases the
  // inode (and its blocks), whatever its type.
  Status ShardReapInode(InodeNum ino);

  // Write-provenance context for the repairer / router reconciliation
  // (DESIGN.md §6j): while set, every device write this mount issues is
  // attributed to the `repair` class. The sharded router brackets
  // ReconcileIntents / CheckShardedLfs(kRepair) with it.
  void set_repair_context(bool on) { in_repair_ = on; }

  // Appends the utilization (live_bytes / segment capacity, in [0, 1]) of
  // every segment currently holding log data — clean and quarantined
  // segments excluded. The sharded router merges these across shards to
  // republish the combined logfs.seg.util.* distribution.
  void CollectSegmentUtilization(std::vector<double>* out) const;

 private:
  friend class LfsCleaner;
  friend class LfsChecker;

  struct CachedInode {
    InodeNum ino = 0;  // Keys dirty_inodes_ when the inode is dirtied.
    Inode inode;
    bool dirty = false;
  };

  LfsFileSystem(BlockDevice* device, SimClock* clock, CpuModel* cpu, const LfsSuperblock& sb,
                Options options);

  double Now() const { return clock_ != nullptr ? clock_->Now() : 0.0; }
  void ChargeCpu(uint64_t instructions);
  uint32_t BlockSize() const { return sb_.block_size; }
  uint64_t EntriesPerBlock() const { return sb_.block_size / sizeof(DiskAddr); }

  // --- raw device access ---
  // Reads one block and, when its write-time checksum is known (from the
  // segment writer or the mount-time summary scan), verifies it: silent
  // corruption surfaces as kCorrupted and quarantines the segment instead
  // of handing wrong bytes to the caller.
  Status ReadBlockAt(DiskAddr addr, std::span<std::byte> out);

  // --- media-fault handling ---
  // kOk when the index has no checksum for `addr` or the block matches;
  // otherwise quarantines the segment and returns kCorrupted.
  Status VerifyBlockChecksum(DiskAddr addr, std::span<const std::byte> block);
  // Guard for every mutating entry point once read_only_ is set.
  Status CheckWritable() const;
  // Marks the segment holding `addr`/`seg` quarantined (no-op for the
  // active segment and already-quarantined segments). State change and
  // metrics only — salvage runs from the scrubber/cleaner, never from
  // inside a read path.
  void QuarantineSegment(uint32_t seg);
  // Mount-time rebuild of the block-checksum index: walks every segment's
  // partial-segment chain reading only summary blocks. Best-effort (a
  // damaged segment just contributes fewer checksums).
  Status LoadBlockCrcIndex();

  // One pointer of the live-block set, as WalkLiveBlocks reports it.
  struct LivePointer {
    DiskAddr addr = kNoAddr;
    BlockKind kind = BlockKind::kData;  // What the pointer names.
    InodeNum ino = 0;                   // Owning inode; 0 for imap and usage blocks.
    uint32_t bytes = 0;                 // Live bytes it accounts for.
    bool in_area = true;                // Inside the segment area.
  };
  // The live-block set. Starts at the inode map and follows every pointer:
  // the imap and usage blocks, each allocated inode's inode block, and its
  // direct, indirect and double-indirect blocks. Visits each pointer once
  // per referrer (an inode block once per inode packed in it). Addresses are
  // range-checked before use: one outside the segment area is visited with
  // in_area unset and never read. Fails on the first unreadable inode or
  // indirect block.
  Status WalkLiveBlocks(const std::function<void(const LivePointer&)>& visit);

  // --- in-core inodes ---
  Result<CachedInode*> GetInode(InodeNum ino);
  void MarkInodeDirty(InodeNum ino);
  // All in-core dirty-flag transitions go through these so dirty_inodes_
  // names exactly the dirty inodes: its size is O(1) to read
  // (DirtyBytesEstimate runs on every write) and FlushDirtyInodes walks it
  // instead of every cached inode.
  void SetInodeDirty(CachedInode* ci);
  void SetInodeClean(CachedInode* ci);

  // --- cache keys ---
  static constexpr uint64_t kIndirectFlag = 1ull << 40;
  static uint64_t DataObject(InodeNum ino) { return ino; }
  static uint64_t IndirectObject(InodeNum ino) { return kIndirectFlag | ino; }
  // Indirect slot indices: 0 = single indirect, 1 = double-indirect root,
  // 2+j = double-indirect leaf j.
  static constexpr uint64_t kSingleSlot = 0;
  static constexpr uint64_t kDoubleRootSlot = 1;

  // --- block mapping ---
  // Current disk address of an indirect block (kNoAddr if never written).
  Result<DiskAddr> GetIndirectAddr(InodeNum ino, uint64_t slot);
  // Cached view of an indirect block; creates a zero block if absent and
  // `create` is set.
  Result<CacheRef> GetIndirectRef(InodeNum ino, uint64_t slot, bool create);
  // Current address of file block `index` (kNoAddr for holes).
  Result<DiskAddr> GetDataBlockAddr(InodeNum ino, const Inode& inode, uint64_t index);
  // Records a new address for file block `index`; returns the previous
  // address. Dirties the inode or the owning indirect block.
  Result<DiskAddr> SetDataBlockAddr(InodeNum ino, uint64_t index, DiskAddr new_addr);
  // Records a new address for indirect block `slot`; returns the previous
  // address. Dirties the inode or the double-indirect root.
  Result<DiskAddr> SetIndirectAddr(InodeNum ino, uint64_t slot, DiskAddr new_addr);

  // Cached file/directory data block.
  Result<CacheRef> GetFileBlock(InodeNum ino, const Inode& inode, uint64_t index, bool create);
  // Miss path with read-ahead: reads a contiguous run of blocks starting at
  // (index, addr) in one transfer and populates the cache.
  Result<CacheRef> ReadBlockRun(InodeNum ino, const Inode& inode, uint64_t index,
                                DiskAddr addr);

  // --- log appending ---
  // Makes sure the builder can take one more block (flushing the pending
  // partial and/or advancing the segment as needed).
  Status EnsureAppendRoom();
  Result<DiskAddr> AppendToLog(BlockKind kind, uint32_t ino, uint32_t version, int64_t offset,
                               std::span<const std::byte> data);
  // Deferred variant: returns the builder-owned block to encode into
  // directly (valid until the flush), saving the bounce buffer.
  Result<DiskAddr> AppendToLogDeferred(BlockKind kind, uint32_t ino, uint32_t version,
                                       int64_t offset, std::span<std::byte>* buffer);
  Status FlushPartial();
  Status AdvanceSegment();
  uint32_t SegmentOfAddr(DiskAddr addr) const { return sb_.SegmentOfSector(addr); }
  void AccountReplace(DiskAddr old_addr, DiskAddr new_addr, uint32_t bytes);
  // Live-byte death accounting: decrements the old home's estimate and,
  // outside the cleaner, folds the death into that segment's overwrite-
  // interval heat EWMA (cleaner relocation is not workload heat).
  void AccountBlockDeath(DiskAddr addr, uint32_t bytes);

  // --- write-provenance context (DESIGN.md §6j) ---
  // The class every append is tagged with, by flag priority:
  // repair > recovery > cleaner > checkpoint > foreground (the builder then
  // refines foreground into fg_data/fg_meta per block kind).
  obs::IoSource CurrentIoContext() const {
    if (in_repair_) return obs::IoSource::kRepair;
    if (in_recovery_) return obs::IoSource::kRecovery;
    if (in_cleaner_) return obs::IoSource::kCleaner;
    if (in_checkpoint_) return obs::IoSource::kCheckpoint;
    return obs::IoSource::kForegroundData;
  }
  // Checkpoint-region (and black-box trailer) writes bypass the builder, so
  // they classify directly from the same flags.
  obs::IoSource RegionIoSource() const {
    if (in_repair_) return obs::IoSource::kRepair;
    if (in_recovery_) return obs::IoSource::kRecovery;
    if (in_cleaner_) return obs::IoSource::kCleaner;
    return obs::IoSource::kCheckpoint;
  }
  // Sets a context flag for a scope; restores on every exit path.
  class ScopedFlag {
   public:
    explicit ScopedFlag(bool* flag) : flag_(flag), prev_(*flag) { *flag_ = true; }
    ~ScopedFlag() { *flag_ = prev_; }
    ScopedFlag(const ScopedFlag&) = delete;
    ScopedFlag& operator=(const ScopedFlag&) = delete;

   private:
    bool* flag_;
    bool prev_;
  };

  // Publishes the per-segment utilization distribution (logfs.seg.util.*
  // gauges) so the flight recorder's next sample carries it.
  void PublishSpaceTelemetry();

  // --- write-back machinery ---
  Status WriteBack(std::span<CacheBlock* const> blocks) override;  // WritebackHandler.
  Status FlushDirtyIndirect();
  Status FlushDirtyInodes();
  Status FlushPendingFrees();
  // Full data flush: cache + indirect + inodes + meta-log + partial.
  Status FlushEverything();

  // --- space management ---
  Status EnsureSpaceForWrite(uint64_t incoming_bytes);
  uint64_t DirtyBytesEstimate() const;

  // --- checkpointing & recovery ---
  Status WriteCheckpointRegion(const CheckpointRecord& ckpt);
  Status LoadFromCheckpoint(const CheckpointRecord& ckpt);
  Status RollForward();
  Status ApplyRolledPartial(const SegmentSummary& summary, uint32_t segment, uint32_t offset,
                            std::span<const std::byte> content);
  Status RebuildUsageFromScratch(uint32_t active_segment, uint64_t checkpoint_next_seq);

  // --- namespace helpers ---
  Result<DirEntry> DirFind(InodeNum dir_ino, const Inode& dir, std::string_view name);
  Status DirInsert(InodeNum dir_ino, std::string_view name, InodeNum ino, FileType type);
  Status DirRemove(InodeNum dir_ino, std::string_view name);
  Status DirReplace(InodeNum dir_ino, std::string_view name, InodeNum ino, FileType type);
  Result<bool> DirIsEmpty(InodeNum dir_ino, const Inode& dir);
  Result<bool> IsInSubtree(InodeNum candidate, InodeNum ancestor);
  // Drops an inode whose last link went away: releases blocks, frees the
  // imap entry, records the free for roll-forward.
  Status ReleaseInode(InodeNum ino);
  // Releases data blocks at index >= first_index (truncate/delete helper).
  Status ReleaseBlocksFrom(InodeNum ino, uint64_t first_index);

  // --- per-op latency (DESIGN.md §6e, §6h) ---
  enum class Op : uint8_t { kCreate, kRead, kWrite, kSync, kFsync };
#ifdef LOGFS_METRICS_DISABLED
  // Compiled out with the rest of src/obs: no histogram, no span.
  struct OpScope {
    OpScope(LfsFileSystem*, Op) {}
  };
  obs::TraceContext OpSpanParent() const { return {}; }
  bool RecordDiskSpan(const char*, const char*, double) { return false; }
#else
  // RAII scope wrapped around each top-level public operation (Read, Write,
  // Sync, Fsync, Create). Only the outermost scope is live; internal
  // reentry attaches to it. It observes the op's latency in
  // logfs.op.<name>.seconds and, under an active trace context, records an
  // "op" span that it installs as the ambient parent for the op's lifetime,
  // so the op's device time and foreground cleaning become its children.
  class OpScope {
   public:
    OpScope(LfsFileSystem* fs, Op op);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    LfsFileSystem* fs_;
    Op op_;
    double start_ = 0.0;
    obs::TraceContext parent_;  // The caller's context; inactive = untraced.
    uint64_t span_id_ = 0;
    std::optional<obs::TraceContextScope> ambient_;
  };
  // The parent of a child span of the op in flight: its "op" span, or the
  // inactive context outside an op and in an untraced one.
  obs::TraceContext OpSpanParent() const;
  // Records device time [start, Now()) as a child span of the op in flight
  // and returns whether it did. Device time inside a cleaning pass is the
  // pass's own (cleaner) time, so it records nothing there.
  bool RecordDiskSpan(const char* category, const char* name, double start);
#endif

  Status InitializeRoot();
  Status MaybePressureFlush();
  // Drops clean in-core inodes beyond the configured cap. Only called from
  // quiescent points (Tick), where no CachedInode pointers are live.
  void PruneInodeCache();

  BlockDevice* device_;
  SimClock* clock_;
  CpuModel* cpu_;
  LfsSuperblock sb_;
  Options options_;
  BufferCache cache_;
  InodeMap imap_;
  SegmentUsageTable usage_;
  SegmentBuilder builder_;
  std::unordered_map<InodeNum, CachedInode> inodes_;
  std::set<InodeNum> dirty_inodes_;  // Ascending: the inode-block packing order.
  std::vector<FreeRecord> pending_frees_;
  // Current homes of the inode-map and usage blocks (kNoAddr = never
  // written; such blocks decode as all-free / all-clean).
  std::vector<DiskAddr> imap_block_addrs_;
  std::vector<DiskAddr> usage_block_addrs_;

  // Write-time CRC of every block the log has written, keyed by address.
  // Seeded at mount from the segment summaries, kept current by
  // FlushPartial. Stale entries (dead blocks) are harmless: a reused
  // address is overwritten here before it can be read back.
  std::unordered_map<DiskAddr, uint32_t> block_crcs_;
  bool read_only_ = false;
  uint32_t next_scrub_segment_ = 0;  // Round-robin scrub cursor.

  uint64_t next_log_seq_ = 1;
  uint64_t checkpoint_seq_ = 0;
  uint32_t next_ckpt_region_ = 0;  // Alternates 0 / 1.
  double last_checkpoint_time_ = 0.0;
  InodeNum next_ino_hint_ = kRootIno;
  uint64_t checkpoint_count_ = 0;
  uint64_t rolled_forward_partials_ = 0;
  // Group-commit seam (see the public accessors): mutation_seq_ counts
  // successful mutating public ops; synced_seq_ is the horizon the last
  // successful checkpoint made durable.
  uint64_t mutation_seq_ = 0;
  uint64_t synced_seq_ = 0;
  bool in_cleaner_ = false;  // Cleaning may dip into reserved segments.
  // Further provenance flags for write attribution (see CurrentIoContext).
  bool in_checkpoint_ = false;  // Checkpoint's own imap/usage appends.
  bool in_recovery_ = false;    // Roll-forward incl. its terminal checkpoint.
  bool in_repair_ = false;      // Router reconciliation / online repairer.
  CleanerStats cleaner_stats_;

  // Flight recorder state (see Options::telemetry_interval_seconds).
  obs::TelemetrySampler sampler_;
  int op_depth_ = 0;  // Live OpScopes; only the outermost records.
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_FILE_SYSTEM_H_
