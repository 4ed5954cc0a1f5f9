// ShardedLfs: a sharded multi-log LFS with a thread-safe concurrent
// front-end.
//
// The single-log storage manager serializes every operation behind one
// append point: one segment builder, one cleaner, one checkpoint. This
// router partitions the volume into N independent logs ("shards"), each a
// complete LfsFileSystem over a contiguous WindowDisk slice of the device —
// its own segment writer, cleaner, segment-usage table, inode-map partition
// and buffer cache. Operations on different shards proceed concurrently on
// different threads; the router itself holds no global lock on the hot
// path.
//
// Inode-number space: global numbers are striped by residue — shard i of N
// owns every ino with (ino - 1) % N == i, so ShardOf() is pure arithmetic
// and no shared allocation state exists. The root directory (ino 1) lives
// on shard 0. New children are placed by hashing (parent, name), spreading
// even a single hot directory's files across all logs.
//
// Locking protocol: one mutex per shard. Single-shard operations (the
// common case: read, write, fsync, same-shard namespace ops) take exactly
// their shard's lock and run the native single-log code. Cross-shard
// namespace operations lock the involved shards in ascending index order
// (no deadlock), and compose the Shard* seam primitives of
// lfs_file_system.h. An operation that discovers it needs a lower-indexed
// shard after already holding a higher one releases, re-locks in order, and
// revalidates. Renames additionally serialize on a router-level mutex: the
// cross-shard subtree (cycle) check walks ".." chains with transient
// per-shard locks, and only renames can reparent directories, so holding
// rename_mu_ keeps the directory topology stable for the walk.
//
// Crash semantics across shards: each shard checkpoints and rolls forward
// independently; a cross-shard intent log (lfs_intent.h) closes the gap
// between the halves of a multi-shard namespace operation. Before the
// first shard mutates, the router durably publishes an intent record; on
// mount, unretired intents drive a deterministic reconciliation
// (lfs_repair.h) that completes or rolls back each half-applied operation,
// so CheckShardedLfs reports zero cross-shard damage on every crash image.
// Every shard is individually consistent, fsync durability per inode
// holds, and synced data is never lost; see DESIGN.md §6g/§6i for the
// full contract and the reconciliation decision table.
//
// shard_count 1 is the degenerate configuration: Format and Mount delegate
// to the unmodified single-log LfsFileSystem on the raw device — on-disk
// bytes and DiskStats are identical to the seed, with only a mutex
// acquisition added per operation.
#ifndef LOGFS_SRC_LFS_SHARDED_LFS_H_
#define LOGFS_SRC_LFS_SHARDED_LFS_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/disk/resilient_disk.h"
#include "src/disk/window_disk.h"
#include "src/fsbase/file_system.h"
#include "src/lfs/lfs_check.h"
#include "src/lfs/lfs_file_system.h"
#include "src/lfs/lfs_intent.h"
#include "src/lfs/lfs_repair.h"
#include "src/obs/trace_context.h"

namespace logfs {

class ShardedLfs : public FileSystem {
 public:
  using Options = LfsFileSystem::Options;

  // Formats `device` as `shard_count` independent logs on equal contiguous
  // slices. `params.max_inodes` is the GLOBAL inode budget, split across
  // shards by residue class. shard_count <= 1 produces the seed single-log
  // format (byte-identical). The shard membership is recorded in each
  // slice's superblock; Mount rediscovers it from sector 0.
  static Status Format(BlockDevice* device, const LfsParams& params, uint32_t shard_count);

  // Mounts whatever Format wrote: sharded volumes get one LfsFileSystem per
  // window (each rolling forward independently), unsharded volumes a single
  // passthrough instance on the raw device. `options` applies to every
  // shard (each gets its own cache of the configured size).
  static Result<std::unique_ptr<ShardedLfs>> Mount(BlockDevice* device, SimClock* clock,
                                                   CpuModel* cpu, Options options = {});

  // --- FileSystem interface: safe for concurrent callers ---
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
  Status Sync() override;             // Per-shard checkpoints, ascending order.
  Status Fsync(InodeNum ino) override;
  Status DropCaches() override;
  Status Tick() override;             // Also refreshes logfs.shard.<i>.* gauges.
  std::string name() const override { return "LFS-sharded"; }

  // --- administration / introspection ---
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  // Which shard owns `ino`. Pure arithmetic — callable without locks.
  uint32_t ShardOf(InodeNum ino) const {
    return static_cast<uint32_t>((ino - 1) % shards_.size());
  }
  // Direct access for tests/tools. The caller is responsible for quiescence
  // (no concurrent router operations) while poking a shard directly.
  LfsFileSystem* shard(uint32_t i) { return shards_[i]->fs.get(); }

  // Fan-out: forces a checkpoint on every shard.
  Status Checkpoint();
  // Fan-out: cleans up to `max_victims` segments PER SHARD; returns the
  // total cleaned.
  Result<uint32_t> CleanNow(uint32_t max_victims);
  // Fan-out: scrubs up to `max_segments` PER SHARD; aggregates the reports.
  Result<LfsFileSystem::ScrubReport> Scrub(uint32_t max_segments);
  // Publishes per-shard gauges (logfs.shard.<i>.clean_segments, .live_bytes,
  // .write_cost, ...). Called from Tick(); callable directly by tools.
  void PublishShardMetrics();

  // Cross-shard intent log. Present only on N>=2 volumes formatted with an
  // intent region (the INT1 superblock extension); null on unsharded
  // mounts (shards=1 stays byte-identical to the seed) and on sharded
  // images that predate the region (repair mode covers those).
  bool intent_log_enabled() const { return intents_ != nullptr; }
  IntentLog* intent_log() { return intents_.get(); }
  // What mount-time intent reconciliation did (nullopt when there were no
  // pending intents). For lfs_inspect and tests.
  const std::optional<RepairReport>& reconcile_report() const {
    return reconcile_report_;
  }

 private:
  struct Shard {
    std::unique_ptr<WindowDisk> window;  // null for the unsharded passthrough
    std::unique_ptr<LfsFileSystem> fs;
    std::mutex mu;
  };

  // Shard-mutex acquisition with trace attribution. When the acquiring
  // thread carries an ambient trace context, time blocked on a contended
  // shard becomes a "shard.lock_wait" span and the critical section a
  // "shard.lock_held" span whose id is installed as the ambient parent, so
  // the shard's own op spans nest inside the lock section. Aggregate
  // contention counters (logfs.shard.lock.{wait,held}_us) are kept only for
  // true multi-shard mounts: the degenerate shards=1 mount must leave the
  // metric namespace — and hence the flight-recorder black box —
  // byte-identical to the seed. Waits are measured on the SimClock, which
  // other threads advance while doing the work that blocks us, so a wait's
  // extent is the simulated work the holder did meanwhile.
  class Locked {
   public:
    Locked(ShardedLfs* sfs, uint32_t shard);
    ~Locked();
    Locked(const Locked&) = delete;
    Locked& operator=(const Locked&) = delete;

   private:
    ShardedLfs* sfs_;
    uint32_t shard_;
    std::unique_lock<std::mutex> lock_;
    double held_start_ = 0.0;
    obs::TraceContext ctx_;  // caller's ambient context; inactive = untraced
    uint64_t held_span_ = 0;
    std::optional<obs::TraceContextScope> scope_;
  };

  ShardedLfs() = default;

  LfsFileSystem* fs(uint32_t i) { return shards_[i]->fs.get(); }
  // Deterministic placement of a new child created as (dir, name).
  // Directories are spread by FNV-1a over the name bytes and the parent
  // ino; everything else is colocated on the parent directory's shard.
  // The directory is the placement domain: one client working under its
  // own directory touches exactly one log (no cross-shard creates, no
  // convoying on another client's flush), while the directory tree itself
  // fans out across shards. The cost is that a flat tree — every file in
  // one directory — stays on one log; spread work by spreading the tree.
  uint32_t PlaceShard(InodeNum dir, std::string_view name, FileType type) const;
  // Locks every index in `want` (duplicates fine) in ascending order.
  std::vector<std::unique_lock<std::mutex>> LockSet(std::vector<uint32_t> want);
  // Walks `candidate`'s ".." chain to the root with transient per-shard
  // locks; true if `ancestor` is on the chain (including candidate ==
  // ancestor). Caller must hold rename_mu_ and no shard locks.
  Result<bool> IsInSubtreeGlobal(InodeNum candidate, InodeNum ancestor);

  // Mount-time intent reconciliation: loads pending intents, repairs the
  // namespace from them, syncs every shard and retires the settled slots
  // (in that order — retiring before the repair is durable would leave
  // damage with no intent on a subsequent crash).
  Status ReconcileIntents();
  // Snapshots every shard's durable horizon and retires covered intents.
  // Takes each shard lock briefly; callers must hold none.
  Status RetireDurableIntents();
  // Full drain for a kBusy publish: sync every shard, then retire.
  Status DrainIntents();

  std::vector<std::unique_ptr<Shard>> shards_;
  SimClock* clock_ = nullptr;  // Stamps lock wait/held spans; set at Mount.
  // Serializes renames (N > 1): keeps directory topology stable for the
  // cross-shard cycle walk. Never held across a blocking shard operation
  // other than the rename itself.
  std::mutex rename_mu_;
  // Intent-region I/O retries transient faults and surfaces only
  // persistent media errors (which abort the op unstarted).
  std::unique_ptr<ResilientDisk> intent_dev_;
  std::unique_ptr<IntentLog> intents_;
  std::optional<RepairReport> reconcile_report_;

  friend Result<LfsCheckReport> CheckShardedLfs(ShardedLfs*, bool, RepairMode);
};

// Global consistency check for a sharded mount: runs the per-log checks on
// every shard (LfsChecker::CheckLog — imap resolution, usage exactness,
// address uniqueness, media CRCs, content readability) and then the one
// namespace check (CheckNamespace — rooted acyclic tree, dot entries,
// dirent types, nlink, orphans) across all shards. Problems from shard i's
// per-log checks are prefixed "shard i:".
//
// The check self-serializes against concurrent router operations: it holds
// the rename lock and every shard lock for the duration, so it may run
// online against live traffic. With RepairMode::kRepair, namespace damage
// found by the first pass is fixed in place by the online repairer
// (lfs_repair.h), the shards are synced, and the reported result is the
// post-repair re-check (repairs_applied / repair_actions record the edits)
// — this is the recovery path for images that predate the intent log or
// whose intent region was lost to media faults.
Result<LfsCheckReport> CheckShardedLfs(ShardedLfs* fs, bool verify_data = true,
                                       RepairMode repair = RepairMode::kCheckOnly);

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_SHARDED_LFS_H_
