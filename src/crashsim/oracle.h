// WorkloadModel + Oracle: the judge of the crash-state explorer.
//
// The model shadows a workload run op by op: every path's history of
// logical states (file contents, absence, directory-ness), and per op the
// journal length (recorded write count) when it returned, the logs holding
// the directories and inodes it edited, and its barrier kind. Given "the
// disk died after journal write N", the Oracle derives what a correct LFS
// must show after remount, on one log or the ShardedLfs router's N:
//
//   * the mount succeeds — a crash may lose data, never the volume;
//   * CheckShardedLfs is clean — every log, and the namespace across them;
//   * durable state is present. An op is covered by a later completed Sync
//     (both mount modes) or, under roll-forward, by later completed Fsyncs
//     on each log it edited: an Fsync flushes its inode's whole log, so on
//     one log it covers every path. A path is durable up to the first
//     uncovered change to it or to an ancestor — a name is only as durable
//     as the directories it is reached through;
//   * newer state is atomically old-or-new: one of the path's modeled
//     states after the durable floor (for an in-flight `write`, a prefix of
//     its payload too — write(2) has no crash atomicity across blocks);
//   * under roll-forward, an inode whose Fsync completed reads back the
//     bytes it had then, wherever its name went since (the router's
//     per-inode fsync contract, sharded_lfs.h), until a later op writes,
//     truncates or unlinks it.
#ifndef LOGFS_SRC_CRASHSIM_ORACLE_H_
#define LOGFS_SRC_CRASHSIM_ORACLE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/disk/overlay_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/util/result.h"

namespace logfs {

class WorkloadModel {
 public:
  static constexpr size_t kNever = std::numeric_limits<size_t>::max();

  enum class StateKind { kAbsent, kFile, kDir };

  struct PathState {
    StateKind kind = StateKind::kAbsent;
    std::vector<std::byte> content;  // kFile only.
  };

  // Present when an event came from a `write` op: lets the Oracle accept a
  // torn prefix of the payload (the crash hit mid-flush of this write).
  struct WriteShape {
    std::vector<std::byte> pre;  // Path content before the write.
    uint64_t offset = 0;
    std::vector<std::byte> payload;
  };

  struct PathEvent {
    size_t op_index = 0;
    PathState state;
    std::optional<WriteShape> write;
  };

  // Close-of-op bookkeeping. Index 0 is the baseline (format + mount, a
  // global barrier by construction); workload ops use indices 1..N.
  struct OpMark {
    size_t writes_after = 0;      // Journal length when the op returned.
    bool global_barrier = false;  // A completed Sync: every log, both mount modes.
    // Logs holding the directories and inodes the op edited. An op that
    // names none is covered only by a global barrier.
    std::vector<uint32_t> logs;
    // An Fsync's log: durable up to this op under roll-forward.
    std::optional<uint32_t> fsynced_log;
  };

  // An inode whose Fsync completed at `op_index`, with the bytes it had.
  struct FsyncedInode {
    size_t op_index = 0;
    InodeNum ino = 0;
    std::vector<std::byte> content;
    size_t changed_at = kNever;  // First later op that wrote, truncated or unlinked it.
  };

  // --- recording (called by the explorer's executor) ---
  void SetFile(size_t op, const std::string& path, std::vector<std::byte> content);
  void ApplyWrite(size_t op, const std::string& path, uint64_t offset,
                  std::vector<std::byte> payload);
  void SetDir(size_t op, const std::string& path);
  void Remove(size_t op, const std::string& path);
  // Moves `from` and every modeled path under it.
  void Rename(size_t op, const std::string& from, const std::string& to);
  // `to` names `from`'s state. The model keeps no inode identity, so the
  // recorder must not write through either name while both exist.
  void Link(size_t op, const std::string& from, const std::string& to);
  void Truncate(size_t op, const std::string& path, uint64_t size);
  // Fsync of `path`, a regular file, whose inode is `ino`.
  void Fsynced(size_t op, const std::string& path, InodeNum ino);
  // Op `op` wrote, truncated or unlinked `ino`: it ends the fsync rule for
  // every earlier Fsync of that inode.
  void InodeChanged(size_t op, InodeNum ino);
  // Closes op `op`; ops must be closed in order, one mark per op index.
  void CloseOp(OpMark mark);

  // --- queries ---
  const std::map<std::string, std::vector<PathEvent>>& histories() const {
    return histories_;
  }
  const std::vector<OpMark>& marks() const { return marks_; }
  const std::vector<FsyncedInode>& fsynced() const { return fsynced_; }
  // Current (end-of-workload) state of a path; absent if never modeled.
  PathState Current(const std::string& path) const;
  // Journal positions of every completed barrier (for reorder enumeration).
  std::vector<size_t> BarrierWritePositions() const;

 private:
  void PushEvent(size_t op, const std::string& path, PathState state,
                 std::optional<WriteShape> write = std::nullopt);

  std::map<std::string, std::vector<PathEvent>> histories_;
  std::map<std::string, PathState> current_;
  std::vector<OpMark> marks_;
  std::vector<FsyncedInode> fsynced_;
};

// Violations found in one crash image under one mount mode.
struct OracleVerdict {
  bool reconciled = false;     // Mount settled pending cross-shard intents.
  size_t fsynced_checked = 0;  // Inodes the fsync rule read back.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

class Oracle {
 public:
  explicit Oracle(const WorkloadModel* model) : model_(model) {}

  // Mounts a fork of `image` (recovery's writes stay in the fork) through
  // ShardedLfs with roll_forward as given, runs CheckShardedLfs, and
  // validates the durability contract for a crash that cut the journal
  // after `crash_prefix` complete writes.
  OracleVerdict CheckImage(const OverlayDisk& image, size_t crash_prefix, bool roll_forward,
                           const LfsFileSystem::Options& base_options) const;

  // The last op up to which `path` is durable at `crash_prefix` under the
  // given mount mode: the op before the first change to the path or an
  // ancestor that no completed barrier covers.
  size_t DurableFloor(const std::string& path, size_t crash_prefix, bool roll_forward) const;

 private:
  const WorkloadModel* model_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_CRASHSIM_ORACLE_H_
