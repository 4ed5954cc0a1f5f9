// WorkloadModel + Oracle: the judge of the crash-state explorer.
//
// The model shadows a workload run op by op: for every path it keeps the
// complete history of logical states (file content versions, absence,
// directory-ness), and for every op the journal length (recorded write
// count) at which the op returned, plus whether the op was a durability
// barrier. From that, given "the disk died after journal write N", the
// Oracle derives what a correct LFS must show after remount:
//
//   * the mount itself must succeed — a crash may lose data, never the
//     volume;
//   * LfsChecker::Check must be clean — no structural damage;
//   * durable state must be fully present: for a roll-forward mount, every
//     path covered by a completed sync/checkpoint or a completed
//     fsync(path); for a checkpoint-only mount, every path covered by a
//     completed sync/checkpoint;
//   * non-durable state must be atomically old-or-new: a path's observed
//     content must equal one of its modeled states between the durable
//     floor and the end of the workload (for in-flight `write` ops, a
//     prefix of the payload is also acceptable — write(2) has no crash
//     atomicity across blocks).
#ifndef LOGFS_SRC_CRASHSIM_ORACLE_H_
#define LOGFS_SRC_CRASHSIM_ORACLE_H_

#include <cstdint>
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
    size_t writes_after = 0;   // Journal length when the op returned.
    bool global_barrier = false;
    std::string fsync_path;    // Non-empty: per-path barrier (roll-forward).
  };

  // --- recording (called by the explorer's executor) ---
  void SetFile(size_t op, const std::string& path, std::vector<std::byte> content);
  void ApplyWrite(size_t op, const std::string& path, uint64_t offset,
                  std::vector<std::byte> payload);
  void SetDir(size_t op, const std::string& path);
  void Remove(size_t op, const std::string& path);
  void Rename(size_t op, const std::string& from, const std::string& to);
  void Truncate(size_t op, const std::string& path, uint64_t size);
  // Closes op `op`; ops must be closed in order, one mark per op index.
  void CloseOp(OpMark mark);

  // --- queries ---
  const std::map<std::string, std::vector<PathEvent>>& histories() const {
    return histories_;
  }
  const std::vector<OpMark>& marks() const { return marks_; }
  // Current (end-of-workload) state of a path.
  const PathState* Current(const std::string& path) const;
  // Journal positions of every completed barrier (for reorder enumeration).
  std::vector<size_t> BarrierWritePositions() const;

 private:
  void PushEvent(size_t op, const std::string& path, PathState state,
                 std::optional<WriteShape> write = std::nullopt);

  std::map<std::string, std::vector<PathEvent>> histories_;
  std::map<std::string, PathState> current_;
  std::vector<OpMark> marks_;
};

// Violations found in one crash image under one mount mode.
struct OracleVerdict {
  bool mount_ok = false;
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

class Oracle {
 public:
  explicit Oracle(const WorkloadModel* model) : model_(model) {}

  // Mounts a fork of `image` (recovery's writes stay in the fork) with
  // roll_forward as given, runs LfsChecker, and validates the durability
  // contract for a crash that cut the journal after `crash_prefix` complete
  // writes.
  OracleVerdict CheckImage(const OverlayDisk& image, size_t crash_prefix, bool roll_forward,
                           const LfsFileSystem::Options& base_options, bool verify_data) const;

 private:
  // Index of the last op (≤ all marks) whose guarantees were durable at
  // `crash_prefix` for `path` under the given mount mode.
  size_t DurableFloor(const std::string& path, size_t crash_prefix,
                      bool roll_forward) const;

  const WorkloadModel* model_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_CRASHSIM_ORACLE_H_
