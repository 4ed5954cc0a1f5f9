// LfsChecker: offline consistency verification (the LFS analogue of fsck,
// used heavily by the crash-recovery property tests).
//
// The check has two halves. The per-log checks (LfsChecker::CheckLog) see
// one log and, after quiescing it (Sync), verify that:
//   * every allocated inode-map entry resolves to an on-disk inode block
//     whose tagged slot matches (inode number and version);
//   * every allocated inode stats, every directory reads, and (with
//     verify_data) every file's content reads end to end, once;
//   * every live block address lies inside the segment area and no two live
//     pointers reference the same disk block;
//   * the segment usage table matches an exact recount, clean segments hold
//     no live data, and exactly one segment is active;
//   * every live block whose write-time checksum is known still matches it
//     on the medium (silent corruption shows up here even before a reader
//     trips on it), with per-segment failure counts and the number of
//     quarantined segments reported.
// The last three come from one walk of the live-block set
// (LfsFileSystem::WalkLiveBlocks).
//
// The namespace half is the walk FFS's checker and the cross-shard repairer
// also take their verdicts from (src/fsbase/namespace_walk.h), run across
// every log at once (WalkLogs): a rooted tree, correct "." and "..", each
// dirent naming an allocated inode of its type, no unreachable allocated
// inode, and exact nlink counts. CheckLogs runs both halves over one or more
// logs; a single-log volume is one log (LfsChecker::Check), a sharded volume
// its shards (CheckShardedLfs in src/lfs/sharded_lfs.h).
#ifndef LOGFS_SRC_LFS_LFS_CHECK_H_
#define LOGFS_SRC_LFS_LFS_CHECK_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/fsbase/namespace_walk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/util/result.h"

namespace logfs {

// How CheckShardedLfs (src/lfs/sharded_lfs.h) treats namespace damage:
// kCheckOnly reports it; kRepair runs the online repairer
// (src/lfs/lfs_repair.h) first and reports the post-repair state, with the
// edits recorded in LfsCheckReport::repair_actions.
enum class RepairMode {
  kCheckOnly,
  kRepair,
};

struct LfsCheckReport {
  std::vector<std::string> problems;
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t total_bytes = 0;
  // Media verification: live blocks compared against their write-time CRCs.
  uint64_t blocks_checksum_verified = 0;
  uint64_t checksum_failures = 0;
  // Per-segment failure counts (only segments with failures are listed).
  std::vector<std::pair<uint32_t, uint64_t>> segment_checksum_failures;
  uint32_t quarantined_segments = 0;
  bool read_only = false;  // Mount was demoted before/while checking.
  // Populated only by CheckShardedLfs(..., RepairMode::kRepair): what the
  // online repairer changed before the reported (re-)check ran.
  uint64_t repairs_applied = 0;
  std::vector<std::string> repair_actions;

  bool ok() const { return problems.empty(); }
  std::string Summary() const;
  // Records a problem; past the first 64 they are dropped.
  void Complain(std::string problem);
};

class LfsChecker {
 public:
  explicit LfsChecker(LfsFileSystem* fs) : fs_(fs) {}

  // Full check of a single-log volume: CheckLogs over this log.
  // `verify_data` additionally reads every file's bytes.
  Result<LfsCheckReport> Check(bool verify_data = true);

 private:
  friend Result<LfsCheckReport> CheckLogs(std::span<LfsFileSystem* const>, bool);

  // The per-log checks alone, added to `report` with each problem prefixed
  // by `label`. Counts no files or directories: that is the walk's.
  Status CheckLog(bool verify_data, const std::string& label, LfsCheckReport* report);

  LfsFileSystem* fs_;
};

// Both halves over `logs`, where logs[PartOf(ino, logs.size())] holds inode
// `ino`: the per-log checks on each log (problems prefixed "shard i: " when
// there is more than one), then the namespace walk across all of them.
Result<LfsCheckReport> CheckLogs(std::span<LfsFileSystem* const> logs, bool verify_data);

// The namespace walk over `logs`, given every log's allocated inodes. Reads
// directories and stats inodes, never file content.
NamespaceWalk WalkLogs(std::span<LfsFileSystem* const> logs);

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_CHECK_H_
