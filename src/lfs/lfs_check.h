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
// The namespace check (CheckNamespace) sees one or more logs and verifies
// that the directory tree is rooted and acyclic, "." and ".." are correct,
// each dirent's type matches its inode, and nlink counts are exact, with no
// dangling references and no unreachable allocated inodes. A single-log
// volume runs it over its own log (LfsChecker::Check); a sharded volume,
// whose dirents cross shards, runs the per-log checks on every shard and
// then this check across all of them (CheckShardedLfs).
#ifndef LOGFS_SRC_LFS_LFS_CHECK_H_
#define LOGFS_SRC_LFS_LFS_CHECK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

  // Full check of a single-log volume: CheckLog, then CheckNamespace over
  // this log. `verify_data` additionally reads every file's bytes.
  Result<LfsCheckReport> Check(bool verify_data = true);

  // The per-log checks alone, added to `report` with each problem prefixed
  // by `label`. Counts no files or directories: that is the namespace
  // check's.
  Status CheckLog(bool verify_data, const std::string& label, LfsCheckReport* report);

 private:
  LfsFileSystem* fs_;
};

// The namespace check over `logs`, where `logs[home(ino)]` holds inode
// `ino` and the root lives in logs[home(kRootIno)]. Adds the files and
// directories it reaches and its problems to `report`. Reads directories
// and stats inodes, never file content.
void CheckNamespace(std::span<LfsFileSystem* const> logs,
                    const std::function<size_t(InodeNum)>& home, LfsCheckReport* report);

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_CHECK_H_
