// Cross-shard namespace reconciliation and repair (DESIGN.md §6i).
//
// One machine serves two masters:
//
//   * Mount-time intent reconciliation: ShardedLfs::Mount hands the
//     repairer the pending intents (lfs_intent.h) after per-shard
//     roll-forward. Each intent names every half of one cross-shard
//     operation; the repairer probes the actual durable state and settles
//     the operation forward or back (decision table in the .cc / §6i).
//   * The online repairer behind CheckShardedLfs(..., kRepair): the same
//     machine, run with an EMPTY intent list, fixes namespace damage no
//     intent names (an intent region lost to media faults, or damage
//     seeded through the namespace edits) — dangling dirents are dropped,
//     orphans reattached or reaped, dot entries and nlink counts rebuilt.
//
// After the intents, the repairer judges the namespace by the walk the
// checkers render (src/fsbase/namespace_walk.h, through WalkLogs): each
// pass takes one walk before its first edit, makes the entry edits it
// names and settles its orphans, until a walk finds nothing; the last
// walk's nlink findings become the final exact recount. So what the check
// reports is what the repair does. The repairer edits through the same
// per-log namespace edits the op bodies are built from (lfs_file_system.h),
// and does their bookkeeping as an op does: every shard is checked
// writable up front, and each shard it edited gets one FinishEdits at the
// end. It never does incremental nlink arithmetic: the recount (SetNlink)
// sets every count from the walk. That makes it idempotent — re-running
// the repairer on a clean volume performs zero edits.
//
// Callers must hold every shard's lock (and the router's rename lock) for
// the duration; the repairer touches shard structures directly.
#ifndef LOGFS_SRC_LFS_LFS_REPAIR_H_
#define LOGFS_SRC_LFS_LFS_REPAIR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/lfs/lfs_file_system.h"
#include "src/lfs/lfs_intent.h"
#include "src/util/result.h"

namespace logfs {

struct RepairReport {
  uint64_t intents_settled = 0;      // Pending intents reconciled (fwd or back).
  uint64_t dirents_dropped = 0;      // Dangling / duplicate entries removed.
  uint64_t dirents_fixed = 0;        // Dot entries / types repointed.
  uint64_t dirents_added = 0;        // Missing dots, rollback re-inserts,
                                     // lost+found.<i> created.
  uint64_t orphans_reaped = 0;       // Unreachable inodes released.
  uint64_t orphans_reattached = 0;   // Unreachable inodes given a name.
  uint64_t nlinks_fixed = 0;         // Inodes whose recount changed nlink.
  std::vector<std::string> actions;  // Human-readable log, one per edit.

  uint64_t total_edits() const {
    return dirents_dropped + dirents_fixed + dirents_added + orphans_reaped +
           orphans_reattached + nlinks_fixed;
  }
};

// Repairs the cross-shard namespace of `shards` (inode `ino` on
// shards[PartOf(ino, shards.size())]). `pending` is the intent work
// list, op_id-ordered (empty for intent-less repair). Deterministic and
// idempotent; returns what was done.
Result<RepairReport> RepairShardedNamespace(std::span<LfsFileSystem* const> shards,
                                            std::span<const IntentRecord> pending);

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_REPAIR_H_
