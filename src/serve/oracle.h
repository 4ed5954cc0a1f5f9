// ExploreServeCrashStates: the end-to-end "zero stale reads" proof for the
// multi-client file service.
//
// The run: a recorded ServeCluster executes a shared Zipf workload while
// two referees watch. Online, the ShadowModel byte-checks every client read
// against the lease-serialized write order. For the crash sweep, the
// server's open/write/sync hooks shadow every server-side mutation into a
// crashsim WorkloadModel: each applied write is an op closed at the current
// journal length, and each durable-horizon advance (commit, pre-grant sync,
// background checkpoint) is a global barrier.
//
// The sweep: the crash explorer's judge (src/crashsim/explorer.h) takes
// the recorded journal and the model and remounts every crash image
// (prefix/torn/reorder) under roll-forward and checkpoint-only recovery.
// The serve-level claim this proves is exactly the lease protocol's
// grant-time durability rule: anything a client could have
// observed under a granted lease was synced before the grant, so it sits at
// or below a barrier — and the Oracle fails any image where content behind
// a barrier is missing (a stale read after recovery) or ahead of the write
// chain (corruption).
//
// One conservatism: a sync barrier is only claimed when the advanced
// horizon covers every modeled mutation so far. A checkpoint racing a write
// mid-op is skipped — weakening the floor, never faking one.
#ifndef LOGFS_SRC_SERVE_ORACLE_H_
#define LOGFS_SRC_SERVE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crashsim/explorer.h"
#include "src/serve/cluster.h"
#include "src/util/result.h"
#include "src/workload/serve_load.h"

namespace logfs::serve {

struct ServeCrashSweepParams {
  ServeLoadParams load;
  // record_disk, clients, and the server hooks are overridden internally.
  ServeClusterParams cluster;
  CrashEnumerationBudget budget;
};

struct ServeCrashReport {
  ExploreReport crash;  // The judged crash states.
  // The online referee's tally from the recorded run itself.
  uint64_t online_reads_checked = 0;
  uint64_t online_violations = 0;
  uint64_t ops_completed = 0;
  uint64_t drive_errors = 0;
  std::vector<std::string> online_errors;  // The referee's and the driver's reports.

  bool ok() const { return crash.ok() && online_violations == 0 && drive_errors == 0; }
  std::string Summary() const;
};

Result<ServeCrashReport> ExploreServeCrashStates(const ServeCrashSweepParams& params);

}  // namespace logfs::serve

#endif  // LOGFS_SRC_SERVE_ORACLE_H_
