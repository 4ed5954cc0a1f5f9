// DriveSharedLoad: replays generated shared-file schedules
// (workload/serve_load.h) against a ServeCluster — each client walks its
// schedule sequentially, pausing for the generated think times, opening
// handles lazily on first touch. The same driver feeds the scenario tests,
// the crash-image sweep, and the benchmark binary, so they all exercise the
// identical protocol paths.
#ifndef LOGFS_SRC_SERVE_DRIVER_H_
#define LOGFS_SRC_SERVE_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/cluster.h"
#include "src/util/result.h"
#include "src/workload/serve_load.h"

namespace logfs::serve {

struct DriveStats {
  uint64_t ops_completed = 0;
  uint64_t errors = 0;
  std::vector<std::string> first_errors;  // Up to 8, for diagnostics.
};

// Requires load.schedules.size() <= cluster.num_clients(). Creates any
// missing parent directories of load.paths directly on the server's file
// system before driving. Each client commits and closes every handle once
// its schedule is exhausted, leaving the server with no dirty client state.
// Returns BusyError if the run exceeds its event budget (a protocol
// livelock).
Result<DriveStats> DriveSharedLoad(ServeCluster& cluster, const ServeLoad& load);

}  // namespace logfs::serve

#endif  // LOGFS_SRC_SERVE_DRIVER_H_
