#include "src/serve/oracle.h"

#include <sstream>
#include <utility>

#include "src/serve/driver.h"

namespace logfs::serve {

std::string ServeCrashReport::Summary() const {
  std::ostringstream os;
  os << "serve crash sweep: " << ops_completed << " client ops (" << drive_errors
     << " errors), " << online_reads_checked << " reads checked online ("
     << online_violations << " stale); " << crash.Summary();
  return os.str();
}

Result<ServeCrashReport> ExploreServeCrashStates(const ServeCrashSweepParams& params) {
  ServeClusterParams cp = params.cluster;
  cp.record_disk = true;
  cp.clients = params.load.clients;
  cp.mount_options.roll_forward = true;  // The protocol's recovery contract.

  CrashRecording recording;
  WorkloadModel& model = recording.model;
  size_t op_index = 0;
  uint64_t last_modeled_seq = 0;
  RecordingDisk* rec = nullptr;  // Bound after Create; hooks fire only later.

  cp.server_open_hook = [&](const std::string& path, uint64_t seq) {
    model.SetFile(++op_index, path, {});
    model.CloseOp({rec->write_count(), /*global_barrier=*/false, {}, {}});
    last_modeled_seq = seq;
  };
  cp.server_write_hook = [&](const std::string& path, uint64_t offset,
                             std::span<const std::byte> data, uint64_t seq) {
    model.ApplyWrite(++op_index, path, offset, {data.begin(), data.end()});
    model.CloseOp({rec->write_count(), /*global_barrier=*/false, {}, {}});
    last_modeled_seq = seq;
  };
  cp.server_sync_hook = [&](uint64_t synced_seq) {
    // Positional barrier: only sound when the horizon covers every mutation
    // modeled so far (see header).
    if (synced_seq >= last_modeled_seq) {
      ++op_index;
      model.CloseOp({rec->write_count(), /*global_barrier=*/true, {}, {}});
    }
  };

  ASSIGN_OR_RETURN(auto cluster, ServeCluster::Create(cp));
  rec = cluster->recording();
  // Op 0, the baseline: format + mount, durably empty.
  model.CloseOp({rec->write_count(), /*global_barrier=*/true, {}, {}});

  ServeLoad load = MakeSharedLoad(params.load);
  ASSIGN_OR_RETURN(DriveStats drive, DriveSharedLoad(*cluster, load));

  // Final quiesce: the complete image must show exactly the end state.
  RETURN_IF_ERROR(cluster->fs()->Sync());
  ++op_index;
  model.CloseOp({rec->write_count(), /*global_barrier=*/true, {}, {}});

  recording.base_image = cluster->base_image();
  recording.writes = rec->writes();
  ServeCrashReport report;
  ASSIGN_OR_RETURN(report.crash, JudgeCrashStates(recording, params.budget, cp.mount_options));
  report.ops_completed = drive.ops_completed;
  report.drive_errors = drive.errors;
  report.online_reads_checked = cluster->shadow().reads_checked();
  report.online_violations = cluster->shadow().violation_count();
  for (const std::string& v : cluster->shadow().violations()) {
    report.online_errors.push_back("online: " + v);
  }
  for (const std::string& e : drive.first_errors) {
    report.online_errors.push_back("drive: " + e);
  }
  return report;
}

}  // namespace logfs::serve
