#include "src/crashsim/explorer.h"

#include <cstring>
#include <sstream>

#include "src/disk/memory_disk.h"
#include "src/disk/recording_disk.h"
#include "src/fsbase/path.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace logfs {

namespace {

// Replays the workload against `fs` while shadowing every state change in
// `model`. Op indices are 1-based; the caller closes op 0 (the baseline)
// and op N+1 (the unmount) itself.
Status RunModeledWorkload(const std::vector<TraceOp>& workload, LfsFileSystem* fs,
                          const RecordingDisk* rec, WorkloadModel* model) {
  PathFs paths(fs);
  std::vector<std::byte> buffer;
  for (size_t i = 0; i < workload.size(); ++i) {
    const TraceOp& op = workload[i];
    const size_t op_index = i + 1;
    const uint64_t checkpoints_before = fs->checkpoint_count();
    WorkloadModel::OpMark mark;
    switch (op.kind) {
      case TraceOp::Kind::kMkdir:
        RETURN_IF_ERROR(paths.Mkdir(op.path).status());
        model->SetDir(op_index, op.path);
        break;
      case TraceOp::Kind::kCreate:
        RETURN_IF_ERROR(paths.CreateFile(op.path).status());
        model->SetFile(op_index, op.path, {});
        break;
      case TraceOp::Kind::kWrite: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        std::vector<std::byte> payload = TracePayload(op.length, op.seed);
        ASSIGN_OR_RETURN(uint64_t n, fs->Write(ino, op.offset, payload));
        if (n != payload.size()) {
          return IoError("short write during crash exploration workload");
        }
        model->ApplyWrite(op_index, op.path, op.offset, std::move(payload));
        break;
      }
      case TraceOp::Kind::kRead: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        buffer.resize(op.length);
        RETURN_IF_ERROR(fs->Read(ino, op.offset, buffer).status());
        break;
      }
      case TraceOp::Kind::kUnlink:
        RETURN_IF_ERROR(paths.Unlink(op.path));
        model->Remove(op_index, op.path);
        break;
      case TraceOp::Kind::kRmdir:
        RETURN_IF_ERROR(paths.Rmdir(op.path));
        model->Remove(op_index, op.path);
        break;
      case TraceOp::Kind::kRename:
        RETURN_IF_ERROR(paths.Rename(op.path, op.path2));
        model->Rename(op_index, op.path, op.path2);
        break;
      case TraceOp::Kind::kTruncate: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        RETURN_IF_ERROR(fs->Truncate(ino, op.length));
        model->Truncate(op_index, op.path, op.length);
        break;
      }
      case TraceOp::Kind::kSync:
        RETURN_IF_ERROR(fs->Sync());
        mark.global_barrier = true;
        break;
      case TraceOp::Kind::kFsync: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        RETURN_IF_ERROR(fs->Fsync(ino));
        mark.fsync_path = op.path;
        break;
      }
      case TraceOp::Kind::kIdle:
        // The explorer rig runs without a clock; Tick still runs the
        // cleaner / checkpoint policy once.
        RETURN_IF_ERROR(fs->Tick());
        break;
      case TraceOp::Kind::kClean:
        RETURN_IF_ERROR(fs->CleanNow(static_cast<uint32_t>(op.length)).status());
        break;
    }
    // A checkpoint that completed inside a state-neutral op is a global
    // barrier at this op's close: the checkpointed state is exactly the
    // logical state at both ends of the op. (A mid-op checkpoint inside a
    // mutating op commits an intermediate state, so no barrier is claimed —
    // the Oracle's old-or-new/torn acceptance covers what it exposed.)
    const bool state_neutral =
        op.kind == TraceOp::Kind::kSync || op.kind == TraceOp::Kind::kFsync ||
        op.kind == TraceOp::Kind::kRead || op.kind == TraceOp::Kind::kIdle ||
        op.kind == TraceOp::Kind::kClean;
    if (state_neutral && fs->checkpoint_count() > checkpoints_before) {
      mark.global_barrier = true;
    }
    mark.writes_after = rec->write_count();
    model->CloseOp(std::move(mark));
  }
  return OkStatus();
}

}  // namespace

std::string ExploreReport::Summary() const {
  std::ostringstream os;
  os << "crash exploration: " << journal_writes << " journal writes, " << plans
     << " crash images, " << states_checked << " states checked, " << failed_states
     << " failed (" << violations << " violations)";
  return os.str();
}

Result<ExploreReport> ExploreCrashStates(const std::vector<TraceOp>& workload,
                                         const ExploreBudget& budget,
                                         const ExploreRigParams& rig) {
  // 1. Format, snapshot the pristine image, and mount through the recorder.
  MemoryDisk disk(rig.sectors, /*clock=*/nullptr);
  RETURN_IF_ERROR(LfsFileSystem::Format(&disk, rig.lfs));
  std::span<const std::byte> formatted = disk.RawImage();
  std::vector<std::byte> base_image(formatted.begin(), formatted.end());

  RecordingDisk rec(&disk);
  ASSIGN_OR_RETURN(auto fs,
                   LfsFileSystem::Mount(&rec, /*clock=*/nullptr, /*cpu=*/nullptr,
                                        rig.mount_options));

  // 2. Run the workload, shadowing it in the model. Op 0 is the baseline
  // (format + mount): a global barrier — before any workload op, the
  // durable state is "everything absent".
  WorkloadModel model;
  model.CloseOp({rec.write_count(), /*global_barrier=*/true, {}});
  RETURN_IF_ERROR(RunModeledWorkload(workload, fs.get(), &rec, &model));
  fs.reset();  // Unmount syncs: one final checkpoint, one final barrier.
  model.CloseOp({rec.write_count(), /*global_barrier=*/true, {}});

  // 3. Enumerate and judge crash states.
  CrashEnumerationBudget enumeration;
  enumeration.max_boundaries = budget.max_boundaries;
  enumeration.torn_variants = budget.torn_variants;
  enumeration.reorder_within_epoch = budget.reorder_within_epoch;
  enumeration.max_drops_per_boundary = budget.max_drops_per_boundary;

  CrashImageGenerator generator(std::move(base_image), &rec.writes());
  std::vector<CrashPlan> plans =
      generator.Enumerate(enumeration, model.BarrierWritePositions());

  std::vector<bool> modes;
  if (budget.check_roll_forward) modes.push_back(true);
  if (budget.check_checkpoint_only) modes.push_back(false);
  if (modes.empty()) {
    return InvalidArgumentError("crash exploration needs at least one mount mode");
  }

  ExploreReport report;
  report.journal_writes = rec.write_count();
  report.plans = plans.size();
  Oracle oracle(&model, rig.sectors);
  for (const CrashPlan& plan : plans) {
    ASSIGN_OR_RETURN(std::vector<std::byte> image, generator.Materialize(plan));
    for (bool roll_forward : modes) {
      CrashStateResult result;
      result.plan = plan;
      result.roll_forward = roll_forward;
      result.verdict = oracle.CheckImage(image, plan.prefix, roll_forward,
                                         rig.mount_options, budget.verify_data);
      ++report.states_checked;
      if (!result.verdict.ok()) {
        ++report.failed_states;
        report.violations += result.verdict.violations.size();
      }
      // One verdict event per judged image; the oracle's own mounts run
      // clock-less, so events land at t=0 in enumeration order (seq).
      if constexpr (obs::kMetricsEnabled) {
        obs::Tracer().RecordInstant(
            "crashsim", "verdict", 0.0,
            {{"plan", plan.Describe()},
             {"roll_forward", roll_forward ? "true" : "false"},
             {"ok", result.verdict.ok() ? "true" : "false"},
             {"violations", std::to_string(result.verdict.violations.size())}});
      }
      report.results.push_back(std::move(result));
    }
  }
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().GetCounter("logfs.crashsim.plans").Increment(report.plans);
    obs::Registry().GetCounter("logfs.crashsim.states_checked").Increment(report.states_checked);
    obs::Registry().GetCounter("logfs.crashsim.failed_states").Increment(report.failed_states);
    obs::Registry().GetCounter("logfs.crashsim.violations").Increment(report.violations);
  }
  return report;
}

}  // namespace logfs
