#include "src/crashsim/explorer.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "src/disk/memory_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/sharded_lfs.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace logfs {

namespace {

// The logs holding `inos`, ascending and distinct.
std::vector<uint32_t> LogsOf(const ShardedLfs& fs, std::initializer_list<InodeNum> inos) {
  std::vector<uint32_t> logs;
  for (InodeNum ino : inos) {
    logs.push_back(fs.ShardOf(ino));
  }
  std::sort(logs.begin(), logs.end());
  logs.erase(std::unique(logs.begin(), logs.end()), logs.end());
  return logs;
}

// Every log's checkpoint count.
std::vector<uint64_t> CheckpointCounts(ShardedLfs* fs) {
  std::vector<uint64_t> counts;
  for (uint32_t i = 0; i < fs->shard_count(); ++i) {
    counts.push_back(fs->shard(i)->checkpoint_count());
  }
  return counts;
}

// Replays the workload against `fs` while shadowing every state change in
// `model`. Op indices are 1-based; the caller closes op 0 (the baseline)
// and op N+1 (the unmount) itself.
Status RunModeledWorkload(const std::vector<TraceOp>& workload, ShardedLfs* fs,
                          const RecordingDisk* rec, WorkloadModel* model) {
  PathFs paths(fs);
  std::vector<std::byte> buffer;
  // The model keeps no inode identity, so it cannot follow a write through
  // one name of a file to its others: such a write is refused.
  auto writable = [&](const std::string& path) -> Result<InodeNum> {
    ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(path));
    ASSIGN_OR_RETURN(FileStat stat, fs->Stat(ino));
    if (stat.nlink > 1) {
      return InvalidArgumentError("crash workload changes " + path + ", which has " +
                                  std::to_string(stat.nlink) + " names");
    }
    return ino;
  };
  for (size_t i = 0; i < workload.size(); ++i) {
    const TraceOp& op = workload[i];
    const size_t op_index = i + 1;
    const std::vector<uint64_t> checkpoints_before = CheckpointCounts(fs);
    WorkloadModel::OpMark mark;
    std::string leaf;
    switch (op.kind) {
      case TraceOp::Kind::kMkdir:
      case TraceOp::Kind::kCreate: {
        const bool mkdir = op.kind == TraceOp::Kind::kMkdir;
        ASSIGN_OR_RETURN(InodeNum dir, paths.ResolveParent(op.path, &leaf));
        ASSIGN_OR_RETURN(InodeNum ino,
                         fs->Create(dir, leaf, mkdir ? FileType::kDirectory : FileType::kRegular));
        if (mkdir) {
          model->SetDir(op_index, op.path);
        } else {
          model->SetFile(op_index, op.path, {});
        }
        mark.logs = LogsOf(*fs, {dir, ino});
        break;
      }
      case TraceOp::Kind::kWrite: {
        ASSIGN_OR_RETURN(InodeNum ino, writable(op.path));
        std::vector<std::byte> payload = TracePayload(op.length, op.seed);
        ASSIGN_OR_RETURN(uint64_t n, fs->Write(ino, op.offset, payload));
        if (n != payload.size()) {
          return IoError("short write during crash exploration workload");
        }
        model->ApplyWrite(op_index, op.path, op.offset, std::move(payload));
        model->InodeChanged(op_index, ino);
        mark.logs = LogsOf(*fs, {ino});
        break;
      }
      case TraceOp::Kind::kRead: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        buffer.resize(op.length);
        RETURN_IF_ERROR(fs->Read(ino, op.offset, buffer).status());
        break;
      }
      case TraceOp::Kind::kUnlink:
      case TraceOp::Kind::kRmdir: {
        ASSIGN_OR_RETURN(InodeNum dir, paths.ResolveParent(op.path, &leaf));
        ASSIGN_OR_RETURN(InodeNum ino, fs->Lookup(dir, leaf));
        RETURN_IF_ERROR(op.kind == TraceOp::Kind::kUnlink ? fs->Unlink(dir, leaf)
                                                          : fs->Rmdir(dir, leaf));
        model->Remove(op_index, op.path);
        model->InodeChanged(op_index, ino);
        mark.logs = LogsOf(*fs, {dir, ino});
        break;
      }
      case TraceOp::Kind::kRename: {
        ASSIGN_OR_RETURN(InodeNum from_dir, paths.ResolveParent(op.path, &leaf));
        ASSIGN_OR_RETURN(InodeNum ino, fs->Lookup(from_dir, leaf));
        std::string to_leaf;
        ASSIGN_OR_RETURN(InodeNum to_dir, paths.ResolveParent(op.path2, &to_leaf));
        // A replaced victim is unlinked; with none, `ino` stands in for it.
        const InodeNum victim = fs->Lookup(to_dir, to_leaf).value_or(ino);
        RETURN_IF_ERROR(fs->Rename(from_dir, leaf, to_dir, to_leaf));
        model->Rename(op_index, op.path, op.path2);
        if (victim != ino) {
          model->InodeChanged(op_index, victim);
        }
        mark.logs = LogsOf(*fs, {from_dir, to_dir, ino, victim});
        break;
      }
      case TraceOp::Kind::kLink: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        ASSIGN_OR_RETURN(InodeNum dir, paths.ResolveParent(op.path2, &leaf));
        RETURN_IF_ERROR(fs->Link(dir, leaf, ino));
        model->Link(op_index, op.path, op.path2);
        mark.logs = LogsOf(*fs, {dir, ino});
        break;
      }
      case TraceOp::Kind::kTruncate: {
        ASSIGN_OR_RETURN(InodeNum ino, writable(op.path));
        RETURN_IF_ERROR(fs->Truncate(ino, op.length));
        model->Truncate(op_index, op.path, op.length);
        model->InodeChanged(op_index, ino);
        mark.logs = LogsOf(*fs, {ino});
        break;
      }
      case TraceOp::Kind::kSync:
        RETURN_IF_ERROR(fs->Sync());
        mark.global_barrier = true;
        break;
      case TraceOp::Kind::kFsync: {
        ASSIGN_OR_RETURN(InodeNum ino, paths.Resolve(op.path));
        RETURN_IF_ERROR(fs->Fsync(ino));
        model->Fsynced(op_index, op.path, ino);
        mark.fsynced_log = fs->ShardOf(ino);
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
    // A checkpoint on every log that completed inside a state-neutral op is
    // a global barrier at this op's close: the checkpointed state is exactly
    // the logical state at both ends of the op. (A mid-op checkpoint inside
    // a mutating op commits an intermediate state, so no barrier is claimed
    // — the Oracle's old-or-new/torn acceptance covers what it exposed; nor
    // is one claimed when only some logs checkpointed.)
    const bool state_neutral =
        op.kind == TraceOp::Kind::kSync || op.kind == TraceOp::Kind::kFsync ||
        op.kind == TraceOp::Kind::kRead || op.kind == TraceOp::Kind::kIdle ||
        op.kind == TraceOp::Kind::kClean;
    if (state_neutral &&
        std::ranges::equal(checkpoints_before, CheckpointCounts(fs), std::less<>())) {
      mark.global_barrier = true;  // Every log's count went up.
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

std::string ExploreReport::Violations() const {
  std::string lines;
  for (const CrashStateResult& result : results) {
    for (const std::string& violation : result.verdict.violations) {
      lines += result.plan.Describe() + (result.roll_forward ? " [rf] " : " [cp] ") +
               violation + "\n";
    }
  }
  return lines;
}

Result<CrashRecording> RecordCrashWorkload(const std::vector<TraceOp>& workload,
                                           const ExploreRigParams& rig) {
  // Format, snapshot the pristine image, and mount through the recorder.
  MemoryDisk disk(rig.sectors, /*clock=*/nullptr);
  RETURN_IF_ERROR(ShardedLfs::Format(&disk, rig.lfs, rig.lfs.shard_count));
  CrashRecording recording;
  std::span<const std::byte> formatted = disk.RawImage();
  recording.base_image.assign(formatted.begin(), formatted.end());

  RecordingDisk rec(&disk);
  ASSIGN_OR_RETURN(auto fs, ShardedLfs::Mount(&rec, /*clock=*/nullptr, /*cpu=*/nullptr,
                                              rig.mount_options));

  // Run the workload, shadowing it in the model. Op 0 is the baseline
  // (format + mount): a global barrier — before any workload op, the
  // durable state is "everything absent".
  WorkloadModel& model = recording.model;
  model.CloseOp({rec.write_count(), /*global_barrier=*/true, {}, {}});
  RETURN_IF_ERROR(RunModeledWorkload(workload, fs.get(), &rec, &model));
  fs.reset();  // Unmount checkpoints every log: one final barrier.
  model.CloseOp({rec.write_count(), /*global_barrier=*/true, {}, {}});
  recording.writes = rec.writes();
  return recording;
}

Result<ExploreReport> JudgeCrashStates(const CrashRecording& recording,
                                       const CrashEnumerationBudget& budget,
                                       const LfsFileSystem::Options& mount_options) {
  // Pin a boundary before and after every intent-region write: "before"
  // is the op never having started (or never retired), "after" the
  // published-but-unapplied (or retired) record itself.
  if (recording.base_image.size() < 4096) {
    return InvalidArgumentError("crash recording has no superblock");
  }
  ASSIGN_OR_RETURN(LfsSuperblock sb, DecodeLfsSuperblock(std::span<const std::byte>(
                                         recording.base_image.data(), 4096)));
  std::vector<size_t> forced;
  for (size_t i = 0; sb.has_intent_region() && i < recording.writes.size(); ++i) {
    if (recording.writes[i].first >= sb.intent_start_sector) {
      forced.push_back(i);
      forced.push_back(i + 1);
    }
  }

  CrashImageGenerator generator(recording.base_image, &recording.writes);
  std::vector<CrashPlan> plans =
      generator.Enumerate(budget, recording.model.BarrierWritePositions(), forced);

  ExploreReport report;
  report.journal_writes = recording.writes.size();
  report.plans = plans.size();
  Oracle oracle(&recording.model);
  for (const CrashPlan& plan : plans) {
    ASSIGN_OR_RETURN(OverlayDisk image, generator.Image(plan));
    for (bool roll_forward : {true, false}) {
      CrashStateResult result{plan, roll_forward,
                              oracle.CheckImage(image, plan.prefix, roll_forward, mount_options)};
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

Result<ExploreReport> ExploreCrashStates(const std::vector<TraceOp>& workload,
                                         const CrashEnumerationBudget& budget,
                                         const ExploreRigParams& rig) {
  ASSIGN_OR_RETURN(CrashRecording recording, RecordCrashWorkload(workload, rig));
  return JudgeCrashStates(recording, budget, rig.mount_options);
}

}  // namespace logfs
