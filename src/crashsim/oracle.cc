#include "src/crashsim/oracle.h"

#include <algorithm>
#include <cstring>

#include "src/fsbase/path.h"
#include "src/lfs/lfs_blackbox.h"
#include "src/lfs/sharded_lfs.h"
#include "src/obs/metrics.h"

namespace logfs {

// --- WorkloadModel ---------------------------------------------------------------

void WorkloadModel::PushEvent(size_t op, const std::string& path, PathState state,
                              std::optional<WriteShape> write) {
  current_[path] = state;
  histories_[path].push_back(PathEvent{op, std::move(state), std::move(write)});
}

void WorkloadModel::SetFile(size_t op, const std::string& path,
                            std::vector<std::byte> content) {
  PushEvent(op, path, PathState{StateKind::kFile, std::move(content)});
}

void WorkloadModel::ApplyWrite(size_t op, const std::string& path, uint64_t offset,
                               std::vector<std::byte> payload) {
  WriteShape shape{Current(path).content, offset, std::move(payload)};
  std::vector<std::byte> content = shape.pre;
  if (content.size() < offset + shape.payload.size()) {
    content.resize(offset + shape.payload.size(), std::byte{0});
  }
  std::copy(shape.payload.begin(), shape.payload.end(),
            content.begin() + static_cast<ptrdiff_t>(offset));
  PushEvent(op, path, PathState{StateKind::kFile, std::move(content)}, std::move(shape));
}

void WorkloadModel::SetDir(size_t op, const std::string& path) {
  PushEvent(op, path, PathState{StateKind::kDir, {}});
}

void WorkloadModel::Remove(size_t op, const std::string& path) {
  PushEvent(op, path, PathState{StateKind::kAbsent, {}});
}

void WorkloadModel::Rename(size_t op, const std::string& from, const std::string& to) {
  // A directory carries its subtree: every modeled path under `from` moves
  // with it, to the same place under `to`. Each entry is a suffix of `from`.
  std::vector<std::pair<std::string, PathState>> moved = {{"", Current(from)}};
  for (const auto& [path, state] : current_) {
    if (path.size() > from.size() && path[from.size()] == '/' && path.starts_with(from) &&
        state.kind != StateKind::kAbsent) {
      moved.emplace_back(path.substr(from.size()), state);
    }
  }
  for (const auto& [suffix, state] : moved) {
    PushEvent(op, from + suffix, PathState{});
  }
  for (auto& [suffix, state] : moved) {
    PushEvent(op, to + suffix, std::move(state));
  }
}

void WorkloadModel::Link(size_t op, const std::string& from, const std::string& to) {
  PushEvent(op, to, Current(from));
}

void WorkloadModel::Truncate(size_t op, const std::string& path, uint64_t size) {
  PathState state = Current(path);
  state.kind = StateKind::kFile;
  state.content.resize(size, std::byte{0});
  PushEvent(op, path, std::move(state));
}

void WorkloadModel::Fsynced(size_t op, const std::string& path, InodeNum ino) {
  PathState state = Current(path);
  if (state.kind == StateKind::kFile) {
    fsynced_.push_back(FsyncedInode{op, ino, std::move(state.content)});
  }
}

void WorkloadModel::InodeChanged(size_t op, InodeNum ino) {
  for (FsyncedInode& f : fsynced_) {
    if (f.ino == ino && f.changed_at == kNever) {
      f.changed_at = op;
    }
  }
}

void WorkloadModel::CloseOp(OpMark mark) { marks_.push_back(std::move(mark)); }

WorkloadModel::PathState WorkloadModel::Current(const std::string& path) const {
  auto it = current_.find(path);
  return it == current_.end() ? PathState{} : it->second;
}

std::vector<size_t> WorkloadModel::BarrierWritePositions() const {
  std::vector<size_t> positions;
  for (const OpMark& mark : marks_) {
    if (mark.global_barrier || mark.fsynced_log.has_value()) {
      positions.push_back(mark.writes_after);
    }
  }
  return positions;
}

// --- Oracle ----------------------------------------------------------------------

namespace {

// True if `actual` equals `pre` with some prefix of `payload` applied at
// `offset` — the states a crash can expose while a write(2) is mid-flush.
bool MatchesPartialWrite(const std::vector<std::byte>& actual,
                         const WorkloadModel::WriteShape& w) {
  const size_t pre_size = w.pre.size();
  const size_t off = static_cast<size_t>(w.offset);
  auto pre_at = [&](size_t i) { return i < pre_size ? w.pre[i] : std::byte{0}; };
  if (actual.size() < pre_size) {
    return false;  // Writes never shrink a file.
  }
  // Bytes below the write offset must match the pre-image (zero for holes).
  const size_t head = std::min(off, actual.size());
  for (size_t i = 0; i < head; ++i) {
    if (actual[i] != pre_at(i)) {
      return false;
    }
  }
  if (actual.size() > pre_size) {
    // The file grew: the torn prefix must account exactly for the new size.
    if (actual.size() < off || actual.size() - off > w.payload.size()) {
      return false;
    }
    const size_t l = actual.size() - off;
    return std::memcmp(actual.data() + off, w.payload.data(), l) == 0;
  }
  // Size unchanged: payload prefix [off, off+l), pre-image suffix beyond.
  size_t l_min = 0;
  for (size_t k = pre_size; k-- > off;) {
    if (actual[k] != pre_at(k)) {
      l_min = k + 1 - off;
      break;
    }
  }
  const size_t payload_max =
      std::min(w.payload.size(), pre_size > off ? pre_size - off : 0);
  size_t match = 0;
  while (match < payload_max && actual[off + match] == w.payload[match]) {
    ++match;
  }
  return l_min <= match;
}

bool SameContent(const std::vector<std::byte>& a, const std::vector<std::byte>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

// Which ops a crash after `crash_prefix` journal writes must preserve under
// one mount mode: every op up to the last completed Sync, and under
// roll-forward every op whose logs each saw a later completed Fsync.
class Coverage {
 public:
  Coverage(const std::vector<WorkloadModel::OpMark>& marks, size_t crash_prefix,
           bool roll_forward)
      : marks_(marks) {
    for (size_t i = 0; i < marks.size() && marks[i].writes_after <= crash_prefix; ++i) {
      completed_ = i;
      if (marks[i].global_barrier) {
        synced_ = i;
      }
      if (roll_forward && marks[i].fsynced_log.has_value()) {
        fsynced_[*marks[i].fsynced_log] = i;
      }
    }
  }

  bool Covers(size_t op) const {
    if (op <= synced_) {
      return true;
    }
    const std::vector<uint32_t>& logs = marks_[op].logs;
    return !logs.empty() && std::all_of(logs.begin(), logs.end(), [&](uint32_t log) {
      auto it = fsynced_.find(log);
      return it != fsynced_.end() && op <= it->second;
    });
  }

  // The op before the first uncovered change to `path` or to one of its
  // ancestors, or the last completed op if there is none.
  size_t Floor(const WorkloadModel& model, const std::string& path) const {
    size_t floor = completed_;
    auto lower_to_first_uncovered = [&](const std::string& p) {
      auto it = model.histories().find(p);
      if (it == model.histories().end()) {
        return;
      }
      for (const WorkloadModel::PathEvent& event : it->second) {
        if (event.op_index > floor) {
          break;
        }
        if (!Covers(event.op_index)) {
          floor = event.op_index - 1;
          break;
        }
      }
    };
    lower_to_first_uncovered(path);
    for (size_t slash = path.find('/', 1); slash != std::string::npos;
         slash = path.find('/', slash + 1)) {
      lower_to_first_uncovered(path.substr(0, slash));
    }
    return floor;
  }

 private:
  const std::vector<WorkloadModel::OpMark>& marks_;
  size_t completed_ = 0;
  size_t synced_ = 0;
  std::map<uint32_t, size_t> fsynced_;  // Log -> its last completed Fsync.
};

}  // namespace

size_t Oracle::DurableFloor(const std::string& path, size_t crash_prefix,
                            bool roll_forward) const {
  return Coverage(model_->marks(), crash_prefix, roll_forward).Floor(*model_, path);
}

OracleVerdict Oracle::CheckImage(const OverlayDisk& image, size_t crash_prefix,
                                 bool roll_forward,
                                 const LfsFileSystem::Options& base_options) const {
  OracleVerdict verdict;
  OverlayDisk disk = image;

  // The flight recorder's crash contract: every enumerated crash image must
  // yield a CRC-valid black-box telemetry ring from at least one checkpoint
  // region, independent of whether the checkpoints themselves survived.
  // Checked on the raw image, before mount, so a failed mount still reports
  // the forensic regression. Builds with LOGFS_METRICS=OFF never embed a
  // ring, so there is nothing to assert.
  if constexpr (obs::kMetricsEnabled) {
    auto blackbox = RecoverBlackBox(&disk);
    if (!blackbox.ok()) {
      verdict.violations.push_back("black box unrecoverable: " +
                                   blackbox.status().ToString());
    }
  }

  LfsFileSystem::Options options = base_options;
  options.roll_forward = roll_forward;
  auto mounted = ShardedLfs::Mount(&disk, /*clock=*/nullptr, /*cpu=*/nullptr, options);
  if (!mounted.ok()) {
    verdict.violations.push_back("mount failed: " + mounted.status().ToString());
    return verdict;
  }
  ShardedLfs* fs = mounted->get();
  verdict.reconciled = fs->reconcile_report().has_value();

  auto report = CheckShardedLfs(fs);
  if (!report.ok()) {
    verdict.violations.push_back("checker errored: " + report.status().ToString());
  } else if (!report->ok()) {
    for (const std::string& problem : report->problems) {
      verdict.violations.push_back("checker: " + problem);
    }
  }

  const std::vector<WorkloadModel::OpMark>& marks = model_->marks();
  const Coverage coverage(marks, crash_prefix, roll_forward);
  PathFs paths(fs);
  for (const auto& [path, history] : model_->histories()) {
    const size_t floor = coverage.Floor(*model_, path);

    // Acceptable states: the durable floor state, plus every state from an
    // op that had started (issued at least one journal write, or could have
    // been flushed later) before the crash point.
    const WorkloadModel::PathEvent* floor_event = nullptr;
    std::vector<const WorkloadModel::PathEvent*> candidates;
    for (const WorkloadModel::PathEvent& event : history) {
      if (event.op_index <= floor) {
        floor_event = &event;
        continue;
      }
      const size_t writes_before =
          event.op_index - 1 < marks.size() ? marks[event.op_index - 1].writes_after : 0;
      if (crash_prefix > writes_before) {
        candidates.push_back(&event);
      }
    }

    // Observe the mounted file system as a modeled state.
    using Kind = WorkloadModel::StateKind;
    WorkloadModel::PathState observed;
    auto stat = paths.Stat(path);
    if (!stat.ok() && stat.status().code() != ErrorCode::kNotFound) {
      verdict.violations.push_back(path + ": stat failed: " + stat.status().ToString());
      continue;
    }
    if (stat.ok() && stat->type == FileType::kDirectory) {
      observed.kind = Kind::kDir;
    } else if (stat.ok()) {
      auto bytes = paths.ReadFile(path);
      if (!bytes.ok()) {
        verdict.violations.push_back(path + ": unreadable: " + bytes.status().ToString());
        continue;
      }
      observed = {Kind::kFile, std::move(*bytes)};
    }

    // Absent and directory states hold no content; a never-created path is
    // absent at the floor.
    auto same = [&](const WorkloadModel::PathState& state) {
      return state.kind == observed.kind && SameContent(state.content, observed.content);
    };
    const bool accepted =
        same(floor_event != nullptr ? floor_event->state : WorkloadModel::PathState{}) ||
        std::any_of(candidates.begin(), candidates.end(), [&](const WorkloadModel::PathEvent* e) {
          return same(e->state) || (observed.kind == Kind::kFile && e->write.has_value() &&
                                    MatchesPartialWrite(observed.content, *e->write));
        });
    if (!accepted) {
      const std::string shown = observed.kind == Kind::kAbsent ? "absent"
                                : observed.kind == Kind::kDir
                                    ? "directory"
                                    : std::to_string(observed.content.size()) + "-byte file";
      verdict.violations.push_back(
          path + ": observed " + shown + " matches no acceptable state (floor op " +
          std::to_string(floor) + ", " + std::to_string(candidates.size() + 1) +
          " candidates)");
    }
  }

  // The per-inode fsync rule: a roll-forward guarantee, checked while no op
  // that changes the inode again has started.
  for (const WorkloadModel::FsyncedInode& f : model_->fsynced()) {
    const bool changing = f.changed_at != WorkloadModel::kNever &&
                          crash_prefix > marks[f.changed_at - 1].writes_after;
    if (!roll_forward || marks[f.op_index].writes_after > crash_prefix || changing) {
      continue;
    }
    ++verdict.fsynced_checked;
    std::vector<std::byte> bytes(f.content.size());
    auto stat = fs->Stat(f.ino);
    auto read = stat.ok() ? fs->Read(f.ino, 0, bytes) : Result<uint64_t>(stat.status());
    if (!read.ok() || stat->size != f.content.size() || !SameContent(bytes, f.content)) {
      const std::string observed = read.ok() ? std::to_string(stat->size) + "-byte file"
                                             : read.status().ToString();
      verdict.violations.push_back("ino " + std::to_string(f.ino) + ": observed " + observed +
                                   ", not the " + std::to_string(f.content.size()) +
                                   " bytes its fsync at op " + std::to_string(f.op_index) +
                                   " made durable");
    }
  }
  return verdict;
}

}  // namespace logfs
