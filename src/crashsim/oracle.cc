#include "src/crashsim/oracle.h"

#include <algorithm>
#include <cstring>

#include "src/fsbase/path.h"
#include "src/lfs/lfs_blackbox.h"
#include "src/lfs/lfs_check.h"
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
  WriteShape shape;
  auto it = current_.find(path);
  if (it != current_.end() && it->second.kind == StateKind::kFile) {
    shape.pre = it->second.content;
  }
  shape.offset = offset;
  shape.payload = payload;

  std::vector<std::byte> content = shape.pre;
  if (content.size() < offset + payload.size()) {
    content.resize(offset + payload.size(), std::byte{0});
  }
  std::copy(payload.begin(), payload.end(), content.begin() + static_cast<ptrdiff_t>(offset));
  PushEvent(op, path, PathState{StateKind::kFile, std::move(content)}, std::move(shape));
}

void WorkloadModel::SetDir(size_t op, const std::string& path) {
  PushEvent(op, path, PathState{StateKind::kDir, {}});
}

void WorkloadModel::Remove(size_t op, const std::string& path) {
  PushEvent(op, path, PathState{StateKind::kAbsent, {}});
}

void WorkloadModel::Rename(size_t op, const std::string& from, const std::string& to) {
  PathState moved;
  auto it = current_.find(from);
  if (it != current_.end()) {
    moved = it->second;
  }
  PushEvent(op, from, PathState{StateKind::kAbsent, {}});
  PushEvent(op, to, std::move(moved));
}

void WorkloadModel::Truncate(size_t op, const std::string& path, uint64_t size) {
  PathState state;
  auto it = current_.find(path);
  if (it != current_.end()) {
    state = it->second;
  }
  state.kind = StateKind::kFile;
  state.content.resize(size, std::byte{0});
  PushEvent(op, path, std::move(state));
}

void WorkloadModel::CloseOp(OpMark mark) { marks_.push_back(std::move(mark)); }

const WorkloadModel::PathState* WorkloadModel::Current(const std::string& path) const {
  auto it = current_.find(path);
  return it == current_.end() ? nullptr : &it->second;
}

std::vector<size_t> WorkloadModel::BarrierWritePositions() const {
  std::vector<size_t> positions;
  for (const OpMark& mark : marks_) {
    if (mark.global_barrier || !mark.fsync_path.empty()) {
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

}  // namespace

size_t Oracle::DurableFloor(const std::string& path, size_t crash_prefix,
                            bool roll_forward) const {
  const std::vector<WorkloadModel::OpMark>& marks = model_->marks();
  size_t floor = 0;
  for (size_t i = 0; i < marks.size(); ++i) {
    if (marks[i].writes_after > crash_prefix) {
      break;  // This op's writes were cut; nothing later is covered either.
    }
    if (marks[i].global_barrier || (roll_forward && marks[i].fsync_path == path)) {
      floor = i;
    }
  }
  return floor;
}

OracleVerdict Oracle::CheckImage(const OverlayDisk& image, size_t crash_prefix,
                                 bool roll_forward,
                                 const LfsFileSystem::Options& base_options,
                                 bool verify_data) const {
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
  auto mounted = LfsFileSystem::Mount(&disk, /*clock=*/nullptr, /*cpu=*/nullptr, options);
  if (!mounted.ok()) {
    verdict.violations.push_back("mount failed: " + mounted.status().ToString());
    return verdict;
  }
  verdict.mount_ok = true;
  LfsFileSystem* fs = mounted->get();

  LfsChecker checker(fs);
  auto report = checker.Check(verify_data);
  if (!report.ok()) {
    verdict.violations.push_back("checker errored: " + report.status().ToString());
  } else if (!report->ok()) {
    for (const std::string& problem : report->problems) {
      verdict.violations.push_back("checker: " + problem);
    }
  }

  const std::vector<WorkloadModel::OpMark>& marks = model_->marks();
  PathFs paths(fs);
  for (const auto& [path, history] : model_->histories()) {
    const size_t floor = DurableFloor(path, crash_prefix, roll_forward);

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
    WorkloadModel::PathState implicit_absent;  // Never-created paths.
    const WorkloadModel::PathState& floor_state =
        floor_event != nullptr ? floor_event->state : implicit_absent;

    // Observe the mounted file system.
    auto stat = paths.Stat(path);
    const bool exists = stat.ok();
    if (!exists && stat.status().code() != ErrorCode::kNotFound) {
      verdict.violations.push_back(path + ": stat failed: " + stat.status().ToString());
      continue;
    }

    auto matches = [&](const WorkloadModel::PathState& state,
                       const std::vector<std::byte>* actual_content) {
      if (!exists) {
        return state.kind == WorkloadModel::StateKind::kAbsent;
      }
      if (stat->type == FileType::kDirectory) {
        return state.kind == WorkloadModel::StateKind::kDir;
      }
      return state.kind == WorkloadModel::StateKind::kFile && actual_content != nullptr &&
             SameContent(*actual_content, state.content);
    };

    std::vector<std::byte> content;
    const std::vector<std::byte>* content_ptr = nullptr;
    if (exists && stat->type != FileType::kDirectory) {
      auto bytes = paths.ReadFile(path);
      if (!bytes.ok()) {
        verdict.violations.push_back(path + ": unreadable: " + bytes.status().ToString());
        continue;
      }
      content = std::move(*bytes);
      content_ptr = &content;
    }

    bool accepted = matches(floor_state, content_ptr);
    for (size_t i = 0; !accepted && i < candidates.size(); ++i) {
      accepted = matches(candidates[i]->state, content_ptr);
      if (!accepted && content_ptr != nullptr && candidates[i]->write.has_value()) {
        accepted = MatchesPartialWrite(content, *candidates[i]->write);
      }
    }
    if (!accepted) {
      std::string observed = !exists ? "absent"
                             : stat->type == FileType::kDirectory
                                 ? "directory"
                                 : std::to_string(content.size()) + "-byte file";
      verdict.violations.push_back(
          path + ": observed " + observed + " matches no acceptable state (floor op " +
          std::to_string(floor) + ", " + std::to_string(candidates.size() + 1) +
          " candidates)");
    }
  }
  return verdict;
}

}  // namespace logfs
