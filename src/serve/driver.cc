#include "src/serve/driver.h"

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/fsbase/path.h"

namespace logfs::serve {

namespace {

// Event budget for a whole drive; running out means a protocol livelock.
constexpr size_t kMaxEvents = 50'000'000;

// Deterministic payload for client `client`'s schedule entry `op_index`.
std::vector<std::byte> DrivePayload(uint64_t client, uint64_t op_index, size_t length) {
  std::vector<std::byte> data(length);
  uint64_t x = (client + 1) * 0x9E3779B97F4A7C15ull + op_index * 0xBF58476D1CE4E5B9ull + 1;
  for (size_t i = 0; i < length; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    data[i] = static_cast<std::byte>((x * 0x2545F4914F6CDD1Dull) >> 56);
  }
  return data;
}

Status EnsureParentDirs(LfsFileSystem* fs, const std::vector<std::string>& paths) {
  PathFs pathfs(fs);
  std::set<std::string> parents;
  for (const std::string& path : paths) {
    const size_t slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0) {
      parents.insert(path.substr(0, slash));
    }
  }
  for (const std::string& dir : parents) {
    auto made = pathfs.MkdirAll(dir);
    if (!made.ok() && made.status().code() != ErrorCode::kExists) {
      return made.status();
    }
  }
  return OkStatus();
}

struct ClientRun {
  size_t index = 0;                     // Next schedule entry.
  std::map<size_t, uint64_t> handles;   // File index -> client handle.
  std::vector<size_t> close_order;      // Files in open order, for teardown.
  bool done = false;
};

// The whole drive's mutable state, shared by every callback. Lives until
// the event loop drains, which DriveSharedLoad guarantees before returning.
struct Drive {
  ServeCluster* cluster = nullptr;
  const ServeLoad* load = nullptr;
  DriveStats stats;
  std::vector<ClientRun> runs;
  std::function<void(size_t)> step;

  void Fail(size_t client, const std::string& what, const Status& status) {
    ++stats.errors;
    if (stats.first_errors.size() < 8) {
      stats.first_errors.push_back("client " + std::to_string(client) + " " + what + ": " +
                                   status.ToString());
    }
  }
};

void CloseNext(const std::shared_ptr<Drive>& d, size_t c) {
  ClientRun& r = d->runs[c];
  if (r.close_order.empty()) {
    r.done = true;
    return;
  }
  const size_t file = r.close_order.back();
  r.close_order.pop_back();
  const uint64_t handle = r.handles[file];
  r.handles.erase(file);
  d->cluster->client(c)->Close(handle, [d, c](Status st) {
    if (!st.ok()) {
      d->Fail(c, "close", st);
    }
    CloseNext(d, c);
  });
}

void Execute(const std::shared_ptr<Drive>& d, size_t c) {
  ClientRun& r = d->runs[c];
  const ServeOp& op = d->load->schedules[c][r.index];
  Client* cl = d->cluster->client(c);
  auto advance = [d, c] {
    ++d->runs[c].index;
    d->step(c);
  };
  if (op.kind == ServeOp::Kind::kCommit) {
    cl->Commit([d, c, advance](Status st) {
      if (st.ok()) {
        ++d->stats.ops_completed;
      } else {
        d->Fail(c, "commit", st);
      }
      advance();
    });
    return;
  }
  auto it = r.handles.find(op.file);
  if (it == r.handles.end()) {
    // Lazy open; re-enter Execute with the handle in place.
    cl->Open(d->load->paths[op.file], [d, c, file = op.file](Result<uint64_t> h) {
      if (!h.ok()) {
        d->Fail(c, "open", h.status());
        ++d->runs[c].index;
        d->step(c);
        return;
      }
      d->runs[c].handles[file] = *h;
      d->runs[c].close_order.push_back(file);
      Execute(d, c);
    });
    return;
  }
  const uint64_t handle = it->second;
  if (op.kind == ServeOp::Kind::kRead) {
    cl->Read(handle, op.offset, op.length, [d, c, advance](Result<std::vector<std::byte>> got) {
      if (got.ok()) {
        ++d->stats.ops_completed;
      } else {
        d->Fail(c, "read", got.status());
      }
      advance();
    });
  } else {
    cl->Write(handle, op.offset,
              DrivePayload(c, d->runs[c].index, op.length),
              [d, c, advance](Status st) {
                if (st.ok()) {
                  ++d->stats.ops_completed;
                } else {
                  d->Fail(c, "write", st);
                }
                advance();
              });
  }
}

void Step(const std::shared_ptr<Drive>& d, size_t c) {
  ClientRun& r = d->runs[c];
  const auto& schedule = d->load->schedules[c];
  if (r.index >= schedule.size()) {
    if (!r.handles.empty()) {
      CloseNext(d, c);
    } else {
      r.done = true;
    }
    return;
  }
  const double think = schedule[r.index].think_seconds;
  if (think > 0.0) {
    d->cluster->events()->ScheduleAfter(think, [d, c] { Execute(d, c); });
  } else {
    Execute(d, c);
  }
}

}  // namespace

Result<DriveStats> DriveSharedLoad(ServeCluster& cluster, const ServeLoad& load) {
  if (load.schedules.size() > cluster.num_clients()) {
    return InvalidArgumentError("load has more schedules than the cluster has clients");
  }
  RETURN_IF_ERROR(EnsureParentDirs(cluster.fs(), load.paths));

  auto d = std::make_shared<Drive>();
  d->cluster = &cluster;
  d->load = &load;
  d->runs.resize(load.schedules.size());
  d->step = [d_weak = std::weak_ptr<Drive>(d)](size_t c) {
    if (auto drive = d_weak.lock()) {
      Step(drive, c);
    }
  };
  for (size_t c = 0; c < load.schedules.size(); ++c) {
    Step(d, c);
  }

  auto all_done = [&] {
    for (const ClientRun& r : d->runs) {
      if (!r.done) {
        return false;
      }
    }
    return true;
  };
  size_t ran = 0;
  while (!all_done()) {
    if (ran >= kMaxEvents) {
      return BusyError("drive exceeded its event budget (protocol livelock?)");
    }
    if (cluster.events()->empty()) {
      return BusyError("drive stalled: clients unfinished but no events pending");
    }
    cluster.events()->RunOne();
    ++ran;
  }
  return d->stats;
}

}  // namespace logfs::serve
