// serve_zipf: a ServeCluster with 8 simulated clients in one thread of
// discrete events. Each client runs a closed loop with exponential think
// time: pick a file by Zipf(0.9) popularity over 64 files, open it if not
// open, then read (70%) or write (30%) one 4 KB block, commit after every
// write, and close the handle after 10% of ops. Host latency classes: Write,
// Read, Commit (fsync) and Open/Close (meta), each timed from the call to its
// completion callback, so it includes the interleaved work of the other
// clients. The cluster's ShadowModel checks every read byte for byte against
// lease-serialized writes.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "src/fsbase/path.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"
#include "src/obs/tracer.h"
#include "src/serve/cluster.h"
#include "src/util/rng.h"
#include "src/workload/serve_load.h"

namespace perfbench {
namespace {

using logfs::Status;
using logfs::serve::ServeCluster;

constexpr size_t kClients = 8;
constexpr size_t kFiles = 64;
constexpr uint64_t kFileBlocks = 16;  // 64 KB files
constexpr size_t kIo = 4096;
constexpr double kZipf = 0.9;
constexpr double kWriteFraction = 0.30;
constexpr double kThinkSeconds = 0.05;
constexpr double kCloseProbability = 0.10;
constexpr uint64_t kCountOps = 2500;

std::string FilePath(size_t file) { return "/shared/f" + std::to_string(file); }

struct ServeCounters {
  LayerCounters layer;
  uint64_t attempts = 0;
  uint64_t wasted = 0;
  uint64_t revokes = 0;
  uint64_t grants = 0;
  uint64_t dups = 0;
  uint64_t client_hits = 0;
  uint64_t client_misses = 0;
};

uint64_t CounterValue(const char* name) {
  const logfs::obs::Counter* c = logfs::obs::Registry().FindCounter(name);
  return c != nullptr ? c->Value() : 0;
}

ServeCounters ReadCounters(ServeCluster& cluster) {
  ServeCounters c;
  c.layer.AddLog(*cluster.fs());
  c.layer.disk = cluster.disk()->stats();
  c.layer.ReadIoCounters();
  c.attempts = CounterValue("logfs.serve.rpc.attempts");
  c.wasted = CounterValue("logfs.serve.rpc.wasted_attempts");
  c.revokes = cluster.server()->revokes_sent();
  c.grants = cluster.server()->leases().grants();
  c.dups = cluster.server()->duplicates_suppressed();
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    const auto stats = cluster.client(i)->cache_stats();
    c.client_hits += stats.hits;
    c.client_misses += stats.misses;
  }
  return c;
}

// The closed-loop drive of every client; lives until the event loop drains.
class ServeDrive {
 public:
  ServeDrive(ServeCluster* cluster, const RunConfig& cfg, RunReport* report)
      : cluster_(cluster),
        cfg_(cfg),
        report_(report),
        zipf_(kFiles, kZipf),
        rng_(cfg.seed * 0x9E3779B97F4A7C15ull + 17),
        clients_(kClients),
        versions_(kFiles * kFileBlocks, 0) {}

  // Client 0 writes every file's initial 64 KB, commits, and closes them.
  Status Prefill() {
    logfs::serve::Client* cl = cluster_->client(0);
    Status failure = logfs::OkStatus();
    size_t pending = kFiles;
    for (size_t f = 0; f < kFiles; ++f) {
      cl->Open(FilePath(f), [this, cl, f, &failure, &pending](logfs::Result<uint64_t> h) {
        if (!h.ok()) {
          failure = h.status();
          --pending;
          return;
        }
        for (uint64_t b = 0; b < kFileBlocks; ++b) {
          cl->Write(*h, b * kIo, Payload(f, b), [&failure](Status st) {
            if (!st.ok()) failure = st;
          });
        }
        cl->Close(*h, [&failure, &pending](Status st) {
          if (!st.ok()) failure = st;
          --pending;
        });
      });
    }
    cl->Commit([&failure](Status st) {
      if (!st.ok()) failure = st;
    });
    while (pending > 0 && !cluster_->events()->empty()) cluster_->events()->RunOne();
    RETURN_IF_ERROR(cluster_->Settle());
    if (pending > 0) return logfs::BusyError("prefill did not finish");
    return failure;
  }

  void Run() {
    count_target_ = cfg_.count_ops > 0 ? cfg_.count_ops : kCountOps;
    start_ = ReadCounters(*cluster_);
    sim0_ = cluster_->clock()->Now();
    if (cfg_.trace) {
      logfs::obs::Tracer().Clear();
      logfs::obs::SetTracingEnabled(true);
    }
    SetSpansEnabled(cfg_.trace);
    host0_ = HostNow();
    deadline_ = host0_ + cfg_.seconds;
    for (size_t c = 0; c < kClients; ++c) Next(c);
    size_t events = 0;
    while (!AllDone()) {
      if (cluster_->events()->empty()) {
        report_->Problem("serve drive stalled with clients unfinished");
        break;
      }
      if (++events > 200'000'000) {
        report_->Problem("serve drive exceeded its event budget");
        break;
      }
      cluster_->events()->RunOne();
    }
    report_->measured_s = HostNow() - host0_;
    SetSpansEnabled(false);
    logfs::obs::SetTracingEnabled(false);
    if (Status st = cluster_->Settle(); !st.ok()) report_->Problem("settle: " + st.ToString());
    if (counting_) CloseCountWindow();  // the run ended before the window filled
    if (cfg_.trace) AddServeLayerMetrics();
  }

 private:
  struct ClientState {
    std::vector<uint64_t> handles = std::vector<uint64_t>(kFiles, 0);  // 0 = not open
    bool done = false;
  };

  std::vector<std::byte> Payload(size_t file, uint64_t block) {
    std::vector<std::byte> data(kIo);
    FillBlock(file, block, ++versions_[file * kFileBlocks + block], data);
    return data;
  }

  bool AllDone() const {
    for (const ClientState& s : clients_) {
      if (!s.done) return false;
    }
    return true;
  }

  bool Stopping() const { return !counting_ && HostNow() >= deadline_; }

  void CloseCountWindow() {
    counting_ = false;
    end_ = ReadCounters(*cluster_);
    report_->count_ops = report_->ops;
    report_->sim_seconds = cluster_->clock()->Now() - sim0_;
    report_->device_bytes =
        DiskDelta(end_.layer.disk, start_.layer.disk).sectors_written * logfs::kSectorSize;
  }

  // Starts a timed op; the returned callback records its completion.
  std::function<void(const Status&, const char*)> Begin(LatClass cls) {
    const int64_t t0 = HostNowNs();
    const double sim0 = cluster_->clock()->Now();
    return [this, cls, t0, sim0](const Status& st, const char* what) {
      ++report_->attempted;
      if (!st.ok()) {
        report_->OpFailed(st, what);
        return;
      }
      ++report_->ops;
      report_->host_us[static_cast<size_t>(cls)].Add(static_cast<double>(HostNowNs() - t0) *
                                                     1e-3);
      if (counting_) {
        report_->sim_ms.Add((cluster_->clock()->Now() - sim0) * 1e3);
        if (report_->ops >= count_target_) CloseCountWindow();
      }
    };
  }

  void Next(size_t c) {
    if (Stopping()) {
      CloseAll(c);
      return;
    }
    const double think = rng_.NextExponential(kThinkSeconds);
    cluster_->events()->ScheduleAfter(think, [this, c] { Issue(c); });
  }

  void CloseAll(size_t c) {
    ClientState& s = clients_[c];
    for (size_t f = 0; f < kFiles; ++f) {
      if (s.handles[f] != 0) {
        Close(c, f, [this, c] { CloseAll(c); });
        return;
      }
    }
    s.done = true;
  }

  void Close(size_t c, size_t f, std::function<void()> then) {
    const uint64_t h = clients_[c].handles[f];
    clients_[c].handles[f] = 0;
    auto done = Begin(LatClass::kMeta);
    cluster_->client(c)->Close(h, [done, then](Status st) {
      done(st, "close");
      then();
    });
  }

  void Issue(size_t c) {
    const size_t f = zipf_.Sample(rng_.NextDouble());
    if (clients_[c].handles[f] != 0) {
      DoOp(c, f);
      return;
    }
    auto done = Begin(LatClass::kMeta);
    cluster_->client(c)->Open(FilePath(f), [this, c, f, done](logfs::Result<uint64_t> h) {
      done(h.status(), "open");
      if (!h.ok()) {
        Next(c);
        return;
      }
      clients_[c].handles[f] = *h;
      DoOp(c, f);
    });
  }

  void AfterOp(size_t c, size_t f) {
    if (rng_.NextBool(kCloseProbability)) {
      Close(c, f, [this, c] { Next(c); });
    } else {
      Next(c);
    }
  }

  void DoOp(size_t c, size_t f) {
    logfs::serve::Client* cl = cluster_->client(c);
    const uint64_t h = clients_[c].handles[f];
    const uint64_t block = rng_.NextBelow(kFileBlocks);
    if (!rng_.NextBool(kWriteFraction)) {
      auto done = Begin(LatClass::kRead);
      cl->Read(h, block * kIo, kIo,
               [this, c, f, done](logfs::Result<std::vector<std::byte>> got) {
                 done(got.status(), "read");
                 AfterOp(c, f);
               });
      return;
    }
    std::vector<std::byte> data = Payload(f, block);
    const uint64_t bytes = data.size();
    auto done = Begin(LatClass::kWrite);
    cl->Write(h, block * kIo, std::move(data), [this, c, f, done, bytes](Status st) {
      if (counting_ && st.ok()) report_->user_bytes += bytes;
      done(st, "write");
      auto committed = Begin(LatClass::kFsync);
      cluster_->client(c)->Commit([this, c, f, committed](Status cst) {
        committed(cst, "commit");
        AfterOp(c, f);
      });
    });
  }

  void AddServeLayerMetrics() {
    AddLayerMetrics(end_.layer.Minus(start_.layer), RollupSpans(), report_->measured_s,
                    /*sharded=*/false, report_);
    auto add = [this](const char* name, double value, const char* unit) {
      report_->layer.push_back({name, value, unit});
    };
    const double attempts = static_cast<double>(end_.attempts - start_.attempts);
    add("serve.rpc.attempts", attempts, "count");
    add("serve.rpc.wasted", static_cast<double>(end_.wasted - start_.wasted), "count");
    add("serve.rpc.useful_ratio",
        attempts > 0 ? static_cast<double>(report_->count_ops) / attempts : 0.0, "ratio");
    add("serve.revokes", static_cast<double>(end_.revokes - start_.revokes), "count");
    add("serve.lease.grants", static_cast<double>(end_.grants - start_.grants), "count");
    add("serve.dup_suppressed", static_cast<double>(end_.dups - start_.dups), "count");
    const double hits = static_cast<double>(end_.client_hits - start_.client_hits);
    const double misses = static_cast<double>(end_.client_misses - start_.client_misses);
    add("serve.client.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

    double seconds[logfs::obs::kPathClassCount] = {};
    double total = 0.0;
    for (const logfs::obs::TraceTree& tree :
         logfs::obs::AssembleTraceTrees(logfs::obs::Tracer().Events())) {
      const logfs::obs::Breakdown b = logfs::obs::AnalyzeCriticalPath(tree);
      if (b.category != "serve.op") continue;
      for (size_t i = 0; i < logfs::obs::kPathClassCount; ++i) seconds[i] += b.seconds[i];
      total += b.total_seconds;
    }
    using logfs::obs::PathClass;
    auto share = [&](PathClass pc) {
      return total > 0 ? seconds[static_cast<size_t>(pc)] / total : 0.0;
    };
    add("serve.path.network_share", share(PathClass::kNetwork), "ratio");
    add("serve.path.retransmit_share", share(PathClass::kRetransmit), "ratio");
    add("serve.path.dedup_parked_share", share(PathClass::kDedupParked), "ratio");
    add("serve.path.lease_wait_share", share(PathClass::kLeaseWait), "ratio");
    add("serve.path.disk_share", share(PathClass::kDisk), "ratio");
    add("serve.path.cache_share", share(PathClass::kCache), "ratio");
  }

  ServeCluster* cluster_;
  const RunConfig& cfg_;
  RunReport* report_;
  logfs::ZipfSampler zipf_;
  logfs::Rng rng_;
  std::vector<ClientState> clients_;
  std::vector<uint64_t> versions_;  // per (file, block): payload generation
  uint64_t count_target_ = 0;
  bool counting_ = true;
  double host0_ = 0.0;
  double deadline_ = 0.0;
  double sim0_ = 0.0;
  ServeCounters start_;
  ServeCounters end_;
};

logfs::Result<std::unique_ptr<ServeCluster>> MakeCluster(uint64_t seed) {
  logfs::serve::ServeClusterParams params;
  params.clients = kClients;
  params.transport.seed = seed;
  ASSIGN_OR_RETURN(auto cluster, ServeCluster::Create(params));
  logfs::PathFs paths(cluster->fs());
  RETURN_IF_ERROR(paths.MkdirAll("/shared").status());
  return cluster;
}

}  // namespace

void RunServeZipf(const RunConfig& cfg, RunReport* report) {
  logfs::obs::SetTracingEnabled(false);
  logfs::obs::Tracer().SetCapacity(cfg.trace ? (4u << 20) : 65536);
  std::unique_ptr<ServeCluster> cluster;
  std::unique_ptr<ServeDrive> drive;
  const bool set_up = TimeSetups(cfg.setup_reps, report, [&]() -> Status {
    drive.reset();
    cluster.reset();
    ASSIGN_OR_RETURN(cluster, MakeCluster(cfg.seed));
    drive = std::make_unique<ServeDrive>(cluster.get(), cfg, report);
    return drive->Prefill();
  });
  if (!set_up) return;

  drive->Run();
  const logfs::serve::ShadowModel& shadow = cluster->shadow();
  if (shadow.violation_count() != 0) {
    report->Problem("ShadowModel: " + std::to_string(shadow.violation_count()) +
                    " violations, first: " + shadow.violations().front());
  }
  if (shadow.reads_checked() == 0) report->Problem("ShadowModel checked no reads");
}

}  // namespace perfbench
