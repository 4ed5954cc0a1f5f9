// Critical-path analysis over assembled trace trees.
//
// The tracer ring holds flat span records; this module groups them by trace
// id, wires parent links into one tree per request, and walks each tree
// attributing every instant of the root's [start, end] interval to exactly
// one of eight canonical classes:
//
//   network      — wire time of the RPC attempt that actually won
//   retransmit   — time waited out on attempts that were dropped or lost
//   dedup_parked — lease-wait time during which a retransmit sat absorbed
//                  in the server's parked-request window
//   lease_wait   — time parked behind a conflicting lease holder (recall,
//                  writer-fairness barrier, grace fence, min-hold)
//   shard_lock   — shard-mutex wait + router time under the lock
//   disk         — device time (including retry backoff) inside LFS ops:
//                  the "disk" and "segwriter" children of an "op" span
//   cleaner      — foreground cleaning inside LFS ops: "cleaner" children
//   cache        — everything else: client/server CPU and cache-hit work,
//                  including an LFS op's own self-time
//
// The walk is an interval sweep: a node's interval is partitioned between
// its children (clipped to the parent, earliest-start wins an overlap) and
// its own self-time, which goes to the node's class. Because the sweep
// partitions, the per-class seconds sum to the root span's duration
// *exactly* — the property the seeded serve scenario test asserts for every
// completed request.
//
// SloTracker turns breakdowns into the logfs.slo.* / logfs.path.* metric
// families: per-op latency histograms, p50/p99 gauges, and violation
// counters against a configurable latency target.
#ifndef LOGFS_SRC_OBS_CRITICAL_PATH_H_
#define LOGFS_SRC_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/obs/tracer.h"

namespace logfs::obs {

enum class PathClass {
  kNetwork = 0,
  kRetransmit,
  kDedupParked,
  kLeaseWait,
  kShardLock,
  kDisk,
  kCleaner,
  kCache,
};
inline constexpr size_t kPathClassCount = 8;
const char* PathClassName(PathClass c);

struct TraceNode {
  TraceEvent event;
  std::vector<size_t> children;  // indices into TraceTree::nodes
};

struct TraceTree {
  uint64_t trace_id = 0;
  size_t root = 0;  // index into nodes
  std::vector<TraceNode> nodes;
};

// Groups span events by trace id and wires parent links. The root is the
// parentless span (unique by construction; if a ring eviction orphaned
// nodes, stragglers attach to the root so no recorded time is lost).
// Trees are returned sorted by trace id. Instants are ignored.
std::vector<TraceTree> AssembleTraceTrees(const std::vector<TraceEvent>& events);

const TraceTree* FindTree(const std::vector<TraceTree>& trees, uint64_t trace_id);

struct Breakdown {
  uint64_t trace_id = 0;
  std::string op;          // root span name, e.g. "write"
  std::string category;    // root span category, e.g. "serve.op"
  double start_seconds = 0.0;
  double total_seconds = 0.0;  // root span duration (= end-to-end latency)
  double seconds[kPathClassCount] = {};
  double Sum() const;
};

Breakdown AnalyzeCriticalPath(const TraceTree& tree);

// Feeds breakdowns into the SLO metric families:
//   logfs.slo.<op>.latency_us   histogram of end-to-end latency
//   logfs.slo.<op>.violations   counter, latency > target
//   logfs.slo.<op>.p50_us/.p99_us  gauges (on Publish)
//   logfs.slo.target_us         gauge (on Publish)
//   logfs.path.<op>.<class>_us  counters, per-class critical-path time
class SloTracker {
 public:
  explicit SloTracker(double target_seconds);

  void Observe(const Breakdown& b);
  void Publish() const;  // refresh the quantile gauges from the histograms

  double target_seconds() const { return target_seconds_; }

 private:
  double target_seconds_;
  std::set<std::string> ops_;
};

}  // namespace logfs::obs

#endif  // LOGFS_SRC_OBS_CRITICAL_PATH_H_
