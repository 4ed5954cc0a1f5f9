#include "src/obs/critical_path.h"

#include <algorithm>
#include <map>

#include "src/obs/metrics.h"

namespace logfs::obs {
namespace {

// End-to-end serve latencies run from sub-millisecond cache hits to seconds
// of lease-wait; bucket bounds in microseconds.
constexpr double kSloLatencyBoundsUs[] = {100.0,    250.0,    500.0,
                                          1000.0,   2500.0,   5000.0,
                                          10000.0,  25000.0,  50000.0,
                                          100000.0, 500000.0, 2000000.0};

bool ArgIs(const TraceEvent& ev, std::string_view key, std::string_view want) {
  for (const auto& [k, v] : ev.args) {
    if (k == key) return v == want;
  }
  return false;
}

// Which class a span's *self* time (interval minus children) belongs to.
PathClass ClassOf(const TraceEvent& ev) {
  const std::string& cat = ev.category;
  if (cat == "serve.attempt") {
    return ArgIs(ev, "winner", "1") ? PathClass::kNetwork : PathClass::kRetransmit;
  }
  if (cat == "serve.rpc") return PathClass::kRetransmit;  // pre-winning-send gap
  if (cat == "serve.park") return PathClass::kLeaseWait;
  if (cat == "serve.dedup") return PathClass::kDedupParked;
  if (cat == "shard.lock_wait" || cat == "shard.lock_held") {
    return PathClass::kShardLock;
  }
  // The device intervals of an LFS op: block reads, checkpoint-region
  // writes and partial-segment flushes (retry backoff included).
  if (cat == "disk" || cat == "segwriter") return PathClass::kDisk;
  if (cat == "cleaner") return PathClass::kCleaner;
  // serve.op (client CPU + queue), serve.handle (server CPU), an LFS op's
  // self-time (cache hits, CPU charges) and anything unrecognized fall into
  // the CPU/cache bucket.
  return PathClass::kCache;
}

struct ChildRef {
  size_t node = 0;
  double start = 0.0;
  double end = 0.0;
  uint64_t seq = 0;
};

void Attribute(const TraceTree& tree, size_t node_i, double s, double e,
               Breakdown* out) {
  if (e <= s) return;
  const TraceNode& node = tree.nodes[node_i];

  std::vector<ChildRef> kids;
  kids.reserve(node.children.size());
  for (size_t ci : node.children) {
    const TraceEvent& cev = tree.nodes[ci].event;
    ChildRef ref;
    ref.node = ci;
    ref.start = cev.start_seconds;
    ref.end = cev.start_seconds + cev.duration_seconds;
    ref.seq = cev.seq;
    kids.push_back(ref);
  }
  std::sort(kids.begin(), kids.end(), [](const ChildRef& a, const ChildRef& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.seq < b.seq;
  });

  double self = 0.0;
  double cursor = s;
  for (const ChildRef& kid : kids) {
    const double cs = std::max(kid.start, cursor);
    const double ce = std::min(kid.end, e);
    if (ce <= cs) continue;  // fully clipped by the parent or a prior sibling
    if (cs > cursor) self += cs - cursor;
    Attribute(tree, kid.node, cs, ce, out);
    cursor = ce;
  }
  if (e > cursor) self += e - cursor;
  if (self <= 0.0) return;

  out->seconds[static_cast<size_t>(ClassOf(node.event))] += self;
}

}  // namespace

const char* PathClassName(PathClass c) {
  switch (c) {
    case PathClass::kNetwork: return "network";
    case PathClass::kRetransmit: return "retransmit";
    case PathClass::kDedupParked: return "dedup_parked";
    case PathClass::kLeaseWait: return "lease_wait";
    case PathClass::kShardLock: return "shard_lock";
    case PathClass::kDisk: return "disk";
    case PathClass::kCleaner: return "cleaner";
    case PathClass::kCache: return "cache";
  }
  return "unknown";
}

std::vector<TraceTree> AssembleTraceTrees(const std::vector<TraceEvent>& events) {
  std::map<uint64_t, std::vector<const TraceEvent*>> by_trace;
  for (const TraceEvent& ev : events) {
    if (ev.kind != TraceEvent::Kind::kSpan || ev.trace_id == 0) continue;
    by_trace[ev.trace_id].push_back(&ev);
  }

  std::vector<TraceTree> trees;
  trees.reserve(by_trace.size());
  for (auto& [trace_id, spans] : by_trace) {
    TraceTree tree;
    tree.trace_id = trace_id;
    tree.nodes.reserve(spans.size());
    std::map<uint64_t, size_t> by_span;
    for (const TraceEvent* ev : spans) {
      by_span.emplace(ev->span_id, tree.nodes.size());
      tree.nodes.push_back(TraceNode{*ev, {}});
    }
    // Root = the parentless span; prefer the earliest-registered one if a
    // ring eviction left more than one candidate.
    size_t root = tree.nodes.size();
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      const TraceEvent& ev = tree.nodes[i].event;
      if (ev.parent_id != 0 && by_span.count(ev.parent_id)) continue;
      if (root == tree.nodes.size() ||
          ev.seq < tree.nodes[root].event.seq) {
        root = i;
      }
    }
    if (root == tree.nodes.size()) continue;  // defensive; cannot happen
    tree.root = root;
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      if (i == root) continue;
      const uint64_t parent = tree.nodes[i].event.parent_id;
      auto it = parent != 0 ? by_span.find(parent) : by_span.end();
      const size_t pi = (it != by_span.end() && it->second != i) ? it->second : root;
      tree.nodes[pi].children.push_back(i);
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

const TraceTree* FindTree(const std::vector<TraceTree>& trees, uint64_t trace_id) {
  for (const TraceTree& t : trees) {
    if (t.trace_id == trace_id) return &t;
  }
  return nullptr;
}

double Breakdown::Sum() const {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum;
}

Breakdown AnalyzeCriticalPath(const TraceTree& tree) {
  Breakdown b;
  const TraceEvent& root = tree.nodes[tree.root].event;
  b.trace_id = tree.trace_id;
  b.op = root.name;
  b.category = root.category;
  b.start_seconds = root.start_seconds;
  b.total_seconds = root.duration_seconds;
  Attribute(tree, tree.root, root.start_seconds,
            root.start_seconds + root.duration_seconds, &b);
  return b;
}

SloTracker::SloTracker(double target_seconds) : target_seconds_(target_seconds) {}

void SloTracker::Observe(const Breakdown& b) {
  if constexpr (!kMetricsEnabled) {
    (void)b;
    return;
  }
  ops_.insert(b.op);
  auto& registry = Registry();
  const std::string prefix = "logfs.slo." + b.op;
  registry.GetHistogram(prefix + ".latency_us", kSloLatencyBoundsUs)
      .Observe(b.total_seconds * 1e6);
  if (b.total_seconds > target_seconds_) {
    registry.GetCounter(prefix + ".violations").Increment();
  }
  for (size_t c = 0; c < kPathClassCount; ++c) {
    const double us = b.seconds[c] * 1e6;
    if (us <= 0.0) continue;
    registry
        .GetCounter("logfs.path." + b.op + "." +
                    PathClassName(static_cast<PathClass>(c)) + "_us")
        .Increment(static_cast<uint64_t>(us + 0.5));
  }
}

void SloTracker::Publish() const {
  if constexpr (!kMetricsEnabled) return;
  auto& registry = Registry();
  registry.GetGauge("logfs.slo.target_us").Set(target_seconds_ * 1e6);
  const MetricsSnapshot snap = registry.Snapshot();
  for (const std::string& op : ops_) {
    auto it = snap.histograms.find("logfs.slo." + op + ".latency_us");
    if (it == snap.histograms.end()) continue;
    registry.GetGauge("logfs.slo." + op + ".p50_us")
        .Set(HistogramQuantile(it->second, 0.50));
    registry.GetGauge("logfs.slo." + op + ".p99_us")
        .Set(HistogramQuantile(it->second, 0.99));
  }
}

}  // namespace logfs::obs
