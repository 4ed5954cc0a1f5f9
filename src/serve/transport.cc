#include "src/serve/transport.h"

#include <utility>

#include "src/obs/metrics.h"

namespace logfs::serve {
namespace {

// One-way propagation + service latency. 200 us ~ a fast 1990s LAN RPC.
constexpr double kLatencySeconds = 200e-6;

}  // namespace

SimTransport::SimTransport(SimClock* clock, EventQueue* events, TransportParams params)
    : clock_(clock), events_(events), params_(params), rng_(params.seed) {}

NodeId SimTransport::Register(Handler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

void SimTransport::Deregister(NodeId node) {
  if (node < handlers_.size()) {
    handlers_[node] = nullptr;
  }
}

void SimTransport::Reattach(NodeId node, Handler handler) {
  if (node < handlers_.size()) {
    handlers_[node] = std::move(handler);
  }
}

void SimTransport::Send(NodeId to, Message message) {
  ++sent_;
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& sent = obs::Registry().GetCounter("logfs.serve.net.sent");
    sent.Increment();
  }
  // The fault dice roll even for messages to dead endpoints, so a crash does
  // not perturb the drop/jitter stream seen by the survivors.
  const bool drop =
      params_.drop_probability > 0.0 && rng_.NextBool(params_.drop_probability);
  double delay = kLatencySeconds;
  if (params_.jitter_seconds > 0.0) {
    delay += rng_.NextDouble() * params_.jitter_seconds;
  }
  if (drop) {
    ++dropped_;
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& dropped = obs::Registry().GetCounter("logfs.serve.net.dropped");
      dropped.Increment();
    }
    return;
  }
  events_->ScheduleAfter(delay, [this, to, msg = std::move(message)]() mutable {
    if (to >= handlers_.size() || !handlers_[to]) {
      ++blackholed_;
      return;
    }
    ++delivered_;
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& delivered =
          obs::Registry().GetCounter("logfs.serve.net.delivered");
      delivered.Increment();
    }
    handlers_[to](std::move(msg));
  });
  (void)clock_;
}

}  // namespace logfs::serve
