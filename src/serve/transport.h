// SimTransport: the in-sim message fabric between clients and the server.
//
// Every Send schedules a delivery event on the shared EventQueue after a
// fixed one-way latency plus (optionally) seeded uniform jitter — two
// messages whose jittered delays cross arrive reordered, which is how the
// fault mode exercises the protocol's sequencing. A seeded drop probability
// silently discards messages; correctness then rests on client
// retransmission and server-side duplicate suppression, never on the fabric.
//
// Endpoints are registered handlers. A deregistered endpoint (a crashed
// client or server) blackholes its traffic, which is indistinguishable from
// loss — exactly the failure model leases are built for.
#ifndef LOGFS_SRC_SERVE_TRANSPORT_H_
#define LOGFS_SRC_SERVE_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/serve/message.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_clock.h"
#include "src/util/rng.h"

namespace logfs::serve {

using NodeId = uint32_t;

struct TransportParams {
  // Uniform extra delay in [0, jitter_seconds); > 0 lets messages overtake
  // each other (reordering). Deterministic per seed.
  double jitter_seconds = 0.0;
  // Probability a message is silently dropped. Deterministic per seed.
  double drop_probability = 0.0;
  uint64_t seed = 0x5eedf00d;
};

class SimTransport {
 public:
  SimTransport(SimClock* clock, EventQueue* events, TransportParams params = {});

  using Handler = std::function<void(Message&&)>;

  // Registers an endpoint; the returned id is its address.
  NodeId Register(Handler handler);
  // Drops the endpoint's handler: all traffic to it vanishes (crash model).
  void Deregister(NodeId node);
  // Re-attaches a handler to an existing id (restart after a crash).
  void Reattach(NodeId node, Handler handler);

  // Queues `message` for delivery to `to`. Delivery may be dropped or
  // delayed per the fault mode; never delivered synchronously.
  void Send(NodeId to, Message message);

  const TransportParams& params() const { return params_; }
  // Live fault-mode control (tests flip loss on and off mid-run).
  void set_drop_probability(double p) { params_.drop_probability = p; }
  void set_jitter_seconds(double j) { params_.jitter_seconds = j; }

  uint64_t sent() const { return sent_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t blackholed() const { return blackholed_; }

 private:
  SimClock* clock_;
  EventQueue* events_;
  TransportParams params_;
  Rng rng_;
  std::vector<Handler> handlers_;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t blackholed_ = 0;
};

}  // namespace logfs::serve

#endif  // LOGFS_SRC_SERVE_TRANSPORT_H_
