// Causal trace context: the identity a request carries across layers.
//
// A TraceContext is (trace id, current span id). The trace id names one
// end-to-end request — minted at the client op boundary — and the span id
// names the innermost span in flight, which becomes the parent of any span
// opened beneath it. Ids come from the tracer's own counter, so a seeded
// single-threaded run mints the same ids every time (and Tracer().Clear()
// resets them, keeping the byte-identical-snapshot guarantees of obs_test).
//
// Propagation is two-mode:
//   * Within a thread, the context is ambient: CurrentTraceContext() is a
//     thread-local that TraceContextScope pushes/pops RAII-style. The shard
//     router and the LFS OpScope read it without any plumbing, and each
//     installs its own span as the parent of the work beneath it.
//   * Across the simulated network, the context rides inside serve-layer
//     messages (message.h) as plain data; the server re-installs it around
//     request execution.
//
// Tracing never branches the traced code: it only records. That is what
// keeps the serve wire behaviour, DiskStats, and crash-image enumeration
// byte-identical whether tracing is enabled, runtime-disabled
// (SetTracingEnabled(false)), or compiled out (LOGFS_METRICS=OFF, where
// everything here is a no-op and MintTrace returns the inactive context).
#ifndef LOGFS_SRC_OBS_TRACE_CONTEXT_H_
#define LOGFS_SRC_OBS_TRACE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/sim_clock.h"

namespace logfs::obs {

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = inactive (untraced work).
  uint64_t span_id = 0;   // Innermost live span; parent of new children.
  bool active() const { return trace_id != 0; }
};

// Runtime gate (default on). While off, nothing is minted and the tracer
// keeps no untraced event: RecordSpan, RecordInstant and so SpanTimer
// record nothing. Events that carry a trace id (RecordSpanIds) still land,
// so a context minted before the switch keeps its tree whole.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

// The ambient context of the calling thread ({0,0} when none).
TraceContext CurrentTraceContext();

// Mints a fresh trace (trace id + root span id) when tracing is enabled and
// compiled in; returns the inactive context otherwise.
TraceContext MintTrace();

// Mints a child span id under `parent` (0 when parent is inactive).
uint64_t MintSpanId(const TraceContext& parent);

// Installs `ctx` as the thread's ambient context for the scope's lifetime.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

// RAII root span: mints a trace, installs it as the ambient context, and
// records the root span on destruction. The unit of work drivers and tools
// wrap around one logical client operation.
class TraceRoot {
 public:
  TraceRoot(const SimClock* clock, std::string_view category, std::string_view name);
  ~TraceRoot();
  TraceRoot(const TraceRoot&) = delete;
  TraceRoot& operator=(const TraceRoot&) = delete;

  const TraceContext& ctx() const { return ctx_; }
  void AddArg(std::string_view key, std::string value);
  void AddLink(uint64_t trace_id);

 private:
  const SimClock* clock_;
  std::string category_;
  std::string name_;
  double start_ = 0.0;
  TraceContext ctx_;
  TraceContext saved_;
  std::vector<uint64_t> links_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace logfs::obs

#endif  // LOGFS_SRC_OBS_TRACE_CONTEXT_H_
