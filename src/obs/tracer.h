// Structured-event tracing: timestamped spans and instant events in a
// bounded ring buffer, stamped with SimClock time so a given seed workload
// always produces the same trace. Exports as plain JSON (one object per
// event) or Chrome trace_event format ("catapult"/about:tracing/Perfetto
// loadable), with sim seconds mapped to trace microseconds.
//
// Spans are recorded at completion (begin time carried in the RAII
// SpanTimer), so the ring holds finished work only and a crash mid-span
// loses just that span. Like the metrics registry, the tracer compiles to
// no-ops under LOGFS_METRICS=OFF; while tracing is switched off at run time
// (SetTracingEnabled, trace_context.h) it keeps only events that carry a
// trace id.
#ifndef LOGFS_SRC_OBS_TRACER_H_
#define LOGFS_SRC_OBS_TRACER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"
#include "src/sim/sim_clock.h"

namespace logfs::obs {

struct TraceEvent {
  enum class Kind { kSpan, kInstant };
  Kind kind = Kind::kInstant;
  std::string category;  // subsystem, e.g. "cleaner", "recovery"
  std::string name;      // event within the subsystem, e.g. "pass"
  double start_seconds = 0.0;  // SimClock time
  double duration_seconds = 0.0;  // zero for instants
  uint64_t seq = 0;  // registration order; breaks ties at equal sim time
  // Causal identity (all zero for untraced events — exporters then omit the
  // fields entirely, so pre-existing golden snapshots are unchanged).
  uint64_t trace_id = 0;   // which end-to-end request this span belongs to
  uint64_t span_id = 0;    // this span's own id
  uint64_t parent_id = 0;  // enclosing span (0 = trace root)
  std::vector<uint64_t> links;  // other traces causally blocking this span
  std::vector<std::pair<std::string, std::string>> args;
};

class StructuredTracer {
 public:
  static StructuredTracer& Global();

  StructuredTracer() = default;
  StructuredTracer(const StructuredTracer&) = delete;
  StructuredTracer& operator=(const StructuredTracer&) = delete;

  // Oldest events are dropped (and counted) once the ring is full.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  void RecordSpan(std::string_view category, std::string_view name,
                  double start_seconds, double end_seconds,
                  std::vector<std::pair<std::string, std::string>> args = {});
  // Span carrying causal identity: trace/span/parent ids plus optional links
  // to other traces (e.g. the lease holder a parked request waited out).
  void RecordSpanIds(std::string_view category, std::string_view name,
                     double start_seconds, double end_seconds,
                     uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
                     std::vector<uint64_t> links = {},
                     std::vector<std::pair<std::string, std::string>> args = {});
  void RecordInstant(std::string_view category, std::string_view name,
                     double at_seconds,
                     std::vector<std::pair<std::string, std::string>> args = {});

  // Monotonic id source for trace and span ids (shared so ids are unique
  // across both). Starts at 1; Clear() resets it, keeping seeded runs
  // byte-for-byte reproducible.
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  size_t size() const;
  uint64_t dropped() const;
  std::vector<TraceEvent> Events() const;
  void Clear();  // empties the ring and zeroes dropped/seq

  // [{"kind": "span", "cat": ..., "name": ..., "t": ..., "dur": ..., "args": {...}}, ...]
  std::string ToJson() const;
  // Chrome trace_event JSON: {"traceEvents": [{"ph": "X"|"i", ...}]}.
  std::string ToChromeTrace() const;

 private:
  void Push(TraceEvent ev);

  mutable std::mutex mu_;
  std::deque<TraceEvent> ring_;
  size_t capacity_ = 65536;
  uint64_t dropped_ = 0;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> next_id_{1};
};

inline StructuredTracer& Tracer() { return StructuredTracer::Global(); }

// RAII span: reads the clock at construction and records the span on
// destruction. A null clock records at t=0 with zero duration, so call
// sites don't need to special-case early setup paths. With an active
// `parent` the span is recorded as its child (a fresh span id in parent's
// trace); otherwise it is untraced.
class SpanTimer {
 public:
  SpanTimer(const SimClock* clock, std::string_view category, std::string_view name,
            TraceContext parent = {})
      : clock_(clock), category_(category), name_(name),
        start_(clock ? clock->Now() : 0.0), parent_(parent) {}
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() {
    if constexpr (kMetricsEnabled) {
      const double end = clock_ ? clock_->Now() : start_;
      if (parent_.active()) {
        Tracer().RecordSpanIds(category_, name_, start_, end, parent_.trace_id,
                               MintSpanId(parent_), parent_.span_id, {}, std::move(args_));
      } else {
        Tracer().RecordSpan(category_, name_, start_, end, std::move(args_));
      }
    }
  }

  void AddArg(std::string_view key, std::string value) {
    if constexpr (kMetricsEnabled) {
      args_.emplace_back(std::string(key), std::move(value));
    }
  }

 private:
  const SimClock* clock_;
  std::string category_;
  std::string name_;
  double start_;
  TraceContext parent_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace logfs::obs

#endif  // LOGFS_SRC_OBS_TRACER_H_
