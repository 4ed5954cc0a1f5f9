#include "src/obs/tracer.h"

#include <cmath>
#include <sstream>

#include "src/obs/trace_context.h"

namespace logfs::obs {
namespace {

void AppendJsonString(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void AppendDouble(std::ostringstream& out, double v) {
  if (std::isnan(v)) {
    out << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.imbue(std::locale::classic());
  tmp.precision(17);
  tmp << v;
  std::string s = tmp.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos) {
    s += ".0";
  }
  out << s;
}

void AppendArgs(std::ostringstream& out,
                const std::vector<std::pair<std::string, std::string>>& args) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out << ", ";
    first = false;
    AppendJsonString(out, key);
    out << ": ";
    AppendJsonString(out, value);
  }
  out << "}";
}

}  // namespace

StructuredTracer& StructuredTracer::Global() {
  static StructuredTracer* tracer = new StructuredTracer();
  return *tracer;
}

void StructuredTracer::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

size_t StructuredTracer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void StructuredTracer::Push(TraceEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = next_seq_++;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(ev));
}

void StructuredTracer::RecordSpan(
    std::string_view category, std::string_view name, double start_seconds,
    double end_seconds, std::vector<std::pair<std::string, std::string>> args) {
  if (!TracingEnabled()) {
    return;
  }
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSpan;
  ev.category = std::string(category);
  ev.name = std::string(name);
  ev.start_seconds = start_seconds;
  ev.duration_seconds = end_seconds > start_seconds ? end_seconds - start_seconds : 0.0;
  ev.args = std::move(args);
  Push(std::move(ev));
}

void StructuredTracer::RecordSpanIds(
    std::string_view category, std::string_view name, double start_seconds,
    double end_seconds, uint64_t trace_id, uint64_t span_id,
    uint64_t parent_id, std::vector<uint64_t> links,
    std::vector<std::pair<std::string, std::string>> args) {
  if constexpr (!kMetricsEnabled) {
    (void)category; (void)name; (void)start_seconds; (void)end_seconds;
    (void)trace_id; (void)span_id; (void)parent_id; (void)links; (void)args;
    return;
  }
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kSpan;
  ev.category = std::string(category);
  ev.name = std::string(name);
  ev.start_seconds = start_seconds;
  ev.duration_seconds = end_seconds > start_seconds ? end_seconds - start_seconds : 0.0;
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.parent_id = parent_id;
  ev.links = std::move(links);
  ev.args = std::move(args);
  Push(std::move(ev));
}

void StructuredTracer::RecordInstant(
    std::string_view category, std::string_view name, double at_seconds,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!TracingEnabled()) {
    return;
  }
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInstant;
  ev.category = std::string(category);
  ev.name = std::string(name);
  ev.start_seconds = at_seconds;
  ev.args = std::move(args);
  Push(std::move(ev));
}

size_t StructuredTracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t StructuredTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> StructuredTracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceEvent>(ring_.begin(), ring_.end());
}

void StructuredTracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_ = 0;
  next_seq_ = 0;
  next_id_.store(1, std::memory_order_relaxed);
}

std::string StructuredTracer::ToJson() const {
  std::vector<TraceEvent> events = Events();
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    out << (first ? "\n" : ",\n") << "  {\"kind\": ";
    first = false;
    out << (ev.kind == TraceEvent::Kind::kSpan ? "\"span\"" : "\"instant\"");
    out << ", \"cat\": ";
    AppendJsonString(out, ev.category);
    out << ", \"name\": ";
    AppendJsonString(out, ev.name);
    out << ", \"t\": ";
    AppendDouble(out, ev.start_seconds);
    out << ", \"dur\": ";
    AppendDouble(out, ev.duration_seconds);
    out << ", \"seq\": " << ev.seq;
    if (ev.trace_id != 0) {
      out << ", \"trace\": " << ev.trace_id << ", \"span\": " << ev.span_id
          << ", \"parent\": " << ev.parent_id;
      if (!ev.links.empty()) {
        out << ", \"links\": [";
        for (size_t i = 0; i < ev.links.size(); ++i) {
          if (i) out << ", ";
          out << ev.links[i];
        }
        out << "]";
      }
    }
    out << ", \"args\": ";
    AppendArgs(out, ev.args);
    out << "}";
  }
  out << (first ? "]\n" : "\n]\n");
  return out.str();
}

std::string StructuredTracer::ToChromeTrace() const {
  std::vector<TraceEvent> events = Events();
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events) {
    out << (first ? "\n" : ",\n") << "  {";
    first = false;
    if (ev.kind == TraceEvent::Kind::kSpan) {
      out << "\"ph\": \"X\", \"dur\": ";
      AppendDouble(out, ev.duration_seconds * 1e6);
      out << ", ";
    } else {
      out << "\"ph\": \"i\", \"s\": \"g\", ";
    }
    out << "\"ts\": ";
    AppendDouble(out, ev.start_seconds * 1e6);
    out << ", \"pid\": 1, \"tid\": 1, \"cat\": ";
    AppendJsonString(out, ev.category);
    out << ", \"name\": ";
    AppendJsonString(out, ev.name);
    out << ", \"args\": ";
    if (ev.trace_id != 0) {
      auto args = ev.args;
      args.emplace_back("trace", std::to_string(ev.trace_id));
      args.emplace_back("span", std::to_string(ev.span_id));
      args.emplace_back("parent", std::to_string(ev.parent_id));
      AppendArgs(out, args);
    } else {
      AppendArgs(out, ev.args);
    }
    out << "}";
    // Cross-layer causality as Chrome flow events: a trace root opens a
    // flow keyed by its trace id; any span linking to that trace closes an
    // enclosing-slice flow step, so about:tracing/Perfetto draw arrows from
    // the blocking request to the blocked span.
    if (ev.kind == TraceEvent::Kind::kSpan && ev.trace_id != 0) {
      if (ev.parent_id == 0) {
        out << ",\n  {\"ph\": \"s\", \"id\": " << ev.trace_id << ", \"ts\": ";
        AppendDouble(out, ev.start_seconds * 1e6);
        out << ", \"pid\": 1, \"tid\": 1, \"cat\": ";
        AppendJsonString(out, ev.category);
        out << ", \"name\": \"flow\"}";
      }
      for (uint64_t link : ev.links) {
        out << ",\n  {\"ph\": \"f\", \"bp\": \"e\", \"id\": " << link << ", \"ts\": ";
        AppendDouble(out, ev.start_seconds * 1e6);
        out << ", \"pid\": 1, \"tid\": 1, \"cat\": ";
        AppendJsonString(out, ev.category);
        out << ", \"name\": \"flow\"}";
      }
    }
  }
  out << (first ? "], " : "\n], ");
  out << "\"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

}  // namespace logfs::obs
