#include "perfbench/src/spans.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // summed durations of direct children
  int64_t parent = -1;   // index in the same thread's buffer
  SpanName name = SpanName::kFsOther;
  uint8_t flags = 0;
};

struct ThreadBuffer {
  size_t thread_index = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  // indices of the spans still open, innermost last
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mu;
// Owned here so a buffer outlives the thread that filled it.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread_index = g_buffers.size() - 1;
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOpCreate: return "op.create";
    case SpanName::kOpRead: return "op.read";
    case SpanName::kOpWrite: return "op.write";
    case SpanName::kOpFsync: return "op.fsync";
    case SpanName::kOpUnlink: return "op.unlink";
    case SpanName::kOpRename: return "op.rename";
    case SpanName::kOpMkdir: return "op.mkdir";
    case SpanName::kOpTick: return "op.tick";
    case SpanName::kPath: return "fsbase.path";
    case SpanName::kFsCreate: return "lfs.create";
    case SpanName::kFsLookup: return "lfs.lookup";
    case SpanName::kFsUnlink: return "lfs.unlink";
    case SpanName::kFsRename: return "lfs.rename";
    case SpanName::kFsWrite: return "lfs.write";
    case SpanName::kFsRead: return "lfs.read";
    case SpanName::kFsFsync: return "lfs.fsync";
    case SpanName::kFsTick: return "lfs.tick";
    case SpanName::kFsStat: return "lfs.stat";
    case SpanName::kFsOther: return "lfs.other";
    case SpanName::kDiskRead: return "disk.read";
    case SpanName::kDiskWrite: return "disk.write";
    case SpanName::kCount: break;
  }
  return "unknown";
}

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetSpansEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

ScopedSpan::ScopedSpan(SpanName name) {
  if (!SpansEnabled()) return;
  ThreadBuffer& buf = LocalBuffer();
  index_ = static_cast<int64_t>(buf.spans.size());
  Span span;
  span.name = name;
  span.parent = buf.open.empty() ? -1 : buf.open.back();
  span.start_ns = HostNowNs();
  buf.spans.push_back(span);
  buf.open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  ThreadBuffer& buf = LocalBuffer();
  Span& span = buf.spans[static_cast<size_t>(index_)];
  span.end_ns = HostNowNs();
  buf.open.pop_back();
  if (span.parent >= 0) {
    buf.spans[static_cast<size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

void ScopedSpan::AddFlags(uint8_t flags) {
  if (index_ < 0) return;
  LocalBuffer().spans[static_cast<size_t>(index_)].flags |= flags;
}

double SpanRollup::SelfUs(SpanName n) const {
  const PerName& p = (*this)[n];
  return p.count == 0 ? 0.0
                      : static_cast<double>(p.self_ns) / 1e3 / static_cast<double>(p.count);
}

SpanRollup RollupSpans() {
  SpanRollup r;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<Span>& spans = buffer->spans;
    for (const Span& s : spans) {
      const int64_t dur = s.end_ns - s.start_ns;
      SpanRollup::PerName& p = r.by_name[static_cast<size_t>(s.name)];
      ++p.count;
      p.total_ns += dur;
      p.self_ns += dur - s.child_ns;
      if (s.parent >= 0) {
        SpanRollup::PerName& parent =
            r.by_name[static_cast<size_t>(spans[static_cast<size_t>(s.parent)].name)];
        if (s.name == SpanName::kDiskRead || s.name == SpanName::kDiskWrite) {
          parent.disk_child_ns += dur;
        } else if (s.name == SpanName::kFsLookup) {
          ++parent.lookup_children;
        }
      }
      if (s.flags & kFlagCleaned) {
        ++r.cleaner_spans;
        r.cleaner_ns += dur;
        if (s.name == SpanName::kFsWrite || s.name == SpanName::kFsFsync) {
          ++r.fg_stalls;
          r.fg_stall_ns += dur;
        }
      }
      if (s.flags & kFlagCheckpoint) {
        ++r.checkpoint_spans;
        r.checkpoint_ns += dur;
      }
    }
  }
  return r;
}

bool WriteSpansCsv(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread,index,parent,name,start_ns,end_ns,flags\n";
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      out << buffer->thread_index << ',' << i << ',' << s.parent << ','
          << SpanNameString(s.name) << ',' << s.start_ns << ',' << s.end_ns << ','
          << static_cast<int>(s.flags) << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
