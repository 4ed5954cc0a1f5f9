// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code only: the workload drivers
// open one around each top-level op and each PathFs call, and the timing
// decorators (timed.h) open one around every FileSystem and BlockDevice
// call. Each thread appends to its own buffer; the parent of a new span is
// the innermost span still open on that thread. Nothing is written until
// the run ends, when the buffers are rolled up into per-name self times and
// optionally dumped as CSV.
//
// With recording disabled (the untraced run) a ScopedSpan costs one relaxed
// atomic load.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench {

enum class SpanName : uint8_t {
  // Top-level workload ops (driver).
  kOpCreate,
  kOpRead,
  kOpWrite,
  kOpFsync,
  kOpUnlink,
  kOpRename,
  kOpMkdir,
  kOpTick,
  // One PathFs call (driver).
  kPath,
  // FileSystem calls (TimedFs).
  kFsCreate,
  kFsLookup,
  kFsUnlink,
  kFsRename,
  kFsWrite,
  kFsRead,
  kFsFsync,
  kFsTick,
  kFsStat,
  kFsOther,
  // BlockDevice calls (TimedDisk).
  kDiskRead,
  kDiskWrite,
  kCount,
};
inline constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

// Per-span annotations set by the decorators.
enum SpanFlag : uint8_t {
  kFlagCleaned = 1,      // The cleaner made progress inside this span.
  kFlagCheckpoint = 2,   // A checkpoint was written inside this span.
};

int64_t HostNowNs();

// Process-wide gate; flip only while no spans are open.
void SetSpansEnabled(bool enabled);
bool SpansEnabled();
// Drops every recorded span (all threads); call while no spans are open.
void ClearSpans();

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // ORs `flags` into the span (no-op when recording is off).
  void AddFlags(uint8_t flags);
  bool active() const { return index_ >= 0; }

 private:
  int64_t index_ = -1;
};

// Aggregates over every recorded span, all threads.
struct SpanRollup {
  struct PerName {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;        // total minus the time covered by children
    int64_t disk_child_ns = 0;  // time covered by direct disk children
    uint64_t lookup_children = 0;
  };
  std::array<PerName, kSpanNameCount> by_name{};
  // FileSystem spans during which the cleaner / a checkpoint ran.
  uint64_t cleaner_spans = 0;
  int64_t cleaner_ns = 0;
  uint64_t checkpoint_spans = 0;
  int64_t checkpoint_ns = 0;
  // Foreground Write/Fsync spans during which the cleaner ran.
  uint64_t fg_stalls = 0;
  int64_t fg_stall_ns = 0;

  const PerName& operator[](SpanName n) const { return by_name[static_cast<size_t>(n)]; }
  // Mean self time per call in microseconds (0 when never called).
  double SelfUs(SpanName n) const;
};

// Call after every recording thread has finished.
SpanRollup RollupSpans();
// Writes one CSV row per span (thread, index, parent, name, start_ns,
// end_ns, flags). Returns false when the file cannot be written.
bool WriteSpansCsv(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
