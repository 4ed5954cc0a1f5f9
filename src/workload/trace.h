// Line-oriented file-system trace format, recorder, and replayer.
//
// Format (one operation per line, '#' comments allowed):
//
//   mkdir  <path>
//   create <path>
//   write  <path> <offset> <length> [seed]
//   read   <path> <offset> <length>
//   unlink <path>
//   rmdir  <path>
//   rename <from> <to>
//   link   <existing> <new>     # a hard link
//   trunc  <path> <size>
//   sync
//   fsync  <path>
//   idle   <seconds>            # advance the clock, run Tick()
//   clean  <max_victims>        # LFS: CleanNow; no-op on other file systems
//
// Replaying the same trace against FFS and LFS testbeds is how the
// workload_replay example compares the systems on identical operation
// streams (the simulation equivalent of the paper's plan to put LFS "in
// continuous use by the Sprite user community").
#ifndef LOGFS_SRC_WORKLOAD_TRACE_H_
#define LOGFS_SRC_WORKLOAD_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/workload/testbed.h"

namespace logfs {

struct TraceOp {
  enum class Kind {
    kMkdir,
    kCreate,
    kWrite,
    kRead,
    kUnlink,
    kRmdir,
    kRename,
    kLink,
    kTruncate,
    kSync,
    kFsync,
    kIdle,
    kClean,
  };
  Kind kind = Kind::kSync;
  std::string path;
  std::string path2;     // Rename target; link's new name.
  uint64_t offset = 0;
  uint64_t length = 0;   // Also: truncate size; clean max_victims.
  uint64_t seed = 0;
  double seconds = 0.0;  // Idle time.
};

// The deterministic payload `write` ops carry: `length` bytes derived from
// `seed`. Shared with the crash explorer, whose workload model must predict
// file contents byte-for-byte.
std::vector<std::byte> TracePayload(size_t length, uint64_t seed);

// Parses a trace from text; reports the first malformed line.
Result<std::vector<TraceOp>> ParseTrace(std::string_view text);

// Serializes ops back to the text format.
std::string FormatTrace(const std::vector<TraceOp>& ops);

struct TraceReplayResult {
  uint64_t operations = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  double seconds = 0.0;       // Total elapsed simulated time.
  double idle_seconds = 0.0;  // Time spent in explicit `idle` ops.
  double ActiveSeconds() const { return seconds - idle_seconds; }
};

// Replays a trace against a testbed.
Result<TraceReplayResult> ReplayTrace(Testbed& bed, const std::vector<TraceOp>& ops);

// Generates a synthetic office/engineering trace of `operations` ops
// (deterministic for a seed), suitable for cross-FS replay.
std::vector<TraceOp> GenerateOfficeTrace(int operations, uint64_t seed);

// Generates a crash-exploration corpus: a mixed create / overwrite / fsync /
// unlink / sync / clean / idle stream sized so that fsyncs land often (lots
// of partial segments to tear) and the cleaner does real work. Used by
// ExploreCrashStates (src/crashsim/) and the crash_explorer example.
std::vector<TraceOp> GenerateCrashTrace(int operations, uint64_t seed);

}  // namespace logfs

#endif  // LOGFS_SRC_WORKLOAD_TRACE_H_
