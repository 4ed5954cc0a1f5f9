// Shared pieces of the benchmark's workload drivers: run configuration, the
// report every workload fills, latency samples, failure accounting and the
// expected-content model reads are checked against.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/disk/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Ops of the measured phase over which the count metrics (write_amp,
  // sim_*, and the per-layer counts) are taken. 0 = the workload's default.
  // The measured phase runs until both this many ops are done and the
  // --seconds window has passed.
  uint64_t count_ops = 0;
  int setup_reps = 9;  // setup_s is the median of this many set-ups
  std::string spans_out;  // CSV of every span of the traced pass ("" = none)
};

// Seconds since an arbitrary epoch (steady clock).
inline double HostNow() { return static_cast<double>(HostNowNs()) * 1e-9; }

// Host-latency classes of the end-to-end metrics.
enum class LatClass { kWrite, kRead, kFsync, kMeta, kCount };
inline constexpr size_t kLatClassCount = static_cast<size_t>(LatClass::kCount);
const char* LatClassName(LatClass c);

// Latency samples stamped with the host time they were taken.
class Samples {
 public:
  void Add(double v) { values_.push_back({HostNowNs(), v}); }
  // Adds `v` to the newest sample (no-op when there is none).
  void AddToLast(double v) {
    if (!values_.empty()) values_.back().second += v;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  // Nearest-rank percentile, p in (0, 1]; 0 when empty. With 3000 or more
  // samples, the run is cut into 3 (5 from 5000) consecutive slices of equal
  // sample count and the median of the slices' percentiles is returned, so a
  // burst of host interference in one slice does not move the result.
  double Percentile(double p) const;
  // Mean of the slowest (1 - p) share of the samples; 0 when empty.
  double TailMean(double p) const;

 private:
  std::vector<std::pair<int64_t, double>> values_;  // (host ns, value)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // samples behind a percentile (0 = not a percentile)
};

// Everything one pass of a workload produced.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures_by_code;
  std::vector<std::string> problems;  // the first few, for diagnostics

  // Filled by the workloads.
  double setup_s = 0.0;
  double measured_s = 0.0;  // host seconds of the measured phase
  uint64_t ops = 0;         // completed ops in the measured phase
  Samples host_us[kLatClassCount];
  uint64_t count_ops = 0;   // ops in the count window
  double sim_seconds = 0.0; // simulated seconds of the count window
  Samples sim_ms;           // per-op simulated latency in the count window
  uint64_t user_bytes = 0;  // bytes the workload wrote in the count window
  uint64_t device_bytes = 0;  // bytes the device wrote in the count window

  std::vector<Metric> layer;  // per-layer metrics (traced pass only)

  void Problem(const std::string& what);
  // Counts a failed op by its error code; never swallowed.
  void OpFailed(const logfs::Status& status, const char* op);
};

// Device-statistics delta between two snapshots.
logfs::DiskStats DiskDelta(const logfs::DiskStats& after, const logfs::DiskStats& before);

// The expected content of block `block` of file `file` at version
// `version`: a deterministic function of the three, so a read can be checked
// without keeping file bodies in memory.
void FillBlock(uint64_t file, uint64_t block, uint64_t version, std::span<std::byte> out);
// A whole small file whose blocks all share one version.
void FillFile(uint64_t file, uint64_t version, std::span<std::byte> out);

// Peak resident set of this process, in MB.
double PeakRssMb();

// Runs `f` as one top-level op: a span named `span`, its host latency into
// report->host_us[cls], and, when `record_sim`, its simulated latency on
// `clock` into report->sim_ms.
template <typename F>
auto TimeOp(SpanName span, LatClass cls, const logfs::SimClock& clock, bool record_sim,
            RunReport* report, F&& f) -> decltype(f()) {
  ScopedSpan scope(span);
  const double sim0 = clock.Now();
  const int64_t t0 = HostNowNs();
  auto result = f();
  const int64_t t1 = HostNowNs();
  ++report->ops;
  ++report->attempted;
  report->host_us[static_cast<size_t>(cls)].Add(static_cast<double>(t1 - t0) * 1e-3);
  if (record_sim) report->sim_ms.Add((clock.Now() - sim0) * 1e3);
  return result;
}

// Calls `setup` `reps` times (each call must first drop the state the
// previous one built) and sets report->setup_s to the median duration.
// Returns false, after recording the problem, when a set-up fails.
template <typename F>
bool TimeSetups(int reps, RunReport* report, F&& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    const double t0 = HostNow();
    if (logfs::Status st = setup(); !st.ok()) {
      report->Problem("set-up: " + st.ToString());
      return false;
    }
    times.push_back(HostNow() - t0);
  }
  std::sort(times.begin(), times.end());
  report->setup_s = times[times.size() / 2];
  return true;
}

// Workload entry points. Each sets up (cfg.setup_reps times, keeping the
// last), runs the measured phase, checks the outputs and fills `report`.
// When spans are enabled, the per-layer metrics are filled as well.
void RunSmallfile(const RunConfig& cfg, RunReport* report);
void RunChurn(const RunConfig& cfg, RunReport* report);
void RunShardMt(const RunConfig& cfg, RunReport* report);
void RunServeZipf(const RunConfig& cfg, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
