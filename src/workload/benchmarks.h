// Workload generators reproducing the paper's evaluation (Section 5) plus
// the synthetic office/engineering workload the design targets (Section 3).
//
// Each benchmark runs against the abstract FileSystem interface and reports
// phase results measured on the simulated clock, so it runs unchanged on
// both LFS and FFS. The experiment functions at the end build the paper's
// sweeps out of them.
#ifndef LOGFS_SRC_WORKLOAD_BENCHMARKS_H_
#define LOGFS_SRC_WORKLOAD_BENCHMARKS_H_

#include <string>
#include <vector>

#include "src/fsbase/file_system.h"
#include "src/sim/sim_clock.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/workload/testbed.h"
#include "src/workload/trace.h"

namespace logfs {

struct PhaseResult {
  std::string name;
  double seconds = 0.0;
  uint64_t operations = 0;
  uint64_t bytes = 0;

  double OpsPerSecond() const { return seconds > 0 ? operations / seconds : 0.0; }
  double KBytesPerSecond() const { return seconds > 0 ? bytes / 1024.0 / seconds : 0.0; }
};

// --- Figure 3: small-file I/O -----------------------------------------------
//
// Create `num_files` files of `file_size` bytes spread over `num_dirs`
// directories (10 MB of data in the paper: 10000 x 1 KB or 1000 x 10 KB);
// flush the cache; read them all back in creation order; delete them all.
struct SmallFileParams {
  int num_files = 10000;
  size_t file_size = 1024;
  int num_dirs = 10;
  uint64_t seed = 1;
};

Result<std::vector<PhaseResult>> RunSmallFileBenchmark(Testbed& bed,
                                                       const SmallFileParams& params);

// --- Figure 4: large-file I/O -----------------------------------------------
//
// Five phases on one file with `request_size` transfers: sequential write,
// sequential read, random write, random read, sequential re-read.
struct LargeFileParams {
  uint64_t file_bytes = 100ull << 20;
  size_t request_size = 8192;
  uint64_t seed = 2;
};

Result<std::vector<PhaseResult>> RunLargeFileBenchmark(Testbed& bed,
                                                       const LargeFileParams& params);

// --- Figure 5: cleaning rate vs segment utilization ---------------------------
//
// Fill the log with small files, delete all but `utilization` of them
// (uniformly, so segments end up at ~uniform utilization), then measure the
// rate at which the cleaner generates clean segments.
struct CleaningRateParams {
  double utilization = 0.5;       // Fraction of live blocks at cleaning time.
  uint64_t fill_bytes = 0;        // 0 = ~70% of the disk.
  size_t file_size = 4096;        // One block per file, as in the paper's 1 KB
                                  // files on 4 KB blocks (block-granular).
  uint64_t seed = 3;
};

struct CleaningRateResult {
  double utilization_target = 0.0;
  double utilization_measured = 0.0;  // Mean live fraction of cleaned victims.
  uint32_t segments_cleaned = 0;      // Gross victims processed.
  double net_clean_kb = 0.0;          // Net clean space generated (gross minus
                                      // the space the survivors re-occupy).
  double seconds = 0.0;
  // Paper's y-axis: KB/s at which clean segments are generated (net).
  double CleanKBytesPerSecond() const {
    return seconds > 0 ? net_clean_kb / seconds : 0.0;
  }
};

// Requires an LFS testbed (`bed.fs` must be an LfsFileSystem).
Result<CleaningRateResult> RunCleaningRateBenchmark(Testbed& bed,
                                                    const CleaningRateParams& params);

// --- Section 3.1: create/delete latency vs CPU speed ---------------------------
//
// Creates and deletes `iterations` empty files, fsyncing each step the way
// the BSD create path forces synchronous metadata writes; reports the mean
// latency of a create+delete pair. Sweeping CPU MIPS exposes whether the
// file system couples application speed to disk speed.
struct CreateDeleteLatencyResult {
  double seconds_per_pair = 0.0;
};

Result<CreateDeleteLatencyResult> RunCreateDeleteLatency(Testbed& bed, int iterations);

// --- Office/engineering synthetic workload (Section 3) -------------------------
//
// The design-target workload: many small short-lived files accessed whole,
// with an 80/20 working-set skew and occasional large files. ABL3's cache
// sweep runs it; GenerateOfficeTrace draws its file sizes the same way.
struct OfficeWorkloadParams {
  int operations = 5000;
  int max_live_files = 400;
  double read_fraction = 0.55;   // Reads vs (create/overwrite/delete).
  double delete_fraction = 0.2;
  double think_time_seconds = 0.05;  // Advances the clock between ops.
  uint64_t seed = 4;
};

struct OfficeWorkloadResult {
  uint64_t operations = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t files_created = 0;
  uint64_t files_deleted = 0;
  double seconds = 0.0;
  double OpsPerSecond() const { return seconds > 0 ? operations / seconds : 0.0; }
};

Result<OfficeWorkloadResult> RunOfficeWorkload(Testbed& bed,
                                               const OfficeWorkloadParams& params);

// Draws a file size from the office/engineering distribution ("a large
// number of relatively small files, less than 8 KB, accessed in their
// entirety"; a small tail of big files).
size_t DrawOfficeFileSize(Rng& rng);

// --- The paper experiments (EXPERIMENTS.md) -------------------------------------
//
// One function per experiment: it builds its own testbeds, runs one
// measurement per sweep point it is given, and returns what that
// experiment's table reports, in sweep order. `bench/bench_paper` prints the
// tables at full scale; tests/paper_shapes_test.cc asserts their shapes,
// on fewer sweep points (or, for Figure 5, a smaller disk) where the full
// run is slow. Each rig's other settings are fixed inside its function, so
// the table and the asserted shape measure the same thing. Every testbed is
// the Section 5 machine (TestbedParams defaults) unless stated.

// LFS and FFS measured at one sweep point.
struct FsPair {
  double lfs = 0.0;
  double ffs = 0.0;
};

// Figures 1 & 2: creates dir1/file1 and dir2/file2 (one block each) on a
// traced device, lets delayed write-back complete, and reports the disk
// writes that caused.
struct CreatePattern {
  uint64_t writes = 0;
  uint64_t sync_writes = 0;
  uint64_t non_sequential = 0;
  std::vector<std::string> trace;  // One line per disk write.
};

Result<CreatePattern> RunCreatePattern(bool lfs);

// Section 3.1: seconds per create+delete pair, 500 pairs at each CPU speed
// in `mips`.
Result<std::vector<FsPair>> RunCpuScaling(const std::vector<double>& mips);

// Figures 3 and 4: one runner on a fresh LFS and a fresh FFS testbed.
struct PhaseComparison {
  std::vector<PhaseResult> lfs;
  std::vector<PhaseResult> ffs;
};

Result<PhaseComparison> CompareSmallFile(const SmallFileParams& params);
Result<PhaseComparison> CompareLargeFile(const LargeFileParams& params);

// Figure 5: one cleaning-rate measurement per target utilization, each on a
// fresh LFS of `disk_bytes` that only cleans when the benchmark asks.
Result<std::vector<CleaningRateResult>> RunCleaningSweep(
    const std::vector<double>& utilizations, uint64_t disk_bytes);

// RAID-0 (Section 2.1): both file systems on a 300 MB array of each member
// count in `members`, with a 128 KB stripe unit. The first reports
// sequential-write KB/s of a 48 MB file, the second creates/s of
// 4000 x 4 KB files.
Result<std::vector<FsPair>> RunArraySeqWrite(const std::vector<uint32_t>& members);
Result<std::vector<FsPair>> RunArrayCreates(const std::vector<uint32_t>& members);

// Read-ahead: an LFS with each read-ahead depth (0 = off) in `depths`, on a
// disk that charges 1 ms per command.
struct ReadAheadPoint {
  double small_reads_per_s = 0.0;  // Figure 3's read phase, 4000 x 4 KB files.
  double seq_read_kbps = 0.0;      // Figure 4's sequential read, 64 MB file.
  uint64_t small_disk_reads = 0;   // Disk reads of the whole small-file run.
};

Result<std::vector<ReadAheadPoint>> RunReadAheadSweep(const std::vector<uint32_t>& depths);

// ABL1, the mechanism: MB/s of 32 MB written straight to a 256 MB device as
// segment-sized transfers into alternating holes, so that every transfer
// pays one positioning delay. One point per size in `segment_kb`.
Result<std::vector<double>> RunScatteredSegmentWrites(const std::vector<uint32_t>& segment_kb);

// ABL1 on a fresh, contiguous log: Figure 3's 4000 x 1 KB run on a 128 MB
// LFS with each segment size in `segment_kb`.
struct SegmentSizePoint {
  double creates_per_s = 0.0;
  double disk_seconds_per_mb = 0.0;  // Disk busy time per MB written, whole run.
};

Result<std::vector<SegmentSizePoint>> RunSegmentSizeSweep(
    const std::vector<uint32_t>& segment_kb);

// ABL2: hot/cold overwrite churn on a 96 MB LFS under the greedy (paper) and
// the FIFO victim policy. 200 files of 256 KB, then 400 whole-file
// overwrites, 70% of them to the hottest 10%, each followed by 31 s and a
// Tick. Reports each run's cleaner totals. Every round checkpoints; the
// flight recorder's ring rides in the checkpoint region's slack at no
// simulated cost, and an 8-sample ring keeps its host-side encoding cheap
// without moving any number.
struct PolicyChurn {
  LfsFileSystem::CleanerStats greedy;
  LfsFileSystem::CleanerStats fifo;
};

Result<PolicyChurn> RunPolicyChurn();

// ABL3: the 4000-op office workload on an LFS with each cache policy in
// `caches`.
struct OfficeTraffic {
  double ops_per_s = 0.0;
  DiskStats disk;
};

Result<std::vector<OfficeTraffic>> RunOfficeTrafficSweep(const std::vector<CachePolicy>& caches);

// Office/engineering replay (Section 3): `trace` on a fresh LFS and a fresh
// FFS testbed, each synced after the replay.
struct TraceRun {
  TraceReplayResult replay;
  DiskStats disk;
};

struct ReplayComparison {
  TraceRun lfs;
  TraceRun ffs;
};

Result<ReplayComparison> CompareTraceReplay(const std::vector<TraceOp>& trace);

}  // namespace logfs

#endif  // LOGFS_SRC_WORKLOAD_BENCHMARKS_H_
