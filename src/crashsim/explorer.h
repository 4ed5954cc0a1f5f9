// ExploreCrashStates: the crash-state exploration driver, one for every
// front-end.
//
// Record: formats a rig through ShardedLfs at LfsParams::shard_count (at
// one log the router is the single-log passthrough, byte for byte), runs a
// trace workload through it on a RecordingDisk, and shadows every op in a
// WorkloadModel, with the logs each op edited.
//
// Judge: enumerates candidate post-crash images with CrashImageGenerator,
// pinning a boundary on both sides of every write to the intent region the
// formatted superblock locates, and has the Oracle remount and judge each
// one under roll-forward and under checkpoint-only recovery. The serve
// crash sweep and the sharded suite's self-test hand the judge journals of
// their own.
//
// The invariants checked per image (see oracle.h):
//   1. the mount succeeds,
//   2. CheckShardedLfs finds no damage,
//   3. every path shows a state the durability contract allows,
//   4. under roll-forward, every fsynced inode reads back its bytes.
#ifndef LOGFS_SRC_CRASHSIM_EXPLORER_H_
#define LOGFS_SRC_CRASHSIM_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/crashsim/crash_image.h"
#include "src/crashsim/oracle.h"
#include "src/disk/recording_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/lfs/lfs_format.h"
#include "src/util/result.h"
#include "src/workload/trace.h"

namespace logfs {

// The simulated rig the workload runs on. Small by default — 24 MB is
// 24 segments, enough for the cleaner to matter while every crash image
// stays a small copy-on-write overlay.
struct ExploreRigParams {
  ExploreRigParams() {
    lfs.max_inodes = 2048;
    lfs.clean_start_segments = 4;
    lfs.clean_stop_segments = 6;
    lfs.reserved_segments = 3;
  }
  uint64_t sectors = 49152;  // 24 MB.
  LfsParams lfs;  // shard_count >= 2 puts that many logs behind the router.
  // Used for the workload mount and for every Oracle remount (roll_forward
  // is overridden per check). Setting unsafe_skip_rollforward_crc here is
  // how the self-test weakens recovery to prove the Oracle notices.
  LfsFileSystem::Options mount_options;
};

// One recorded run: what the judge needs.
struct CrashRecording {
  std::vector<std::byte> base_image;  // The disk right after Format.
  std::vector<WriteRecord> writes;    // Every write from mount to unmount.
  WorkloadModel model;
};

// Verdict for one (crash plan, mount mode) pair.
struct CrashStateResult {
  CrashPlan plan;
  bool roll_forward = false;
  OracleVerdict verdict;
};

struct ExploreReport {
  size_t journal_writes = 0;    // Writes recorded during the workload.
  size_t plans = 0;             // Crash images materialized.
  size_t states_checked = 0;    // (plan, mount mode) pairs judged.
  size_t failed_states = 0;     // Pairs with at least one violation.
  size_t violations = 0;        // Total violation strings.
  std::vector<CrashStateResult> results;  // One per pair, in plan order.

  bool ok() const { return failed_states == 0; }
  std::string Summary() const;
  // Every violation, one line each: "<plan> [rf|cp] <violation>".
  std::string Violations() const;
};

// Formats a fresh rig and replays `workload` while recording. Fails if an
// op fails, or if a write or truncate goes through a name of a file that
// has others (the model keeps no inode identity).
Result<CrashRecording> RecordCrashWorkload(const std::vector<TraceOp>& workload,
                                           const ExploreRigParams& rig = {});

// Enumerates the recording's crash states under `budget` and judges each
// in both mount modes. Errors are infrastructure failures (images not
// materializing, an unreadable superblock); invariant violations are
// reported in the returned ExploreReport.
Result<ExploreReport> JudgeCrashStates(const CrashRecording& recording,
                                       const CrashEnumerationBudget& budget,
                                       const LfsFileSystem::Options& mount_options);

// RecordCrashWorkload, then JudgeCrashStates.
Result<ExploreReport> ExploreCrashStates(const std::vector<TraceOp>& workload,
                                         const CrashEnumerationBudget& budget = {},
                                         const ExploreRigParams& rig = {});

}  // namespace logfs

#endif  // LOGFS_SRC_CRASHSIM_EXPLORER_H_
