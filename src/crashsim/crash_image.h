// CrashImageGenerator: turns a recorded write stream (src/disk/recording_disk.h)
// into candidate post-crash disk images, CrashMonkey/ALICE-style.
//
// Three families of crash states, all relative to the journal:
//   * prefix boundaries — writes [0, p) landed, nothing of write p did;
//   * torn variants     — writes [0, p) landed plus the first `torn_sectors`
//                         sectors of write p (a mid-transfer tear);
//   * reorder variants  — writes [0, p) landed except one dropped request
//                         from the open flush epoch (an unordered device
//                         cache lost a request that later ones overtook).
// Torn variants are materialized by replaying the journal through
// FaultInjectingDisk::CrashAfterSectors, so the image generator and the
// fault injector can never disagree about tear semantics.
#ifndef LOGFS_SRC_CRASHSIM_CRASH_IMAGE_H_
#define LOGFS_SRC_CRASHSIM_CRASH_IMAGE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/disk/recording_disk.h"
#include "src/util/result.h"

namespace logfs {

// One candidate post-crash disk image.
struct CrashPlan {
  static constexpr size_t kNoDrop = std::numeric_limits<size_t>::max();

  size_t prefix = 0;          // Writes [0, prefix) landed fully.
  uint64_t torn_sectors = 0;  // Leading sectors of write `prefix` that landed.
  size_t dropped = kNoDrop;   // Reorder variant: this write (< prefix) never landed.

  std::string Describe() const;
};

// How many crash states to enumerate and of which kinds.
struct CrashEnumerationBudget {
  // Cap on prefix boundaries; 0 = one per journal write (plus the complete
  // image). When the journal is longer, boundaries are strided evenly.
  size_t max_boundaries = 0;
  // Torn-sector counts tried at each boundary (filtered to the in-flight
  // write's size). 8 = exactly one 4 KB block: the partial segment whose
  // summary landed but whose content did not.
  std::vector<uint64_t> torn_variants = {1, 4, 8, 12};
  // Also emit reorder (dropped-write) variants within the open flush epoch.
  bool reorder_within_epoch = false;
  size_t max_drops_per_boundary = 2;
  // Journal positions that must appear as boundaries even when
  // max_boundaries strides past them (each also gets its torn variants).
  // Lets a sweep pin crash points inside a narrow window of interest —
  // e.g. the single-sector intent publish/retire writes of a cross-shard
  // namespace operation, which a coarse stride would sample right over.
  std::vector<size_t> forced_boundaries;
};

class CrashImageGenerator {
 public:
  // `writes` must outlive the generator. `base_image` is the disk content
  // at journal start (for the explorer: right after Format).
  CrashImageGenerator(std::vector<std::byte> base_image,
                      const std::vector<WriteRecord>* writes);

  // Enumerates crash plans under the budget, in journal order. Dropped-write
  // variants never cross `barrier_positions`: a journal length at which some
  // durability barrier (sync/fsync/checkpoint) completed — requests on
  // opposite sides of a completed barrier are ordered even when the flush
  // epochs alone would not prove it (e.g. an fsync that found nothing dirty).
  std::vector<CrashPlan> Enumerate(const CrashEnumerationBudget& budget,
                                   const std::vector<size_t>& barrier_positions = {}) const;

  // Materializes the post-crash image for a plan.
  Result<std::vector<std::byte>> Materialize(const CrashPlan& plan) const;

  uint64_t sector_count() const { return base_image_.size() / kSectorSize; }
  size_t journal_size() const { return writes_->size(); }

 private:
  std::vector<std::byte> base_image_;
  const std::vector<WriteRecord>* writes_;
  std::vector<uint64_t> prefix_sectors_;  // prefix_sectors_[p] = sectors in writes [0, p).
};

}  // namespace logfs

#endif  // LOGFS_SRC_CRASHSIM_CRASH_IMAGE_H_
