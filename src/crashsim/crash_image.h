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
// An image is a base plus a journal prefix, as recovery itself sees a disk
// (a checkpoint plus the log written after it). The generator keeps one
// landed image, walks the plans in prefix order and applies each journal
// write to it once; each plan is then a copy-on-write OverlayDisk over that
// image whose private sectors hold the plan's difference from the prefix.
// Torn variants tear the in-flight write through
// FaultInjectingDisk::CrashAfterSectors, so the image generator and the
// fault injector can never disagree about tear semantics.
#ifndef LOGFS_SRC_CRASHSIM_CRASH_IMAGE_H_
#define LOGFS_SRC_CRASHSIM_CRASH_IMAGE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/disk/overlay_disk.h"
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
  // Reorder variants drop at most this many requests per boundary, the
  // latest ones of the open flush epoch.
  static constexpr size_t kMaxDropsPerBoundary = 2;

  // Cap on prefix boundaries; 0 = one per journal write (plus the complete
  // image). When the journal is longer, boundaries are strided evenly.
  size_t max_boundaries = 0;
  // Torn-sector counts tried at each boundary (filtered to the in-flight
  // write's size). 8 = exactly one 4 KB block: the partial segment whose
  // summary landed but whose content did not.
  std::vector<uint64_t> torn_variants = {1, 4, 8, 12};
  // Also emit reorder (dropped-write) variants within the open flush epoch.
  bool reorder_within_epoch = false;
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
  // `forced_boundaries` are journal positions that are boundaries even when
  // max_boundaries strides past them (each also gets its torn variants): the
  // explorer pins the crash points on both sides of every intent-region
  // write, a window a coarse stride would sample right over.
  std::vector<CrashPlan> Enumerate(const CrashEnumerationBudget& budget,
                                   const std::vector<size_t>& barrier_positions = {},
                                   const std::vector<size_t>& forced_boundaries = {}) const;

  // The post-crash image for `plan`: an overlay on the shared image where
  // writes [0, plan.prefix) landed, holding as private sectors the torn
  // sectors of write `prefix`, or the extent of the dropped write rebuilt
  // without it. Walk plans in non-decreasing prefix order (Enumerate's
  // order) and each journal write is applied once per sweep; an earlier
  // prefix starts over from the base image. The overlay reads the shared
  // image, so it is valid until the next call; fork (copy) it per mount.
  Result<OverlayDisk> Image(const CrashPlan& plan);

 private:
  // Sectors [first, first + count) once writes [0, prefix) except `skip`
  // landed on the base image.
  std::vector<std::byte> ReplayExtent(uint64_t first, uint64_t count, size_t prefix,
                                      size_t skip) const;

  std::vector<std::byte> base_image_;
  const std::vector<WriteRecord>* writes_;
  std::vector<std::byte> landed_;  // The base plus writes [0, landed_prefix_).
  size_t landed_prefix_ = 0;
};

}  // namespace logfs

#endif  // LOGFS_SRC_CRASHSIM_CRASH_IMAGE_H_
