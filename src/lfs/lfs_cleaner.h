// The segment cleaner (paper Sections 4.3.2-4.3.4).
//
// Cleaning is a two-phase incremental garbage collection. Phase one reads
// the victims that hold live data (one sequential transfer each), identifies
// live blocks with the paper's two-step algorithm — (1) inode-map version
// check from the summary entry, (2) inode / indirect-block pointer check —
// and loads the live blocks into the file cache, marked dirty. A victim the
// segment usage table calls empty is reclaimed without a read, unless its
// estimate was ever clamped (SegUsage::live_clamped). Phase two is the
// ordinary cache write-back path: the live data is compacted into new
// segments exactly like freshly written data ("LFS implements cleaning by
// reading the live blocks into the file cache and then using the cache
// write-back code").
//
// A cleaned segment becomes kCleanPending and only turns allocatable after
// the next checkpoint commits, so a crash can never find the sole copy of a
// block overwritten before its new address was made recoverable.
#ifndef LOGFS_SRC_LFS_LFS_CLEANER_H_
#define LOGFS_SRC_LFS_LFS_CLEANER_H_

#include <cstdint>
#include <span>

#include "src/lfs/lfs_file_system.h"
#include "src/util/result.h"

namespace logfs {

// Paper write cost at observed utilization u: each segment of new data
// costs one segment write, u/(1-u) segments of live-copy writes, and
// 1/(1-u) segments of cleaner reads — 1 + u/(1-u) + 1/(1-u) = 2/(1-u).
// Published as the explicit three-term sum so a test hand-computing the
// formula from the same raw counters matches bit-for-bit. u is observed
// over the blocks the cleaner examined, which are those of the victims it
// read: a victim with no live data is reclaimed unread (a write cost of 1
// at u = 0) and enters neither u nor this formula.
//
// u is clamped below 1: the raw formula diverges as u -> 1 (every examined
// block alive, nothing reclaimable) and would poison the gauge — and any
// JSON export — with inf/NaN. Below the cap the clamp is exact identity.
inline constexpr double kWriteCostUtilizationCap = 1.0 - 1e-9;

inline double PaperWriteCost(double u) {
  if (!(u > 0.0)) return 2.0;  // u <= 0 or NaN: a read that found nothing live, 2/(1-0).
  if (u > kWriteCostUtilizationCap) u = kWriteCostUtilizationCap;
  return 1.0 + u / (1.0 - u) + 1.0 / (1.0 - u);
}

class LfsCleaner {
 public:
  explicit LfsCleaner(LfsFileSystem* fs) : fs_(fs) {}

  // One cleaning pass over up to `max_victims` segments (greedy policy:
  // least-live first). Ends with a checkpoint that commits the reclaimed
  // segments. Returns the number of segments cleaned.
  Result<uint32_t> CleanSegments(uint32_t max_victims);

  // One cleaning pass over an explicit victim list (non-dirty entries are
  // skipped). Same commit protocol.
  Result<uint32_t> CleanVictims(std::vector<uint32_t> victims);

  // Best-effort rescue of a damaged segment (normally one the scrubber just
  // quarantined): walks `image` in ChainMode::kProbe — probing past
  // unparseable summary blocks, stepping over partials whose entry table
  // does not decode, falling back to per-entry block checksums where a
  // partial segment's full CRC fails — and stages every live block that
  // still verifies, exactly like a cleaning pass would. Returns how many
  // blocks were staged; the caller flushes them to new homes as cleaner
  // work (in_cleaner_ set, so the traffic is attributed to `cleaner`).
  Result<uint64_t> SalvageSegment(uint32_t seg, std::span<const std::byte> image);

 private:
  // Phase one for one victim: walks the summary chain of `image` and stages
  // each block IsBlockLive calls live (inode blocks: StageLiveInodes) in the
  // cache / in-core inode table. With `salvage` set the walk tolerates
  // damage (see SalvageSegment); without it, it stops at the first partial
  // that fails its CRC, where the write path's valid chain ends.
  Status GatherLive(uint32_t seg, std::span<const std::byte> image, bool salvage);
  // Dirties each inode the map still homes in its slot of this verified
  // inode block, so the next flush rewrites it.
  Status StageLiveInodes(DiskAddr addr, std::span<const std::byte> block);

  LfsFileSystem* fs_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_LFS_LFS_CLEANER_H_
