// OverlayDisk: a copy-on-write BlockDevice over a shared, read-only base
// image. Reads fall through to the base except for sectors this device has
// written; writes go to a private sector map and never touch the base.
// Copying an OverlayDisk forks it: the copy shares the base and starts with
// its own copy of the private sectors.
//
// The crash-image generator (src/crashsim/crash_image.h) hands out each
// crash state as one: the landed journal prefix is the base, and a torn or
// dropped write is the private map. Each mount of the state gets its own
// fork, so recovery's writes cost only the sectors they touch, never a
// whole-volume copy.
//
// The base must outlive the overlay and must not change while it is read.
// There is no timing model: stats() counts requests and sectors only.
#ifndef LOGFS_SRC_DISK_OVERLAY_DISK_H_
#define LOGFS_SRC_DISK_OVERLAY_DISK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/block_device.h"

namespace logfs {

class OverlayDisk : public BlockDevice {
 public:
  // `base.size()` must be a multiple of kSectorSize.
  explicit OverlayDisk(std::span<const std::byte> base) : base_(base) {}

  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override;
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override;
  Status Flush() override { return OkStatus(); }

  uint64_t sector_count() const override { return base_.size() / kSectorSize; }
  const DiskStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }

  // Sectors held in the private map.
  size_t private_sectors() const { return private_.size() / kSectorSize; }

 private:
  Status CheckExtent(uint64_t first, size_t bytes) const;

  std::span<const std::byte> base_;
  // Per sector: 0 = read the base, else 1 + its index in private_. Sized on
  // the first write, so a fork nobody writes copies nothing.
  std::vector<uint32_t> slot_;
  std::vector<std::byte> private_;
  DiskStats stats_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_OVERLAY_DISK_H_
