// MemoryDisk: the simulated physical disk.
//
// Stores sector data in RAM and charges simulated service time (seek +
// rotation + transfer) to a shared SimClock through a DiskModel. Tracks the
// head position so sequential continuation is free of positioning cost,
// exactly the property LFS exploits.
//
// The image is an anonymous private mapping: the kernel hands out zero pages
// on demand, so a disk is resident only where it was written, and it is
// still one contiguous span for RawImage(). A zero-filled vector would touch
// every page up front; calloc would too once glibc has freed a chunk of the
// same size, raised its mmap threshold, and started serving that size from
// the heap with a memset.
//
// Thread safety: the accounting state (head position, stats, clock charge)
// is guarded by an internal mutex so shards of a sharded mount can issue
// I/O from many threads. The sector image itself is copied *outside* the
// lock — concurrent callers touching disjoint extents (each shard owns a
// disjoint window) proceed in parallel; overlapping concurrent writes were
// never defined and stay undefined. Single-threaded accounting is
// bit-identical to the lock-free original.
#ifndef LOGFS_SRC_DISK_MEMORY_DISK_H_
#define LOGFS_SRC_DISK_MEMORY_DISK_H_

#include <mutex>

#include "src/disk/block_device.h"
#include "src/sim/disk_model.h"
#include "src/sim/sim_clock.h"

namespace logfs {

class MemoryDisk : public BlockDevice {
 public:
  // `clock` must outlive the disk and may be null (timing disabled, for
  // pure functional tests).
  MemoryDisk(uint64_t sector_count, SimClock* clock, DiskModelParams params = {});
  ~MemoryDisk() override;
  MemoryDisk(const MemoryDisk&) = delete;
  MemoryDisk& operator=(const MemoryDisk&) = delete;

  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override;
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override;
  // Native scatter-gather: one memcpy per extent straight to/from the
  // image, one Account() call — simulated stats and timing are identical to
  // the scalar path on the coalesced buffer.
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      IoOptions options = {}) override;
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       IoOptions options = {}) override;
  Status Flush() override;

  uint64_t sector_count() const override { return sector_count_; }
  const DiskStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }

  const DiskModel& model() const { return model_; }

  // Raw image access for checkers and "dd"-style inspection in tests.
  std::span<const std::byte> RawImage() const { return {data_, sector_count_ * kSectorSize}; }
  std::span<std::byte> MutableRawImage() { return {data_, sector_count_ * kSectorSize}; }

 private:
  Status CheckExtent(uint64_t first, size_t bytes) const;
  void Account(uint64_t first, uint64_t count, bool is_write, bool synchronous);

  uint64_t sector_count_;
  SimClock* clock_;
  DiskModel model_;
  std::byte* data_;  // sector_count_ * kSectorSize mapped bytes; null when empty.
  std::mutex account_mu_;  // Guards head_, stats_, and the clock charge.
  uint64_t head_ = 0;      // Sector after the last transferred sector.
  DiskStats stats_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_MEMORY_DISK_H_
