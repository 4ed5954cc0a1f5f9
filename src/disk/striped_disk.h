// StripedDisk: a RAID-0 composition of block devices (paper Section 2.1:
// "the bandwidth and throughput of disk subsystems can be substantially
// increased by the use of arrays of disks such as RAIDs [3], [but] the
// access time for small disk accesses is not substantially improved").
//
// Sector extents are split across member disks in `stripe_sectors` units.
// Member service times overlap — the array's time for a request is the
// *maximum* of its members' times, not the sum — so sequential bandwidth
// scales with the member count while small-access latency does not: exactly
// the asymmetry LFS is designed to exploit, and the FFS baseline cannot.
//
// Implementation note on timing: members are constructed with their own
// private SimClocks; the striped layer advances the shared simulation clock
// by the slowest member's delta per request.
// Thread safety: concurrent requests (shards flushing in parallel) are
// safe — member data copies run in parallel guarded per member, the shared
// and member clocks are atomic, and the array-level stats are mutex
// guarded. Concurrent requests overlap in *wall* time, so each one's
// observed member deltas may include a neighbour's service time; the
// array-level busy_seconds then over-approximates. Single-threaded timing
// is bit-identical to the original.
#ifndef LOGFS_SRC_DISK_STRIPED_DISK_H_
#define LOGFS_SRC_DISK_STRIPED_DISK_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/memory_disk.h"
#include "src/sim/sim_clock.h"

namespace logfs {

class StripedDisk : public BlockDevice {
 public:
  // Builds a RAID-0 array of `members` MemoryDisks, each of
  // `sectors_per_member` sectors, striped in `stripe_sectors` units.
  // `clock` is the shared simulation clock (may be null).
  StripedDisk(uint32_t members, uint64_t sectors_per_member, uint64_t stripe_sectors,
              SimClock* clock, DiskModelParams params = {});

  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override;
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override;
  // Vectored I/O: extents are split at stripe boundaries and each member
  // run is issued as one vectored request to the member, so buffers that
  // straddle a boundary are never coalesced.
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      IoOptions options = {}) override;
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       IoOptions options = {}) override;
  Status Flush() override;

  uint64_t sector_count() const override { return total_sectors_; }
  // Array-level view: one logical request is one op here even when it
  // touched several members. member(i).stats() holds each member's own.
  const DiskStats& stats() const override { return stats_; }
  void ResetStats() override;

  uint32_t member_count() const { return static_cast<uint32_t>(members_.size()); }
  const MemoryDisk& member(uint32_t index) const { return *members_[index]; }

 private:
  // Splits the request into per-member runs and executes them, advancing
  // the shared clock by the slowest member. Exactly one of the two buffer
  // vectors is used, selected by `is_write`.
  Status ForEachRun(uint64_t first, bool is_write, IoOptions options,
                    std::span<const std::span<std::byte>> read_bufs,
                    std::span<const std::span<const std::byte>> write_bufs);

  uint64_t stripe_sectors_;
  uint64_t total_sectors_;
  SimClock* clock_;
  std::vector<std::unique_ptr<SimClock>> member_clocks_;
  std::vector<std::unique_ptr<MemoryDisk>> members_;
  std::mutex stats_mu_;  // Guards stats_ against concurrent requests.
  DiskStats stats_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_STRIPED_DISK_H_
