// BlockDevice: the sector-extent storage interface every file system in
// logfs is built on. Implementations: MemoryDisk (simulated spindle),
// StripedDisk (RAID-0), FaultInjectingDisk and RecordingDisk (decorators).
#ifndef LOGFS_SRC_DISK_BLOCK_DEVICE_H_
#define LOGFS_SRC_DISK_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/util/status.h"

namespace logfs {

// Per-request options. `synchronous` marks requests the application must
// wait for (FFS metadata updates, fsync); it does not change device
// behaviour, but it is recorded in DiskStats and traces so the benchmarks
// can reproduce the paper's "8 writes, half synchronous" analysis.
struct IoOptions {
  bool synchronous = false;
};

// Aggregate device statistics, maintained by the physical device and
// readable through every decorator.
struct DiskStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  uint64_t seeks = 0;             // Requests that paid positioning cost.
  uint64_t sequential_ops = 0;    // Requests that continued at the head.
  uint64_t sync_writes = 0;       // Write requests marked synchronous.
  double busy_seconds = 0.0;      // Total simulated service time.
  double seek_seconds = 0.0;      // Positioning component only.

  void Reset() { *this = DiskStats{}; }
  std::string ToString() const;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // `out.size()` / `data.size()` must be a positive multiple of kSectorSize
  // and the extent must lie inside the device.
  virtual Status ReadSectors(uint64_t first, std::span<std::byte> out,
                             IoOptions options = {}) = 0;
  virtual Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                              IoOptions options = {}) = 0;

  // Vectored (scatter-gather) I/O. One device request covering the sector
  // extent [first, first + total/kSectorSize), where `total` is the summed
  // size of all buffers; the buffers are consumed (gather write) or filled
  // (scatter read) in order, as if they had been coalesced into one
  // contiguous span. The contract:
  //   * the vector must be non-empty and `total` a positive multiple of
  //     kSectorSize; individual buffers may be any size, including sizes
  //     that are not sector-aligned (empty buffers are permitted and
  //     ignored);
  //   * the request is accounted as ONE operation: DiskStats, traces, fault
  //     budgets and crash journals see exactly what a scalar call on the
  //     coalesced buffer would have seen;
  //   * buffers need only stay valid for the duration of the call.
  // The base-class default coalesces through a bounce buffer and issues one
  // scalar request (correct everywhere, zero-copy nowhere); devices
  // override it to move each extent directly.
  virtual Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                              IoOptions options = {});
  virtual Status WriteSectorsV(uint64_t first,
                               std::span<const std::span<const std::byte>> bufs,
                               IoOptions options = {});

  // Barrier: all previous writes are durable after Flush returns. The
  // simulated devices are always durable per-write, so this is a no-op hook
  // kept for interface fidelity (a real backing store would fsync here).
  virtual Status Flush() = 0;

  virtual uint64_t sector_count() const = 0;

  virtual const DiskStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

// Summed byte count of an I/O vector (works for both const and mutable
// buffer vectors).
template <typename Span>
constexpr size_t IoVecBytes(std::span<const Span> bufs) {
  size_t total = 0;
  for (const auto& buf : bufs) {
    total += buf.size();
  }
  return total;
}

// The sub-vector of `bufs` covering the byte range [offset, offset + len),
// preserving buffer boundaries. Used by decorators that must split or
// truncate a vectored request (stripe runs, torn-write prefixes) without
// coalescing it.
template <typename Span>
std::vector<Span> SliceIoVec(std::span<const Span> bufs, size_t offset, size_t len) {
  std::vector<Span> out;
  for (const auto& buf : bufs) {
    if (len == 0) {
      break;
    }
    if (offset >= buf.size()) {
      offset -= buf.size();
      continue;
    }
    const size_t take = std::min(buf.size() - offset, len);
    out.push_back(buf.subspan(offset, take));
    offset = 0;
    len -= take;
  }
  return out;
}

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_BLOCK_DEVICE_H_
