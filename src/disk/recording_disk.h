// RecordingDisk: BlockDevice decorator that journals the complete write
// stream of a workload run — sector extent, payload bytes, the flush epoch
// each request belongs to, when it returned and whether it continued the
// previous request. Two kinds of reader use the journal:
//
// * the Figures 1–2 trace (RunCreatePattern in src/workload/benchmarks.h),
//   which prints each write's extent, sync flag, sequentiality and time;
// * crash-image sweeps (src/crashsim/crash_image.h), which slice it into
//   candidate post-crash disk images: every prefix of the stream is a
//   crash state, every prefix plus a partial final request is a torn-write
//   state, and requests inside one flush epoch may be reordered or dropped.
//
// Flush epochs: Flush() closes the current epoch, and a synchronous write
// (IoOptions::synchronous) is treated as a full barrier — it gets an epoch
// of its own, so it can never be reordered against its neighbours. This is
// the write-ahead contract LFS relies on for the checkpoint region.
//
// Reads are forwarded and not journaled, but they still count as the
// previous request when the next write's sequentiality is judged.
//
// Not thread-safe: every caller drives it from one thread.
#ifndef LOGFS_SRC_DISK_RECORDING_DISK_H_
#define LOGFS_SRC_DISK_RECORDING_DISK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/disk/block_device.h"
#include "src/sim/sim_clock.h"

namespace logfs {

// One journaled write request, in stream order.
struct WriteRecord {
  uint64_t first = 0;           // First sector of the request.
  std::vector<std::byte> data;  // Full payload (multiple of kSectorSize).
  uint64_t epoch = 0;           // Flush epoch the request belongs to.
  bool synchronous = false;     // Marked IoOptions::synchronous.
  bool sequential = false;      // Began where the previous request ended.
  double time_seconds = 0.0;    // Simulated time when the request returned.

  uint64_t SectorCount() const { return data.size() / kSectorSize; }
};

class RecordingDisk : public BlockDevice {
 public:
  // `clock` may be null; time stamps are then 0.
  explicit RecordingDisk(BlockDevice* inner, const SimClock* clock = nullptr)
      : inner_(inner), clock_(clock) {}

  Status ReadSectors(uint64_t first, std::span<std::byte> out,
                     IoOptions options = {}) override;
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override;
  // A vectored write is one request: it is journaled as a single record
  // (payload concatenated), so crash-image enumeration sees the same
  // request boundaries as the equivalent coalesced scalar write.
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      IoOptions options = {}) override;
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       IoOptions options = {}) override;
  Status Flush() override;

  uint64_t sector_count() const override { return inner_->sector_count(); }
  const DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  // The journal. Stable across calls; grows only at the tail, so a reader
  // interested in one phase of a run remembers write_count() before it and
  // reads from that index on.
  const std::vector<WriteRecord>& writes() const { return writes_; }
  size_t write_count() const { return writes_.size(); }

 private:
  void Journal(uint64_t first, std::span<const std::span<const std::byte>> bufs,
               IoOptions options);

  BlockDevice* inner_;
  const SimClock* clock_;
  std::vector<WriteRecord> writes_;
  uint64_t epoch_ = 0;
  // One past the previous request's last sector; empty before the first.
  std::optional<uint64_t> last_end_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_RECORDING_DISK_H_
