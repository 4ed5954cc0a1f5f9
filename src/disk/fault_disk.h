// FaultInjectingDisk: decorator that simulates crashes, torn writes, and
// media faults.
//
// Crash-recovery tests schedule a crash after the Nth write request (or the
// Nth written sector); once the crash fires, the write in flight may be torn
// (only a prefix of its sectors reach the medium) and every subsequent
// request fails with kCrashed — the device is "powered off". Remounting the
// file system on the *inner* device models rebooting the machine.
//
// Beyond crashes the decorator models three media-fault classes, each with a
// distinguishable Status so upper layers can react differently:
//
//   persistent (kMediaError)  Sectors marked bad with MarkBadSectors(). Any
//                             request touching one fails atomically (no bytes
//                             transferred) and keeps failing forever —
//                             retrying cannot help.
//   transient (kIoError)      Seeded probabilistic failures from
//                             SetTransientErrorRates(), or a one-shot
//                             FailNthRead()/FailNthWrite(). The fault fires
//                             *before* any bytes transfer, so a retry of the
//                             same request can succeed.
//   silent corruption (kOk)   CorruptSector() XORs a mask into the read
//                             buffer. The read itself reports success with
//                             wrong bytes — only end-to-end checksums above
//                             the device can catch it. The inner medium is
//                             never modified.
//
// Read behavior by mode, pinned by disk_test.cc: after CrashNow() every read
// returns kCrashed; a transient fault returns kIoError once and the retry
// succeeds with correct data; a bad sector returns kMediaError on every
// attempt. Injected faults are checked before the armed-crash write budget,
// and a failed write still counts toward write_requests_seen().
#ifndef LOGFS_SRC_DISK_FAULT_DISK_H_
#define LOGFS_SRC_DISK_FAULT_DISK_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/disk/block_device.h"
#include "src/util/rng.h"

namespace logfs {

class FaultInjectingDisk : public BlockDevice {
 public:
  explicit FaultInjectingDisk(BlockDevice* inner) : inner_(inner) {}

  // Crash after `n` more successful write *requests*. The (n+1)-th write
  // writes `torn_sectors` sectors (possibly 0) and then the device dies.
  void CrashAfterWrites(uint64_t n, uint64_t torn_sectors = 0) {
    writes_until_crash_ = n;
    torn_sectors_ = torn_sectors;
    sectors_until_crash_ = std::numeric_limits<uint64_t>::max();
    crashed_ = false;
    armed_ = true;
  }

  // Crash after `n` more written *sectors*. The write request that crosses
  // the boundary is the one interrupted: with `torn` it persists exactly the
  // sectors that fit in the remaining budget (a mid-transfer tear at an
  // arbitrary sector), without it the whole request is dropped (a
  // request-atomic device). A request that lands exactly on the boundary
  // completes; the next write dies.
  void CrashAfterSectors(uint64_t n, bool torn = true) {
    sectors_until_crash_ = n;
    torn_on_sector_boundary_ = torn;
    writes_until_crash_ = std::numeric_limits<uint64_t>::max();
    crashed_ = false;
    armed_ = true;
  }

  // Immediately power off the device.
  void CrashNow() {
    crashed_ = true;
    armed_ = false;
  }

  // Clear the crash state (the "reboot": the data survives, I/O works again).
  // Bad sectors, corruption, and transient rates persist across Reset() —
  // media damage does not heal on reboot.
  void Reset() {
    crashed_ = false;
    armed_ = false;
  }

  // Which operations a bad sector rejects.
  enum class BadSectorMode { kRead, kWrite, kReadWrite };

  // Mark `count` sectors starting at `first` as persistently bad. Requests
  // overlapping a bad sector fail with kMediaError before transferring any
  // bytes; the damage never heals.
  void MarkBadSectors(uint64_t first, uint64_t count,
                      BadSectorMode mode = BadSectorMode::kReadWrite) {
    for (uint64_t i = 0; i < count; ++i) {
      if (mode != BadSectorMode::kWrite) bad_read_sectors_.insert(first + i);
      if (mode != BadSectorMode::kRead) bad_write_sectors_.insert(first + i);
    }
  }
  void ClearBadSectors() {
    bad_read_sectors_.clear();
    bad_write_sectors_.clear();
  }

  // Seeded probabilistic transient faults: each read (write) request fails
  // with kIoError with probability `read_p` (`write_p`), decided before any
  // bytes transfer so a retry of the same request can succeed. Rates of 0
  // disable the mechanism.
  void SetTransientErrorRates(uint64_t seed, double read_p, double write_p) {
    rng_ = Rng(seed);
    transient_read_p_ = read_p;
    transient_write_p_ = write_p;
  }

  // One-shot transient fault: the read (write) request whose zero-based
  // request index equals `n` fails with kIoError. Indices count from device
  // construction — compare against read_requests_seen(). Calls accumulate,
  // so arming several consecutive indices makes that many retries fail.
  void FailNthRead(uint64_t n) { fail_read_requests_.insert(n); }
  void FailNthWrite(uint64_t n) { fail_write_requests_.insert(n); }

  // Silent corruption: reads covering `sector` get `xor_mask` XORed into the
  // byte at `byte_offset` (< kSectorSize) of that sector's data, while the
  // read still reports success. Lazy: the inner medium is untouched, so the
  // same logical flip applies to every future read until cleared.
  void CorruptSector(uint64_t sector, uint32_t byte_offset, uint8_t xor_mask) {
    corrupt_sectors_[sector] = CorruptionSpec{byte_offset % kSectorSize, xor_mask};
  }
  void ClearCorruption() { corrupt_sectors_.clear(); }

  bool crashed() const { return crashed_; }
  uint64_t write_requests_seen() const { return write_requests_seen_; }
  uint64_t read_requests_seen() const { return read_requests_seen_; }
  uint64_t sectors_written_seen() const { return sectors_written_seen_; }
  uint64_t transient_read_errors_injected() const { return transient_read_errors_injected_; }
  uint64_t transient_write_errors_injected() const { return transient_write_errors_injected_; }
  uint64_t media_errors_injected() const { return media_errors_injected_; }
  uint64_t corruptions_applied() const { return corruptions_applied_; }

  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override;
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override;
  // Vectored forwarding. Crash and torn budgets apply to the vector's total
  // sector count exactly as they would to the coalesced request; a torn
  // prefix is carved out of the vector at sector granularity, so a tear can
  // land in the middle of any buffer. Bad-sector and transient checks treat
  // the vector as one request; corruption lands in whichever buffer holds
  // the affected sector.
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      IoOptions options = {}) override;
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       IoOptions options = {}) override;
  Status Flush() override;

  uint64_t sector_count() const override { return inner_->sector_count(); }
  const DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  struct CorruptionSpec {
    uint32_t byte_offset;
    uint8_t xor_mask;
  };

  bool TouchesBadSector(const std::unordered_set<uint64_t>& bad, uint64_t first,
                        uint64_t sectors) const;
  // Fault gate shared by both read entry points; fires before any transfer.
  Status CheckReadFaults(uint64_t first, uint64_t sectors);
  Status CheckWriteFaults(uint64_t first, uint64_t sectors);
  void ApplyCorruption(uint64_t first, std::span<std::byte> out);
  void ApplyCorruptionV(uint64_t first, std::span<const std::span<std::byte>> bufs);

  BlockDevice* inner_;
  bool armed_ = false;
  bool crashed_ = false;
  uint64_t writes_until_crash_ = std::numeric_limits<uint64_t>::max();
  uint64_t torn_sectors_ = 0;
  uint64_t sectors_until_crash_ = std::numeric_limits<uint64_t>::max();
  bool torn_on_sector_boundary_ = true;
  uint64_t write_requests_seen_ = 0;
  uint64_t read_requests_seen_ = 0;
  uint64_t sectors_written_seen_ = 0;

  std::unordered_set<uint64_t> bad_read_sectors_;
  std::unordered_set<uint64_t> bad_write_sectors_;
  std::unordered_map<uint64_t, CorruptionSpec> corrupt_sectors_;
  Rng rng_{0};
  double transient_read_p_ = 0.0;
  double transient_write_p_ = 0.0;
  std::unordered_set<uint64_t> fail_read_requests_;
  std::unordered_set<uint64_t> fail_write_requests_;
  uint64_t transient_read_errors_injected_ = 0;
  uint64_t transient_write_errors_injected_ = 0;
  uint64_t media_errors_injected_ = 0;
  uint64_t corruptions_applied_ = 0;
};

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_FAULT_DISK_H_
