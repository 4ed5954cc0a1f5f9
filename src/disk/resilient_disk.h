// ResilientDisk: decorator that retries transient I/O errors.
//
// Real devices report two flavours of failure: transient errors (a retry of
// the identical request can succeed — bus glitches, ECC-recoverable reads)
// and persistent media errors (no retry will ever succeed). This decorator
// implements the bounded-retry half of that contract: kIoError results are
// retried up to RetryPolicy::max_attempts total attempts with exponential
// simulated-time backoff, and an exhausted retry budget is *reclassified* as
// kMediaError so upper layers see one persistent-failure code regardless of
// whether the device said so directly or the retries just never won.
//
// kMediaError and kCrashed pass through immediately (retrying a dead sector
// or a powered-off device is pointless), as does every other error code —
// only kIoError is considered transient.
//
// Metrics: logfs.resilient.retries (re-issued requests), .recovered
// (requests that failed at least once and then succeeded), .exhausted
// (requests reclassified after the budget ran out), .media_errors
// (kMediaError results passed or reclassified upward), .backoff_us
// (cumulative simulated backoff sleep; it elapses inside the retried device
// call, so a traced LFS op counts it in that call's disk span).
#ifndef LOGFS_SRC_DISK_RESILIENT_DISK_H_
#define LOGFS_SRC_DISK_RESILIENT_DISK_H_

#include <cstdint>

#include "src/disk/block_device.h"
#include "src/sim/sim_clock.h"

namespace logfs {

struct RetryPolicy {
  // Total attempts per request, including the first (must be >= 1).
  uint32_t max_attempts = 4;
  // Simulated seconds to wait before the first retry.
  double initial_backoff_seconds = 0.001;
  // Backoff multiplier applied per further retry.
  double backoff_multiplier = 2.0;
};

class ResilientDisk : public BlockDevice {
 public:
  // `clock` may be null: retries then happen with no simulated delay.
  ResilientDisk(BlockDevice* inner, SimClock* clock = nullptr, RetryPolicy policy = {})
      : inner_(inner), clock_(clock), policy_(policy) {}

  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override;
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override;
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      IoOptions options = {}) override;
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       IoOptions options = {}) override;
  Status Flush() override;

  uint64_t sector_count() const override { return inner_->sector_count(); }
  const DiskStats& stats() const override { return inner_->stats(); }
  const DiskStats& inner_stats() const { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  const RetryPolicy& policy() const { return policy_; }
  uint64_t retries() const { return retries_; }
  uint64_t recovered() const { return recovered_; }
  uint64_t exhausted() const { return exhausted_; }
  uint64_t media_errors() const { return media_errors_; }
  // Total simulated seconds this decorator spent backing off between
  // retries (counted even when no clock is attached).
  double backoff_seconds() const { return backoff_seconds_; }

 private:
  // Runs `attempt` under the retry policy. `attempt` must be re-issuable
  // verbatim (all our request lambdas are: the fault layer injects errors
  // before transferring bytes, so a failed attempt left no partial state
  // worth preserving).
  template <typename Attempt>
  Status RunWithRetries(Attempt&& attempt);

  BlockDevice* inner_;
  SimClock* clock_;
  RetryPolicy policy_;
  uint64_t retries_ = 0;
  uint64_t recovered_ = 0;
  uint64_t exhausted_ = 0;
  uint64_t media_errors_ = 0;
  double backoff_seconds_ = 0.0;
};

}  // namespace logfs

#endif  // LOGFS_SRC_DISK_RESILIENT_DISK_H_
