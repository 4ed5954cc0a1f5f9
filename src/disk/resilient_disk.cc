#include "src/disk/resilient_disk.h"

#include "src/obs/metrics.h"

namespace logfs {

namespace {

struct ResilientMetrics {
  obs::Counter* retries = nullptr;
  obs::Counter* recovered = nullptr;
  obs::Counter* exhausted = nullptr;
  obs::Counter* media_errors = nullptr;
  obs::Counter* backoff_us = nullptr;
};

ResilientMetrics& Metrics() {
  static ResilientMetrics m = [] {
    ResilientMetrics init;
    if constexpr (obs::kMetricsEnabled) {
      init.retries = &obs::Registry().GetCounter("logfs.resilient.retries");
      init.recovered = &obs::Registry().GetCounter("logfs.resilient.recovered");
      init.exhausted = &obs::Registry().GetCounter("logfs.resilient.exhausted");
      init.media_errors = &obs::Registry().GetCounter("logfs.resilient.media_errors");
      // Cumulative sim-time spent sleeping between retries, in microseconds.
      init.backoff_us = &obs::Registry().GetCounter("logfs.resilient.backoff_us");
    }
    return init;
  }();
  return m;
}

}  // namespace

template <typename Attempt>
Status ResilientDisk::RunWithRetries(Attempt&& attempt) {
  double backoff = kInitialBackoffSeconds;
  for (uint32_t attempt_index = 0;; ++attempt_index) {
    Status status = attempt();
    if (status.ok()) {
      if (attempt_index > 0) {
        ++recovered_;
        if constexpr (obs::kMetricsEnabled) {
          Metrics().recovered->Increment();
        }
      }
      return status;
    }
    if (status.code() == ErrorCode::kMediaError) {
      ++media_errors_;
      if constexpr (obs::kMetricsEnabled) {
        Metrics().media_errors->Increment();
      }
      return status;
    }
    if (status.code() != ErrorCode::kIoError) {
      // kCrashed and everything else: not transient, pass through untouched.
      return status;
    }
    if (attempt_index + 1 >= kMaxAttempts) {
      ++exhausted_;
      ++media_errors_;
      if constexpr (obs::kMetricsEnabled) {
        Metrics().exhausted->Increment();
        Metrics().media_errors->Increment();
      }
      return MediaError("transient error persisted through retries: " + status.message());
    }
    if (clock_ != nullptr) {
      clock_->Advance(backoff);
    }
    backoff_seconds_ += backoff;
    ++retries_;
    if constexpr (obs::kMetricsEnabled) {
      Metrics().retries->Increment();
      Metrics().backoff_us->Increment(static_cast<uint64_t>(backoff * 1e6));
    }
    backoff *= kBackoffMultiplier;
  }
}

Status ResilientDisk::ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options) {
  return RunWithRetries([&] { return inner_->ReadSectors(first, out, options); });
}

Status ResilientDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                                   IoOptions options) {
  return RunWithRetries([&] { return inner_->WriteSectors(first, data, options); });
}

Status ResilientDisk::ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                                   IoOptions options) {
  return RunWithRetries([&] { return inner_->ReadSectorsV(first, bufs, options); });
}

Status ResilientDisk::WriteSectorsV(uint64_t first,
                                    std::span<const std::span<const std::byte>> bufs,
                                    IoOptions options) {
  return RunWithRetries([&] { return inner_->WriteSectorsV(first, bufs, options); });
}

Status ResilientDisk::Flush() {
  return RunWithRetries([&] { return inner_->Flush(); });
}

}  // namespace logfs
