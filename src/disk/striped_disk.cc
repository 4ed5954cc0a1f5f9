#include "src/disk/striped_disk.h"

#include <algorithm>

namespace logfs {

StripedDisk::StripedDisk(uint32_t members, uint64_t sectors_per_member,
                         uint64_t stripe_sectors, SimClock* clock, DiskModelParams params)
    : stripe_sectors_(stripe_sectors),
      total_sectors_(static_cast<uint64_t>(members) * sectors_per_member),
      clock_(clock) {
  for (uint32_t i = 0; i < members; ++i) {
    member_clocks_.push_back(std::make_unique<SimClock>());
    members_.push_back(
        std::make_unique<MemoryDisk>(sectors_per_member, member_clocks_.back().get(), params));
  }
}

Status StripedDisk::ForEachRun(uint64_t first, bool is_write, IoOptions options,
                               std::span<const std::span<std::byte>> read_bufs,
                               std::span<const std::span<const std::byte>> write_bufs) {
  const size_t bytes = is_write ? IoVecBytes(write_bufs) : IoVecBytes(read_bufs);
  if (bytes == 0 || bytes % kSectorSize != 0) {
    return InvalidArgumentError("I/O size must be a positive multiple of the sector size");
  }
  const uint64_t count = bytes / kSectorSize;
  if (first >= total_sectors_ || count > total_sectors_ - first) {
    return OutOfRangeError("I/O extent beyond end of array");
  }
  // Execute per-member runs; each member's private clock advances by its own
  // service time. The array is done when the slowest member is done.
  std::vector<double> start_times(members_.size());
  for (size_t m = 0; m < members_.size(); ++m) {
    start_times[m] = member_clocks_[m]->Now();
  }
  uint64_t done = 0;
  while (done < count) {
    const uint64_t logical = first + done;
    const uint64_t stripe_index = logical / stripe_sectors_;
    const uint64_t within = logical % stripe_sectors_;
    const uint32_t member = static_cast<uint32_t>(stripe_index % members_.size());
    const uint64_t member_sector =
        (stripe_index / members_.size()) * stripe_sectors_ + within;
    const uint64_t run = std::min(stripe_sectors_ - within, count - done);
    if (is_write) {
      const auto fragments =
          SliceIoVec(write_bufs, done * kSectorSize, run * kSectorSize);
      RETURN_IF_ERROR(members_[member]->WriteSectorsV(member_sector, fragments, options));
    } else {
      const auto fragments =
          SliceIoVec(read_bufs, done * kSectorSize, run * kSectorSize);
      RETURN_IF_ERROR(members_[member]->ReadSectorsV(member_sector, fragments, options));
    }
    done += run;
  }
  // The request completes when the slowest member finishes (members work in
  // parallel); idle members catch up to the completion time.
  double max_elapsed = 0.0;
  for (size_t m = 0; m < members_.size(); ++m) {
    max_elapsed = std::max(max_elapsed, member_clocks_[m]->Now() - start_times[m]);
  }
  for (size_t m = 0; m < members_.size(); ++m) {
    member_clocks_[m]->AdvanceTo(start_times[m] + max_elapsed);
  }
  if (clock_ != nullptr) {
    clock_->Advance(max_elapsed);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.busy_seconds += max_elapsed;
    if (is_write) {
      ++stats_.write_ops;
      stats_.sectors_written += count;
      if (options.synchronous) {
        ++stats_.sync_writes;
      }
    } else {
      ++stats_.read_ops;
      stats_.sectors_read += count;
    }
  }
  return OkStatus();
}

Status StripedDisk::ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options) {
  const std::span<std::byte> one[] = {out};
  return ForEachRun(first, /*is_write=*/false, options, one, {});
}

Status StripedDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                                 IoOptions options) {
  const std::span<const std::byte> one[] = {data};
  return ForEachRun(first, /*is_write=*/true, options, {}, one);
}

Status StripedDisk::ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                                 IoOptions options) {
  return ForEachRun(first, /*is_write=*/false, options, bufs, {});
}

Status StripedDisk::WriteSectorsV(uint64_t first,
                                  std::span<const std::span<const std::byte>> bufs,
                                  IoOptions options) {
  return ForEachRun(first, /*is_write=*/true, options, {}, bufs);
}

Status StripedDisk::Flush() {
  for (auto& member : members_) {
    RETURN_IF_ERROR(member->Flush());
  }
  return OkStatus();
}

void StripedDisk::ResetStats() {
  stats_.Reset();
  for (auto& member : members_) {
    member->ResetStats();
  }
}

}  // namespace logfs
