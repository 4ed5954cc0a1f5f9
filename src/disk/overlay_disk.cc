#include "src/disk/overlay_disk.h"

#include <cstring>

namespace logfs {

Status OverlayDisk::CheckExtent(uint64_t first, size_t bytes) const {
  if (bytes == 0 || bytes % kSectorSize != 0) {
    return InvalidArgumentError("I/O size must be a positive multiple of the sector size");
  }
  const uint64_t count = bytes / kSectorSize;
  if (first >= sector_count() || count > sector_count() - first) {
    return OutOfRangeError("I/O extent beyond end of device");
  }
  return OkStatus();
}

Status OverlayDisk::ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions) {
  RETURN_IF_ERROR(CheckExtent(first, out.size()));
  const uint64_t count = out.size() / kSectorSize;
  auto slot = [&](uint64_t i) { return slot_.empty() ? 0u : slot_[first + i]; };
  for (uint64_t i = 0; i < count;) {
    std::byte* dst = out.data() + i * kSectorSize;
    if (const uint32_t s = slot(i); s != 0) {
      std::memcpy(dst, private_.data() + (s - 1) * kSectorSize, kSectorSize);
      ++i;
      continue;
    }
    // A run of sectors nobody wrote here: one copy from the base.
    uint64_t run = 1;
    while (i + run < count && slot(i + run) == 0) {
      ++run;
    }
    std::memcpy(dst, base_.data() + (first + i) * kSectorSize, run * kSectorSize);
    i += run;
  }
  ++stats_.read_ops;
  stats_.sectors_read += count;
  return OkStatus();
}

Status OverlayDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                                 IoOptions options) {
  RETURN_IF_ERROR(CheckExtent(first, data.size()));
  if (slot_.empty()) {
    slot_.assign(sector_count(), 0);
  }
  const uint64_t count = data.size() / kSectorSize;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t& s = slot_[first + i];
    if (s == 0) {
      private_.resize(private_.size() + kSectorSize);
      s = static_cast<uint32_t>(private_.size() / kSectorSize);
    }
    std::memcpy(private_.data() + (s - 1) * kSectorSize, data.data() + i * kSectorSize,
                kSectorSize);
  }
  ++stats_.write_ops;
  stats_.sectors_written += count;
  if (options.synchronous) {
    ++stats_.sync_writes;
  }
  return OkStatus();
}

}  // namespace logfs
