#include "src/disk/memory_disk.h"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <sstream>

namespace logfs {

std::string DiskStats::ToString() const {
  std::ostringstream os;
  os << "reads=" << read_ops << " writes=" << write_ops << " (sync=" << sync_writes << ")"
     << " sectors_read=" << sectors_read << " sectors_written=" << sectors_written
     << " seeks=" << seeks << " sequential=" << sequential_ops << " busy=" << busy_seconds
     << "s seek_time=" << seek_seconds << "s";
  return os.str();
}

namespace {

// Zero-filled bytes that become resident only when written.
std::byte* MapZeroPages(size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return static_cast<std::byte*>(pages);
}

}  // namespace

MemoryDisk::MemoryDisk(uint64_t sector_count, SimClock* clock, DiskModelParams params)
    : sector_count_(sector_count),
      clock_(clock),
      model_(params, sector_count),
      data_(MapZeroPages(sector_count * kSectorSize)) {}

MemoryDisk::~MemoryDisk() {
  if (data_ != nullptr) {
    munmap(data_, sector_count_ * kSectorSize);
  }
}

Status MemoryDisk::CheckExtent(uint64_t first, size_t bytes) const {
  if (bytes == 0 || bytes % kSectorSize != 0) {
    return InvalidArgumentError("I/O size must be a positive multiple of the sector size");
  }
  const uint64_t count = bytes / kSectorSize;
  if (first >= sector_count_ || count > sector_count_ - first) {
    return OutOfRangeError("I/O extent beyond end of device");
  }
  return OkStatus();
}

void MemoryDisk::Account(uint64_t first, uint64_t count, bool is_write, bool synchronous) {
  std::lock_guard<std::mutex> lock(account_mu_);
  const double positioning = model_.PositioningSeconds(first, head_);
  const double transfer =
      model_.TransferSeconds(count) + model_.params().command_overhead_ms / 1e3;
  if (positioning > 0.0) {
    ++stats_.seeks;
    stats_.seek_seconds += positioning;
  } else {
    ++stats_.sequential_ops;
  }
  stats_.busy_seconds += positioning + transfer;
  if (clock_ != nullptr) {
    clock_->Advance(positioning + transfer);
  }
  if (is_write) {
    ++stats_.write_ops;
    stats_.sectors_written += count;
    if (synchronous) {
      ++stats_.sync_writes;
    }
  } else {
    ++stats_.read_ops;
    stats_.sectors_read += count;
  }
  head_ = first + count;
}

Status MemoryDisk::ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options) {
  RETURN_IF_ERROR(CheckExtent(first, out.size()));
  std::memcpy(out.data(), data_ + first * kSectorSize, out.size());
  Account(first, out.size() / kSectorSize, /*is_write=*/false, options.synchronous);
  return OkStatus();
}

Status MemoryDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                                IoOptions options) {
  RETURN_IF_ERROR(CheckExtent(first, data.size()));
  std::memcpy(data_ + first * kSectorSize, data.data(), data.size());
  Account(first, data.size() / kSectorSize, /*is_write=*/true, options.synchronous);
  return OkStatus();
}

Status MemoryDisk::ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                                IoOptions options) {
  const size_t total = IoVecBytes(bufs);
  RETURN_IF_ERROR(CheckExtent(first, total));
  const std::byte* src = data_ + first * kSectorSize;
  for (const auto& buf : bufs) {
    if (!buf.empty()) {
      std::memcpy(buf.data(), src, buf.size());
      src += buf.size();
    }
  }
  Account(first, total / kSectorSize, /*is_write=*/false, options.synchronous);
  return OkStatus();
}

Status MemoryDisk::WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                                 IoOptions options) {
  const size_t total = IoVecBytes(bufs);
  RETURN_IF_ERROR(CheckExtent(first, total));
  std::byte* dst = data_ + first * kSectorSize;
  for (const auto& buf : bufs) {
    if (!buf.empty()) {
      std::memcpy(dst, buf.data(), buf.size());
      dst += buf.size();
    }
  }
  Account(first, total / kSectorSize, /*is_write=*/true, options.synchronous);
  return OkStatus();
}

Status MemoryDisk::Flush() { return OkStatus(); }

}  // namespace logfs
