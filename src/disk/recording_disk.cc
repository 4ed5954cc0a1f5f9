#include "src/disk/recording_disk.h"

namespace logfs {

Status RecordingDisk::ReadSectors(uint64_t first, std::span<std::byte> out,
                                  IoOptions options) {
  RETURN_IF_ERROR(inner_->ReadSectors(first, out, options));
  last_end_ = first + out.size() / kSectorSize;
  return OkStatus();
}

Status RecordingDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                                   IoOptions options) {
  RETURN_IF_ERROR(inner_->WriteSectors(first, data, options));
  const std::span<const std::byte> one[] = {data};
  Journal(first, one, options);
  return OkStatus();
}

Status RecordingDisk::ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                                   IoOptions options) {
  RETURN_IF_ERROR(inner_->ReadSectorsV(first, bufs, options));
  last_end_ = first + IoVecBytes(bufs) / kSectorSize;
  return OkStatus();
}

Status RecordingDisk::WriteSectorsV(uint64_t first,
                                    std::span<const std::span<const std::byte>> bufs,
                                    IoOptions options) {
  RETURN_IF_ERROR(inner_->WriteSectorsV(first, bufs, options));
  Journal(first, bufs, options);
  return OkStatus();
}

void RecordingDisk::Journal(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                            IoOptions options) {
  // A synchronous write is a barrier on both sides: close the open epoch,
  // journal the request alone in its own epoch, and open a fresh one.
  if (options.synchronous && !writes_.empty() && writes_.back().epoch == epoch_) {
    ++epoch_;
  }
  WriteRecord record;
  record.first = first;
  record.data.reserve(IoVecBytes(bufs));
  for (const auto& buf : bufs) {
    record.data.insert(record.data.end(), buf.begin(), buf.end());
  }
  record.epoch = epoch_;
  record.synchronous = options.synchronous;
  record.sequential = last_end_ == first;
  record.time_seconds = clock_ != nullptr ? clock_->Now() : 0.0;
  sectors_recorded_ += record.SectorCount();
  last_end_ = first + record.SectorCount();
  writes_.push_back(std::move(record));
  if (options.synchronous) {
    ++epoch_;
  }
}

Status RecordingDisk::Flush() {
  RETURN_IF_ERROR(inner_->Flush());
  if (!writes_.empty() && writes_.back().epoch == epoch_) {
    ++epoch_;
  }
  return OkStatus();
}

}  // namespace logfs
