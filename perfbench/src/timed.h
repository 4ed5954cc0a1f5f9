// Timing decorators: a FileSystem and a BlockDevice that forward every call
// to the wrapped object inside a ScopedSpan (spans.h). They add no behaviour
// of their own; with span recording off they cost one virtual call and one
// relaxed load per call. Both are thread-safe to the same degree as the
// object they wrap (span buffers are per thread).
#ifndef PERFBENCH_SRC_TIMED_H_
#define PERFBENCH_SRC_TIMED_H_

#include <functional>

#include "perfbench/src/spans.h"
#include "src/disk/block_device.h"
#include "src/fsbase/file_system.h"

namespace perfbench {

class TimedFs : public logfs::FileSystem {
 public:
  // Monotone progress counters read before and after each call while spans
  // are recorded, to flag the spans in which the cleaner ran or a checkpoint
  // was written. Only safe where no other thread mutates the file system.
  struct Progress {
    uint64_t cleaner = 0;
    uint64_t checkpoints = 0;
  };
  using Probe = std::function<Progress()>;

  explicit TimedFs(logfs::FileSystem* inner, Probe probe = {})
      : inner_(inner), probe_(std::move(probe)) {}

  logfs::Result<logfs::InodeNum> Create(logfs::InodeNum dir, std::string_view name,
                                        logfs::FileType type) override;
  logfs::Result<logfs::InodeNum> Lookup(logfs::InodeNum dir, std::string_view name) override;
  logfs::Status Unlink(logfs::InodeNum dir, std::string_view name) override;
  logfs::Status Rmdir(logfs::InodeNum dir, std::string_view name) override;
  logfs::Status Link(logfs::InodeNum dir, std::string_view name,
                     logfs::InodeNum target) override;
  logfs::Status Rename(logfs::InodeNum from_dir, std::string_view from_name,
                       logfs::InodeNum to_dir, std::string_view to_name) override;
  logfs::Result<uint64_t> Read(logfs::InodeNum ino, uint64_t offset,
                               std::span<std::byte> out) override;
  logfs::Result<uint64_t> Write(logfs::InodeNum ino, uint64_t offset,
                                std::span<const std::byte> data) override;
  logfs::Status Truncate(logfs::InodeNum ino, uint64_t new_size) override;
  logfs::Result<logfs::FileStat> Stat(logfs::InodeNum ino) override;
  logfs::Result<std::vector<logfs::DirEntry>> ReadDir(logfs::InodeNum dir) override;
  logfs::Status Sync() override;
  logfs::Status Fsync(logfs::InodeNum ino) override;
  logfs::Status DropCaches() override;
  logfs::Status Tick() override;
  logfs::InodeNum root() const override { return inner_->root(); }
  std::string name() const override { return inner_->name(); }

 private:
  template <typename F>
  auto Call(SpanName name, F&& f) -> decltype(f());

  logfs::FileSystem* inner_;
  Probe probe_;
};

class TimedDisk : public logfs::BlockDevice {
 public:
  explicit TimedDisk(logfs::BlockDevice* inner) : inner_(inner) {}

  logfs::Status ReadSectors(uint64_t first, std::span<std::byte> out,
                            logfs::IoOptions options = {}) override;
  logfs::Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                             logfs::IoOptions options = {}) override;
  logfs::Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                             logfs::IoOptions options = {}) override;
  logfs::Status WriteSectorsV(uint64_t first,
                              std::span<const std::span<const std::byte>> bufs,
                              logfs::IoOptions options = {}) override;
  logfs::Status Flush() override { return inner_->Flush(); }
  uint64_t sector_count() const override { return inner_->sector_count(); }
  const logfs::DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  logfs::BlockDevice* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_H_
