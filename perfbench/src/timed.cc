#include "perfbench/src/timed.h"

namespace perfbench {

using logfs::DirEntry;
using logfs::FileStat;
using logfs::FileType;
using logfs::InodeNum;
using logfs::IoOptions;
using logfs::Result;
using logfs::Status;

template <typename F>
auto TimedFs::Call(SpanName name, F&& f) -> decltype(f()) {
  ScopedSpan span(name);
  if (!span.active() || !probe_) return f();
  const Progress before = probe_();
  auto result = f();
  const Progress after = probe_();
  uint8_t flags = 0;
  if (after.cleaner != before.cleaner) flags |= kFlagCleaned;
  if (after.checkpoints != before.checkpoints) flags |= kFlagCheckpoint;
  span.AddFlags(flags);
  return result;
}

Result<InodeNum> TimedFs::Create(InodeNum dir, std::string_view name, FileType type) {
  return Call(SpanName::kFsCreate, [&] { return inner_->Create(dir, name, type); });
}
Result<InodeNum> TimedFs::Lookup(InodeNum dir, std::string_view name) {
  return Call(SpanName::kFsLookup, [&] { return inner_->Lookup(dir, name); });
}
Status TimedFs::Unlink(InodeNum dir, std::string_view name) {
  return Call(SpanName::kFsUnlink, [&] { return inner_->Unlink(dir, name); });
}
Status TimedFs::Rmdir(InodeNum dir, std::string_view name) {
  return Call(SpanName::kFsOther, [&] { return inner_->Rmdir(dir, name); });
}
Status TimedFs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  return Call(SpanName::kFsOther, [&] { return inner_->Link(dir, name, target); });
}
Status TimedFs::Rename(InodeNum from_dir, std::string_view from_name, InodeNum to_dir,
                       std::string_view to_name) {
  return Call(SpanName::kFsRename,
              [&] { return inner_->Rename(from_dir, from_name, to_dir, to_name); });
}
Result<uint64_t> TimedFs::Read(InodeNum ino, uint64_t offset, std::span<std::byte> out) {
  return Call(SpanName::kFsRead, [&] { return inner_->Read(ino, offset, out); });
}
Result<uint64_t> TimedFs::Write(InodeNum ino, uint64_t offset,
                                std::span<const std::byte> data) {
  return Call(SpanName::kFsWrite, [&] { return inner_->Write(ino, offset, data); });
}
Status TimedFs::Truncate(InodeNum ino, uint64_t new_size) {
  return Call(SpanName::kFsOther, [&] { return inner_->Truncate(ino, new_size); });
}
Result<FileStat> TimedFs::Stat(InodeNum ino) {
  return Call(SpanName::kFsStat, [&] { return inner_->Stat(ino); });
}
Result<std::vector<DirEntry>> TimedFs::ReadDir(InodeNum dir) {
  return Call(SpanName::kFsOther, [&] { return inner_->ReadDir(dir); });
}
Status TimedFs::Sync() {
  return Call(SpanName::kFsOther, [&] { return inner_->Sync(); });
}
Status TimedFs::Fsync(InodeNum ino) {
  return Call(SpanName::kFsFsync, [&] { return inner_->Fsync(ino); });
}
Status TimedFs::DropCaches() {
  return Call(SpanName::kFsOther, [&] { return inner_->DropCaches(); });
}
Status TimedFs::Tick() {
  return Call(SpanName::kFsTick, [&] { return inner_->Tick(); });
}

Status TimedDisk::ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options) {
  ScopedSpan span(SpanName::kDiskRead);
  return inner_->ReadSectors(first, out, options);
}
Status TimedDisk::WriteSectors(uint64_t first, std::span<const std::byte> data,
                               IoOptions options) {
  ScopedSpan span(SpanName::kDiskWrite);
  return inner_->WriteSectors(first, data, options);
}
Status TimedDisk::ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                               IoOptions options) {
  ScopedSpan span(SpanName::kDiskRead);
  return inner_->ReadSectorsV(first, bufs, options);
}
Status TimedDisk::WriteSectorsV(uint64_t first,
                                std::span<const std::span<const std::byte>> bufs,
                                IoOptions options) {
  ScopedSpan span(SpanName::kDiskWrite);
  return inner_->WriteSectorsV(first, bufs, options);
}

}  // namespace perfbench
