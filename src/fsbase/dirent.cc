#include "src/fsbase/dirent.h"

#include <cassert>
#include <cstring>

namespace logfs {
namespace {

constexpr size_t kHeaderSize = 8 + 2 + 2 + 1;  // ino, reclen, namelen, type.

uint64_t LoadU64(std::span<const std::byte> buffer, size_t offset) {
  uint64_t value = 0;
  std::memcpy(&value, buffer.data() + offset, sizeof(value));
  return value;
}

uint16_t LoadU16(std::span<const std::byte> buffer, size_t offset) {
  uint16_t value = 0;
  std::memcpy(&value, buffer.data() + offset, sizeof(value));
  return value;
}

void StoreU64(std::span<std::byte> buffer, size_t offset, uint64_t value) {
  std::memcpy(buffer.data() + offset, &value, sizeof(value));
}

void StoreU16(std::span<std::byte> buffer, size_t offset, uint16_t value) {
  std::memcpy(buffer.data() + offset, &value, sizeof(value));
}

}  // namespace

size_t DirRecordSize(size_t name_len) { return (kHeaderSize + name_len + 3) & ~size_t{3}; }

Status DirBlockView::InitEmpty() {
  if (block_.size() < DirRecordSize(0) || block_.size() > UINT16_MAX) {
    return InvalidArgumentError("directory block size out of range");
  }
  std::memset(block_.data(), 0, block_.size());
  WriteRecord(0, kInvalidIno, static_cast<uint16_t>(block_.size()), "", FileType::kNone);
  return OkStatus();
}

void DirBlockView::WriteRecord(size_t offset, InodeNum ino, uint16_t reclen,
                               std::string_view name, FileType type) {
  StoreU64(block_, offset, ino);
  StoreU16(block_, offset + 8, reclen);
  StoreU16(block_, offset + 10, static_cast<uint16_t>(name.size()));
  block_[offset + 12] = static_cast<std::byte>(type);
  if (!name.empty()) {
    // memmove: a record rewritten with its own name copies it onto itself.
    std::memmove(block_.data() + offset + kHeaderSize, name.data(), name.size());
  }
}

template <typename Visit>
Status DirBlockView::Walk(Visit visit) const {
  size_t offset = 0;
  while (offset < block_.size()) {
    if (block_.size() - offset < kHeaderSize) {
      return CorruptedError("directory record header truncated");
    }
    RawRecord record;
    record.offset = offset;
    record.ino = static_cast<InodeNum>(LoadU64(block_, offset));
    record.reclen = LoadU16(block_, offset + 8);
    record.namelen = LoadU16(block_, offset + 10);
    const uint8_t type_raw = static_cast<uint8_t>(block_[offset + 12]);
    if (type_raw > static_cast<uint8_t>(FileType::kSymlink)) {
      return CorruptedError("directory record has bad type");
    }
    record.type = static_cast<FileType>(type_raw);
    if (record.reclen < DirRecordSize(record.namelen) ||
        offset + record.reclen > block_.size() || record.reclen % 4 != 0) {
      return CorruptedError("directory record has bad reclen");
    }
    record.name = std::string_view(
        reinterpret_cast<const char*>(block_.data() + offset + kHeaderSize), record.namelen);
    visit(record);
    offset += record.reclen;
  }
  // Every record was checked to end inside the block and every reclen is at
  // least DirRecordSize(0) = 16, so the walk stops exactly at the block's end.
  assert(offset == block_.size());
  return OkStatus();
}

Result<DirBlockView::Match> DirBlockView::Locate(std::string_view name) const {
  Match match{};
  bool found = false;
  bool first = true;
  RawRecord prev{};  // The record visited last.
  RETURN_IF_ERROR(Walk([&](const RawRecord& record) {
    if (!found && record.ino != kInvalidIno && record.name == name) {
      found = true;
      match.record = record;
      if (!first) {
        match.prev = prev;
      }
    }
    prev = record;
    first = false;
  }));
  if (!found) {
    return NotFoundError("no directory entry with that name");
  }
  return match;
}

Result<DirEntry> DirBlockView::Find(std::string_view name) const {
  ASSIGN_OR_RETURN(const Match match, Locate(name));
  return DirEntry{match.record.ino, match.record.type, std::string(match.record.name)};
}

Status DirBlockView::Insert(InodeNum ino, FileType type, std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return name.empty() ? InvalidArgumentError("empty name") : NameTooLongError(name);
  }
  const size_t needed = DirRecordSize(name.size());
  bool exists = false;
  std::optional<RawRecord> slot;  // The first hole or slack that fits.
  RETURN_IF_ERROR(Walk([&](const RawRecord& record) {
    if (record.ino != kInvalidIno && record.name == name) {
      exists = true;
    }
    const size_t slack = record.ino == kInvalidIno
                             ? record.reclen
                             : record.reclen - DirRecordSize(record.namelen);
    if (!slot && slack >= needed) {
      slot = record;
    }
  }));
  if (exists) {
    return ExistsError(name);
  }
  if (!slot) {
    return NoSpaceError("no room in directory block");
  }
  if (slot->ino == kInvalidIno) {
    // Claim the hole; keep its full reclen so trailing slack stays usable.
    WriteRecord(slot->offset, ino, slot->reclen, name, type);
    return OkStatus();
  }
  // Split: shrink the existing record, append the new one in its slack.
  const size_t used = DirRecordSize(slot->namelen);
  WriteRecord(slot->offset, slot->ino, static_cast<uint16_t>(used), slot->name, slot->type);
  WriteRecord(slot->offset + used, ino, static_cast<uint16_t>(slot->reclen - used), name, type);
  return OkStatus();
}

Status DirBlockView::Remove(std::string_view name) {
  ASSIGN_OR_RETURN(const Match match, Locate(name));
  const RawRecord& record = match.record;
  if (!match.prev) {
    // First record becomes a hole.
    WriteRecord(record.offset, kInvalidIno, record.reclen, "", FileType::kNone);
  } else {
    // Merge into the predecessor.
    const RawRecord& prev = *match.prev;
    WriteRecord(prev.offset, prev.ino, static_cast<uint16_t>(prev.reclen + record.reclen),
                prev.name, prev.type);
  }
  return OkStatus();
}

Status DirBlockView::SetInode(std::string_view name, InodeNum ino, FileType type) {
  ASSIGN_OR_RETURN(const Match match, Locate(name));
  WriteRecord(match.record.offset, ino, match.record.reclen, match.record.name, type);
  return OkStatus();
}

Result<std::vector<DirEntry>> DirBlockView::List() const {
  std::vector<DirEntry> entries;
  RETURN_IF_ERROR(Walk([&](const RawRecord& record) {
    if (record.ino != kInvalidIno) {
      entries.push_back(DirEntry{record.ino, record.type, std::string(record.name)});
    }
  }));
  return entries;
}

Result<bool> DirBlockView::Empty() const {
  bool empty = true;
  RETURN_IF_ERROR(Walk([&](const RawRecord& record) {
    if (record.ino != kInvalidIno) {
      empty = false;
    }
  }));
  return empty;
}

Status DirBlockView::Validate() const {
  return Walk([](const RawRecord&) {});
}

}  // namespace logfs
