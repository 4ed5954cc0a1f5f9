// FileSystem-interface operations of LfsFileSystem: namespace ops, file
// I/O, durability calls, and the background Tick. The log/checkpoint
// machinery lives in lfs_file_system.cc.
#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/fsbase/dirent.h"
#include "src/lfs/lfs_cleaner.h"
#include "src/lfs/lfs_file_system.h"
#include "src/util/logging.h"

namespace logfs {

// --- Directory helpers ---------------------------------------------------------

Result<DirEntry> LfsFileSystem::DirFind(InodeNum dir_ino, const Inode& dir,
                                        std::string_view name) {
  const uint64_t blocks = dir.size / BlockSize();
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir_ino, dir, b, /*create=*/false));
    DirBlockView view(ref->mutable_data());
    Result<DirEntry> entry = view.Find(name);
    if (entry.ok() || entry.status().code() != ErrorCode::kNotFound) {
      return entry;
    }
  }
  return NotFoundError(name);
}

Status LfsFileSystem::DirInsert(InodeNum dir_ino, std::string_view name, InodeNum ino,
                                FileType type) {
  ASSIGN_OR_RETURN(CachedInode * dir, GetInode(dir_ino));
  const uint64_t blocks = dir->inode.size / BlockSize();
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir_ino, dir->inode, b, /*create=*/false));
    DirBlockView view(ref->mutable_data());
    Status inserted = view.Insert(ino, type, name);
    if (inserted.ok()) {
      cache_.MarkDirty(ref.get());
      dir->inode.mtime = Now();
      SetInodeDirty(dir);
      return OkStatus();
    }
    if (inserted.code() != ErrorCode::kNoSpace) {
      return inserted;
    }
  }
  // Extend the directory with a fresh block. No synchronous I/O anywhere:
  // this is the Figure 2 behaviour.
  ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir_ino, dir->inode, blocks, /*create=*/true));
  DirBlockView view(ref->mutable_data());
  RETURN_IF_ERROR(view.InitEmpty());
  RETURN_IF_ERROR(view.Insert(ino, type, name));
  cache_.MarkDirty(ref.get());
  dir->inode.size += BlockSize();
  dir->inode.mtime = Now();
  SetInodeDirty(dir);
  return OkStatus();
}

Status LfsFileSystem::DirRemove(InodeNum dir_ino, std::string_view name) {
  ASSIGN_OR_RETURN(CachedInode * dir, GetInode(dir_ino));
  const uint64_t blocks = dir->inode.size / BlockSize();
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir_ino, dir->inode, b, /*create=*/false));
    DirBlockView view(ref->mutable_data());
    Status removed = view.Remove(name);
    if (removed.ok()) {
      cache_.MarkDirty(ref.get());
      dir->inode.mtime = Now();
      SetInodeDirty(dir);
      return OkStatus();
    }
    if (removed.code() != ErrorCode::kNotFound) {
      return removed;
    }
  }
  return NotFoundError(name);
}

Status LfsFileSystem::DirReplace(InodeNum dir_ino, std::string_view name, InodeNum ino,
                                 FileType type) {
  ASSIGN_OR_RETURN(CachedInode * dir, GetInode(dir_ino));
  const uint64_t blocks = dir->inode.size / BlockSize();
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir_ino, dir->inode, b, /*create=*/false));
    DirBlockView view(ref->mutable_data());
    Status set = view.SetInode(name, ino, type);
    if (set.ok()) {
      cache_.MarkDirty(ref.get());
      dir->inode.mtime = Now();
      SetInodeDirty(dir);
      return OkStatus();
    }
    if (set.code() != ErrorCode::kNotFound) {
      return set;
    }
  }
  return NotFoundError(name);
}

Result<bool> LfsFileSystem::DirIsEmpty(InodeNum dir_ino, const Inode& dir) {
  const uint64_t blocks = dir.size / BlockSize();
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir_ino, dir, b, /*create=*/false));
    DirBlockView view(ref->mutable_data());
    ASSIGN_OR_RETURN(auto entries, view.List());
    for (const DirEntry& entry : entries) {
      if (entry.name != "." && entry.name != "..") {
        return false;
      }
    }
  }
  return true;
}

Result<bool> LfsFileSystem::IsInSubtree(InodeNum candidate, InodeNum ancestor) {
  InodeNum current = candidate;
  for (int depth = 0; depth < 4096; ++depth) {
    if (current == ancestor) {
      return true;
    }
    if (current == kRootIno) {
      return false;
    }
    ASSIGN_OR_RETURN(CachedInode * ci, GetInode(current));
    ASSIGN_OR_RETURN(DirEntry parent, DirFind(current, ci->inode, ".."));
    current = parent.ino;
  }
  return CorruptedError("directory tree too deep or cyclic");
}

// --- Inode release ---------------------------------------------------------------

Status LfsFileSystem::ReleaseBlocksFrom(InodeNum ino, uint64_t first_index) {
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  const uint64_t epb = EntriesPerBlock();
  const uint32_t bs = BlockSize();
  // Direct blocks.
  for (uint64_t i = first_index; i < kNumDirect; ++i) {
    if (ci->inode.direct[i] != kNoAddr) {
      AccountBlockDeath(ci->inode.direct[i], bs);
      ci->inode.direct[i] = kNoAddr;
      SetInodeDirty(ci);
    }
  }
  // Single indirect.
  const uint64_t single_base = kNumDirect;
  if (first_index < single_base + epb) {
    const bool have = ci->inode.single_indirect != kNoAddr ||
                      cache_.AcquireIfPresent(BlockKey{IndirectObject(ino), kSingleSlot});
    if (have) {
      ASSIGN_OR_RETURN(CacheRef ref, GetIndirectRef(ino, kSingleSlot, /*create=*/false));
      const uint64_t from = first_index > single_base ? first_index - single_base : 0;
      for (uint64_t j = from; j < epb; ++j) {
        const DiskAddr addr = ReadIndirectEntry(ref->data(), j);
        if (addr != kNoAddr) {
          AccountBlockDeath(addr, bs);
          WriteIndirectEntry(ref->mutable_data(), j, kNoAddr);
          cache_.MarkDirty(ref.get());
        }
      }
      if (from == 0) {
        ref.Release();
        ASSIGN_OR_RETURN(CachedInode * ci2, GetInode(ino));
        if (ci2->inode.single_indirect != kNoAddr) {
          AccountBlockDeath(ci2->inode.single_indirect, bs);
          ci2->inode.single_indirect = kNoAddr;
          SetInodeDirty(ci2);
        }
        cache_.InvalidateBlock(BlockKey{IndirectObject(ino), kSingleSlot});
      }
    }
  }
  // Double indirect.
  ASSIGN_OR_RETURN(CachedInode * ci3, GetInode(ino));
  const uint64_t double_base = kNumDirect + epb;
  const bool have_root = ci3->inode.double_indirect != kNoAddr ||
                         cache_.AcquireIfPresent(BlockKey{IndirectObject(ino), kDoubleRootSlot});
  if (have_root) {
    bool root_all_free = true;
    for (uint64_t j = 0; j < epb; ++j) {
      const uint64_t leaf_base = double_base + j * epb;
      ASSIGN_OR_RETURN(DiskAddr leaf_addr, GetIndirectAddr(ino, 2 + j));
      const bool have_leaf =
          leaf_addr != kNoAddr ||
          cache_.AcquireIfPresent(BlockKey{IndirectObject(ino), 2 + j});
      if (!have_leaf) {
        continue;
      }
      if (first_index >= leaf_base + epb) {
        root_all_free = false;
        continue;  // Entirely kept.
      }
      const uint64_t from = first_index > leaf_base ? first_index - leaf_base : 0;
      {
        ASSIGN_OR_RETURN(CacheRef leaf, GetIndirectRef(ino, 2 + j, /*create=*/false));
        for (uint64_t k = from; k < epb; ++k) {
          const DiskAddr addr = ReadIndirectEntry(leaf->data(), k);
          if (addr != kNoAddr) {
            AccountBlockDeath(addr, bs);
            WriteIndirectEntry(leaf->mutable_data(), k, kNoAddr);
            cache_.MarkDirty(leaf.get());
          }
        }
      }
      if (from == 0) {
        if (leaf_addr != kNoAddr) {
          AccountBlockDeath(leaf_addr, bs);
        }
        ASSIGN_OR_RETURN(DiskAddr old, SetIndirectAddr(ino, 2 + j, kNoAddr));
        (void)old;
        cache_.InvalidateBlock(BlockKey{IndirectObject(ino), 2 + j});
      } else {
        root_all_free = false;
      }
    }
    if (root_all_free && first_index <= double_base) {
      ASSIGN_OR_RETURN(CachedInode * ci4, GetInode(ino));
      if (ci4->inode.double_indirect != kNoAddr) {
        AccountBlockDeath(ci4->inode.double_indirect, bs);
        ci4->inode.double_indirect = kNoAddr;
        SetInodeDirty(ci4);
      }
      cache_.InvalidateBlock(BlockKey{IndirectObject(ino), kDoubleRootSlot});
    }
  }
  // Drop cached data blocks at or beyond the truncation point.
  cache_.InvalidateObject(DataObject(ino), first_index);
  return OkStatus();
}

Status LfsFileSystem::ReleaseInode(InodeNum ino) {
  RETURN_IF_ERROR(ReleaseBlocksFrom(ino, 0));  // Drops the cached data blocks too.
  cache_.InvalidateObject(IndirectObject(ino));
  // Release the inode's own residency in its inode block.
  const ImapEntry& entry = imap_.Get(ino);
  if (entry.block_addr != kNoAddr) {
    AccountBlockDeath(entry.block_addr, InodeLiveQuantum());
  }
  imap_.Free(ino);  // Bumps the version: the cleaner's fast death test.
  pending_frees_.push_back(FreeRecord{ino, imap_.Get(ino).version});
  auto it = inodes_.find(ino);
  if (it != inodes_.end()) {
    SetInodeClean(&it->second);
    inodes_.erase(it);
  }
  return OkStatus();
}

// --- Space management ---------------------------------------------------------------

uint64_t LfsFileSystem::UsableBytes() const {
  const uint64_t segments = sb_.num_segments > sb_.reserved_segments
                                ? sb_.num_segments - sb_.reserved_segments
                                : 0;
  // Budget two summary blocks of overhead per segment.
  return segments * static_cast<uint64_t>(sb_.segment_size - 2 * sb_.block_size);
}

uint64_t LfsFileSystem::DirtyBytesEstimate() const {
  return static_cast<uint64_t>(cache_.dirty_count()) * BlockSize() +
         static_cast<uint64_t>(dirty_inodes_.size()) * InodeLiveQuantum() +
         static_cast<uint64_t>(builder_.pending()) * BlockSize() +
         pending_frees_.size() * 8;
}

Status LfsFileSystem::EnsureSpaceForWrite(uint64_t incoming_bytes) {
  const uint64_t seg_payload = sb_.segment_size - 2ull * sb_.block_size;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint32_t clean = CleanSegmentCount();
    const uint64_t usable_clean =
        clean > sb_.reserved_segments
            ? static_cast<uint64_t>(clean - sb_.reserved_segments) * seg_payload
            : 0;
    const uint64_t needed = DirtyBytesEstimate() + incoming_bytes + sb_.segment_size;
    if (usable_clean >= needed) {
      return OkStatus();
    }
    // Cleaning may reclaim fragmented segments; stop when it cannot.
    ASSIGN_OR_RETURN(uint32_t cleaned, CleanNow(4));
    if (cleaned == 0) {
      return NoSpaceError("log full: cleaning cannot reclaim enough segments");
    }
  }
  return NoSpaceError("log full after repeated cleaning");
}

Result<uint32_t> LfsFileSystem::CleanNow(uint32_t max_victims) {
  LfsCleaner cleaner(this);
  return cleaner.CleanSegments(max_victims);
}

Result<uint32_t> LfsFileSystem::CleanTheseSegments(const std::vector<uint32_t>& segments) {
  LfsCleaner cleaner(this);
  return cleaner.CleanVictims(segments);
}

Status LfsFileSystem::MaybePressureFlush() {
  if (cache_.NeedsWriteback()) {
    return cache_.FlushAll();
  }
  return OkStatus();
}

// --- FileSystem interface -------------------------------------------------------------

Result<InodeNum> LfsFileSystem::Create(InodeNum dir, std::string_view name, FileType type) {
  OpScope op(this, Op::kCreate);
  RETURN_IF_ERROR(CheckWritable());
  if (type != FileType::kRegular && type != FileType::kDirectory &&
      type != FileType::kSymlink) {
    return InvalidArgumentError("unsupported file type");
  }
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().create_instructions);
  }
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("create in non-directory");
  }
  Result<DirEntry> existing = DirFind(dir, dirnode->inode, name);
  if (existing.ok()) {
    return ExistsError(name);
  }
  if (existing.status().code() != ErrorCode::kNotFound) {
    return existing.status();
  }
  RETURN_IF_ERROR(EnsureSpaceForWrite(2ull * BlockSize()));

  ASSIGN_OR_RETURN(InodeNum ino, imap_.Allocate(next_ino_hint_));
  next_ino_hint_ = ino + 1;
  CachedInode fresh;
  fresh.ino = ino;
  fresh.inode.type = type;
  fresh.inode.nlink = type == FileType::kDirectory ? 2 : 1;
  fresh.inode.generation = imap_.Get(ino).version;
  fresh.inode.mtime = fresh.inode.ctime = Now();
  SetInodeDirty(&(inodes_[ino] = fresh));
  imap_.SetAtime(ino, Now());

  if (type == FileType::kDirectory) {
    RETURN_IF_ERROR(DirInsert(ino, ".", ino, FileType::kDirectory));
    RETURN_IF_ERROR(DirInsert(ino, "..", dir, FileType::kDirectory));
    ASSIGN_OR_RETURN(CachedInode * parent, GetInode(dir));
    ++parent->inode.nlink;
    SetInodeDirty(parent);
  }
  RETURN_IF_ERROR(DirInsert(dir, name, ino, type));
  ++mutation_seq_;
  RETURN_IF_ERROR(MaybePressureFlush());
  return ino;
}

Result<InodeNum> LfsFileSystem::Lookup(InodeNum dir, std::string_view name) {
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().lookup_instructions);
  }
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("lookup in non-directory");
  }
  ASSIGN_OR_RETURN(DirEntry entry, DirFind(dir, dirnode->inode, name));
  return entry.ino;
}

Status LfsFileSystem::Unlink(InodeNum dir, std::string_view name) {
  RETURN_IF_ERROR(CheckWritable());
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().remove_instructions);
  }
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("unlink in non-directory");
  }
  ASSIGN_OR_RETURN(DirEntry entry, DirFind(dir, dirnode->inode, name));
  ASSIGN_OR_RETURN(CachedInode * target, GetInode(entry.ino));
  if (target->inode.IsDirectory()) {
    return IsDirectoryError("unlink of a directory; use Rmdir");
  }
  RETURN_IF_ERROR(DirRemove(dir, name));
  ASSIGN_OR_RETURN(target, GetInode(entry.ino));  // Re-fetch (map may rehash).
  --target->inode.nlink;
  if (target->inode.nlink == 0) {
    RETURN_IF_ERROR(ReleaseInode(entry.ino));
  } else {
    target->inode.ctime = Now();
    SetInodeDirty(target);
  }
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::Rmdir(InodeNum dir, std::string_view name) {
  RETURN_IF_ERROR(CheckWritable());
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().remove_instructions);
  }
  if (name == "." || name == "..") {
    return InvalidArgumentError("cannot rmdir . or ..");
  }
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("rmdir in non-directory");
  }
  ASSIGN_OR_RETURN(DirEntry entry, DirFind(dir, dirnode->inode, name));
  ASSIGN_OR_RETURN(CachedInode * target, GetInode(entry.ino));
  if (!target->inode.IsDirectory()) {
    return NotDirectoryError("rmdir of a non-directory");
  }
  ASSIGN_OR_RETURN(bool empty, DirIsEmpty(entry.ino, target->inode));
  if (!empty) {
    return NotEmptyError(name);
  }
  RETURN_IF_ERROR(DirRemove(dir, name));
  ASSIGN_OR_RETURN(dirnode, GetInode(dir));
  --dirnode->inode.nlink;  // Lost the child's "..".
  SetInodeDirty(dirnode);
  RETURN_IF_ERROR(ReleaseInode(entry.ino));
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::Link(InodeNum dir, std::string_view name, InodeNum target_ino) {
  RETURN_IF_ERROR(CheckWritable());
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().create_instructions);
  }
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("link in non-directory");
  }
  ASSIGN_OR_RETURN(CachedInode * target, GetInode(target_ino));
  if (target->inode.IsDirectory()) {
    return IsDirectoryError("hard link to a directory");
  }
  Result<DirEntry> existing = DirFind(dir, dirnode->inode, name);
  if (existing.ok()) {
    return ExistsError(name);
  }
  if (existing.status().code() != ErrorCode::kNotFound) {
    return existing.status();
  }
  RETURN_IF_ERROR(DirInsert(dir, name, target_ino, target->inode.type));
  ASSIGN_OR_RETURN(target, GetInode(target_ino));
  ++target->inode.nlink;
  target->inode.ctime = Now();
  SetInodeDirty(target);
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::Rename(InodeNum from_dir, std::string_view from_name, InodeNum to_dir,
                             std::string_view to_name) {
  RETURN_IF_ERROR(CheckWritable());
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().create_instructions);
  }
  if (from_name == "." || from_name == ".." || to_name == "." || to_name == "..") {
    return InvalidArgumentError("cannot rename . or ..");
  }
  ASSIGN_OR_RETURN(CachedInode * from_node, GetInode(from_dir));
  ASSIGN_OR_RETURN(DirEntry src, DirFind(from_dir, from_node->inode, from_name));
  if (from_dir == to_dir && from_name == to_name) {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(CachedInode * src_node, GetInode(src.ino));
  const bool src_is_dir = src_node->inode.IsDirectory();
  if (src_is_dir) {
    ASSIGN_OR_RETURN(bool cyclic, IsInSubtree(to_dir, src.ino));
    if (cyclic) {
      return InvalidArgumentError("rename would create a cycle");
    }
  }
  ASSIGN_OR_RETURN(CachedInode * to_node, GetInode(to_dir));
  Result<DirEntry> dst = DirFind(to_dir, to_node->inode, to_name);
  if (dst.ok()) {
    ASSIGN_OR_RETURN(CachedInode * dst_node, GetInode(dst->ino));
    if (dst_node->inode.IsDirectory()) {
      if (!src_is_dir) {
        return IsDirectoryError("cannot replace a directory with a file");
      }
      ASSIGN_OR_RETURN(bool empty, DirIsEmpty(dst->ino, dst_node->inode));
      if (!empty) {
        return NotEmptyError(to_name);
      }
      RETURN_IF_ERROR(DirReplace(to_dir, to_name, src.ino, src.type));
      if (from_dir == to_dir) {
        // Old child directory's ".." is gone and src was already a child
        // here; cross-directory moves swap one child directory for another,
        // leaving the count unchanged.
        ASSIGN_OR_RETURN(to_node, GetInode(to_dir));
        --to_node->inode.nlink;
        SetInodeDirty(to_node);
      }
      RETURN_IF_ERROR(ReleaseInode(dst->ino));
    } else {
      if (src_is_dir) {
        return NotDirectoryError("cannot replace a file with a directory");
      }
      RETURN_IF_ERROR(DirReplace(to_dir, to_name, src.ino, src.type));
      ASSIGN_OR_RETURN(dst_node, GetInode(dst->ino));
      --dst_node->inode.nlink;
      if (dst_node->inode.nlink == 0) {
        RETURN_IF_ERROR(ReleaseInode(dst->ino));
      } else {
        SetInodeDirty(dst_node);
      }
    }
  } else {
    if (dst.status().code() != ErrorCode::kNotFound) {
      return dst.status();
    }
    RETURN_IF_ERROR(DirInsert(to_dir, to_name, src.ino, src.type));
    if (src_is_dir && from_dir != to_dir) {
      ASSIGN_OR_RETURN(to_node, GetInode(to_dir));
      ++to_node->inode.nlink;
      SetInodeDirty(to_node);
    }
  }
  RETURN_IF_ERROR(DirRemove(from_dir, from_name));
  if (src_is_dir && from_dir != to_dir) {
    ASSIGN_OR_RETURN(from_node, GetInode(from_dir));
    --from_node->inode.nlink;
    SetInodeDirty(from_node);
    RETURN_IF_ERROR(DirReplace(src.ino, "..", to_dir, FileType::kDirectory));
  }
  ++mutation_seq_;
  return MaybePressureFlush();
}

Result<uint64_t> LfsFileSystem::Read(InodeNum ino, uint64_t offset, std::span<std::byte> out) {
  OpScope op(this, Op::kRead);
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  if (ci->inode.IsDirectory()) {
    return IsDirectoryError("read of a directory");
  }
  if (offset >= ci->inode.size) {
    return uint64_t{0};
  }
  const uint64_t to_read = std::min<uint64_t>(out.size(), ci->inode.size - offset);
  const Inode inode = ci->inode;  // Copy: cache ops below may invalidate ci.
  uint64_t done = 0;
  while (done < to_read) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / BlockSize();
    const uint64_t in_block = pos % BlockSize();
    const uint64_t chunk = std::min<uint64_t>(to_read - done, BlockSize() - in_block);
    if (cpu_ != nullptr) {
      ChargeCpu(cpu_->costs().per_block_instructions +
                cpu_->costs().per_kilobyte_copy_instructions * (chunk / 1024 + 1));
    }
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(ino, inode, index, /*create=*/false));
    std::memcpy(out.data() + done, ref->data().data() + in_block, chunk);
    done += chunk;
  }
  // Access time lives in the inode map (paper footnote 2): updating it
  // never relocates the inode.
  imap_.SetAtime(ino, Now());
  return done;
}

Result<uint64_t> LfsFileSystem::Write(InodeNum ino, uint64_t offset,
                                      std::span<const std::byte> data) {
  OpScope op(this, Op::kWrite);
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * ci_check, GetInode(ino));
  if (ci_check->inode.IsDirectory()) {
    return IsDirectoryError("write to a directory");
  }
  const uint64_t max_bytes = MaxFileBlocks(EntriesPerBlock()) * BlockSize();
  if (offset + data.size() > max_bytes) {
    return TooLargeError("write beyond maximum file size");
  }
  RETURN_IF_ERROR(EnsureSpaceForWrite(data.size()));

  uint64_t done = 0;
  while (done < data.size()) {
    const uint64_t pos = offset + done;
    const uint64_t index = pos / BlockSize();
    const uint64_t in_block = pos % BlockSize();
    const uint64_t chunk = std::min<uint64_t>(data.size() - done, BlockSize() - in_block);
    if (cpu_ != nullptr) {
      ChargeCpu(cpu_->costs().per_block_instructions +
                cpu_->costs().per_kilobyte_copy_instructions * (chunk / 1024 + 1));
    }
    ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
    const bool full_block = chunk == BlockSize();
    const bool beyond_eof = pos >= ci->inode.size;
    const Inode inode = ci->inode;
    CacheRef ref;
    if (full_block || (beyond_eof && in_block == 0)) {
      ASSIGN_OR_RETURN(ref, cache_.Create(BlockKey{DataObject(ino), index}));
    } else {
      ASSIGN_OR_RETURN(ref, GetFileBlock(ino, inode, index, /*create=*/false));
    }
    std::memcpy(ref->mutable_data().data() + in_block, data.data() + done, chunk);
    cache_.MarkDirty(ref.get());
    done += chunk;
  }
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  const uint64_t end = offset + data.size();
  if (end > ci->inode.size) {
    ci->inode.size = end;
  }
  ci->inode.mtime = Now();
  SetInodeDirty(ci);
  ++mutation_seq_;
  RETURN_IF_ERROR(MaybePressureFlush());
  return done;
}

Status LfsFileSystem::Truncate(InodeNum ino, uint64_t new_size) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  if (ci->inode.IsDirectory()) {
    return IsDirectoryError("truncate of a directory");
  }
  if (new_size >= ci->inode.size) {
    ci->inode.size = new_size;  // Extension creates a hole.
    ci->inode.mtime = Now();
    SetInodeDirty(ci);
    ++mutation_seq_;
    return OkStatus();
  }
  const uint64_t keep_blocks = (new_size + BlockSize() - 1) / BlockSize();
  RETURN_IF_ERROR(ReleaseBlocksFrom(ino, keep_blocks));
  if (new_size == 0) {
    // Truncation to zero bumps the inode-map version (paper Section 4.2.1):
    // every block of the old incarnation now fails the cleaner's version
    // check without any pointer walking.
    imap_.SetVersion(ino, imap_.Get(ino).version + 1);
  } else if (new_size % BlockSize() != 0) {
    ASSIGN_OR_RETURN(CachedInode * ci2, GetInode(ino));
    const Inode inode = ci2->inode;
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(ino, inode, keep_blocks - 1, /*create=*/false));
    const uint64_t keep = new_size % BlockSize();
    std::memset(ref->mutable_data().data() + keep, 0, BlockSize() - keep);
    cache_.MarkDirty(ref.get());
  }
  ASSIGN_OR_RETURN(CachedInode * ci3, GetInode(ino));
  ci3->inode.size = new_size;
  ci3->inode.mtime = Now();
  SetInodeDirty(ci3);
  ++mutation_seq_;
  return MaybePressureFlush();
}

Result<FileStat> LfsFileSystem::Stat(InodeNum ino) {
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(ino));
  const ImapEntry& entry = imap_.Get(ino);
  FileStat stat;
  stat.ino = ino;
  stat.type = ci->inode.type;
  stat.nlink = ci->inode.nlink;
  stat.size = ci->inode.size;
  stat.blocks = (ci->inode.size + BlockSize() - 1) / BlockSize();
  stat.atime = entry.atime;
  stat.mtime = ci->inode.mtime;
  stat.ctime = ci->inode.ctime;
  stat.version = entry.version;
  return stat;
}

Result<std::vector<DirEntry>> LfsFileSystem::ReadDir(InodeNum dir) {
  ASSIGN_OR_RETURN(CachedInode * ci, GetInode(dir));
  if (!ci->inode.IsDirectory()) {
    return NotDirectoryError("readdir of a non-directory");
  }
  const Inode inode = ci->inode;
  std::vector<DirEntry> all;
  const uint64_t blocks = inode.size / BlockSize();
  for (uint64_t b = 0; b < blocks; ++b) {
    ASSIGN_OR_RETURN(CacheRef ref, GetFileBlock(dir, inode, b, /*create=*/false));
    DirBlockView view(ref->mutable_data());
    ASSIGN_OR_RETURN(auto entries, view.List());
    all.insert(all.end(), entries.begin(), entries.end());
  }
  imap_.SetAtime(dir, Now());
  return all;
}

Status LfsFileSystem::Sync() {
  // sync(2) in LFS: flush everything and checkpoint, so a crash right after
  // Sync loses nothing.
  OpScope op(this, Op::kSync);
  return Checkpoint();
}

Status LfsFileSystem::SyncAsOf(uint64_t seq) {
  // The group-commit seam: a durability request whose horizon is already
  // covered by an earlier flush coalesces into it for free. This is what
  // lets N clients' commits racing into the server collapse into one
  // segment flush.
  if (seq <= synced_seq_) {
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& coalesced = obs::Registry().GetCounter("logfs.sync.coalesced");
      coalesced.Increment();
    }
    return OkStatus();
  }
  return Sync();
}

Status LfsFileSystem::Fsync(InodeNum /*ino*/) {
  OpScope op(this, Op::kFsync);
  // fsync in LFS needs no checkpoint: flushing the dirty set into a partial
  // segment is durable, because roll-forward recovery re-registers the
  // inodes from the segment summaries (Section 4.4). The whole dirty set is
  // flushed — not just the named file — because partial-segment writes must
  // be self-consistent: an inode may only reach the log after every block
  // it points to has a log address (a directory inode written ahead of its
  // dirty directory block would point into a hole).
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(FlushEverything());
  // A flushed partial segment is durable only if recovery replays it: under
  // roll-forward the horizon advances, under checkpoint-only it must wait
  // for the next checkpoint.
  if (options_.roll_forward) {
    synced_seq_ = mutation_seq_;
  }
  return OkStatus();
}

Status LfsFileSystem::DropCaches() {
  cache_.DropClean();
  // Also drop clean in-core inodes so subsequent Stat/Read must fetch the
  // inode block from disk — the benchmark-fairness counterpart of the FFS
  // inode-table cache being dropped.
  for (auto it = inodes_.begin(); it != inodes_.end();) {
    if (!it->second.dirty) {
      it = inodes_.erase(it);
    } else {
      ++it;
    }
  }
  return OkStatus();
}

void LfsFileSystem::PruneInodeCache() {
  if (inodes_.size() <= options_.max_cached_inodes) {
    return;
  }
  for (auto it = inodes_.begin();
       it != inodes_.end() && inodes_.size() > options_.max_cached_inodes;) {
    if (!it->second.dirty) {
      it = inodes_.erase(it);
    } else {
      ++it;
    }
  }
}

Status LfsFileSystem::Tick() {
  // The flight recorder samples even on a demoted mount: the ring keeps
  // recording in memory and PersistBlackBoxNow may still land it. Refresh
  // the utilization-distribution gauges first so samples stay current.
  PublishSpaceTelemetry();
  sampler_.MaybeSample(Now());
  if (read_only_) {
    return OkStatus();  // All background work writes; a demoted mount idles.
  }
  RETURN_IF_ERROR(cache_.MaybeWriteBackByAge());
  PruneInodeCache();
  if (Now() - last_checkpoint_time_ >= sb_.checkpoint_interval_seconds) {
    RETURN_IF_ERROR(Checkpoint());
  }
  if (options_.auto_clean && CleanSegmentCount() < sb_.clean_start_segments) {
    RETURN_IF_ERROR(CleanNow(sb_.clean_stop_segments - CleanSegmentCount()).status());
  }
  if (options_.scrub_segments_per_tick > 0) {
    RETURN_IF_ERROR(Scrub(options_.scrub_segments_per_tick).status());
  }
  return OkStatus();
}

}  // namespace logfs
