// Sharded-router seam primitives (declared in lfs_file_system.h; used by
// src/lfs/sharded_lfs.cc). Each is the slice of a native namespace
// operation that touches one shard's structures — the router composes them
// across shards while holding every involved shard's lock, so within a
// primitive this file system is single-threaded exactly as the native ops
// assume. Mutation accounting, CPU charges, space reservations and cache
// pressure handling deliberately mirror the native bodies in
// lfs_file_system_ops.cc so a cross-shard op costs the same as its
// same-shard equivalent split across two logs.
#include "src/fsbase/dirent.h"
#include "src/lfs/lfs_file_system.h"
#include "src/util/logging.h"

namespace logfs {

Result<DirEntry> LfsFileSystem::ShardFindEntry(InodeNum dir, std::string_view name) {
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().lookup_instructions);
  }
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("lookup in non-directory");
  }
  return DirFind(dir, dirnode->inode, name);
}

Status LfsFileSystem::ShardCheckCanInsert(InodeNum dir, std::string_view name) {
  RETURN_IF_ERROR(CheckWritable());
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
  return OkStatus();
}

Result<InodeNum> LfsFileSystem::ShardAllocInode(FileType type, InodeNum parent_dir) {
  RETURN_IF_ERROR(CheckWritable());
  if (type != FileType::kRegular && type != FileType::kDirectory &&
      type != FileType::kSymlink) {
    return InvalidArgumentError("unsupported file type");
  }
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().create_instructions);
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
    RETURN_IF_ERROR(DirInsert(ino, "..", parent_dir, FileType::kDirectory));
  }
  ++mutation_seq_;
  RETURN_IF_ERROR(MaybePressureFlush());
  return ino;
}

void LfsFileSystem::ShardAbortAlloc(InodeNum ino) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) {
    return;
  }
  it->second.inode.nlink = 0;
  (void)ReleaseInode(ino);
  ++mutation_seq_;
}

Status LfsFileSystem::ShardAddEntry(InodeNum dir, std::string_view name, InodeNum child,
                                    FileType type, bool child_is_dir) {
  RETURN_IF_ERROR(CheckWritable());
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
  RETURN_IF_ERROR(DirInsert(dir, name, child, type));
  if (child_is_dir) {
    ASSIGN_OR_RETURN(CachedInode * parent, GetInode(dir));
    ++parent->inode.nlink;
    SetInodeDirty(parent);
  }
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardRemoveEntry(InodeNum dir, std::string_view name,
                                       bool child_was_dir) {
  RETURN_IF_ERROR(CheckWritable());
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().remove_instructions);
  }
  RETURN_IF_ERROR(DirRemove(dir, name));
  if (child_was_dir) {
    ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
    --dirnode->inode.nlink;
    SetInodeDirty(dirnode);
  }
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardReplaceEntry(InodeNum dir, std::string_view name, InodeNum child,
                                        FileType type, int nlink_delta) {
  RETURN_IF_ERROR(CheckWritable());
  if (cpu_ != nullptr) {
    ChargeCpu(cpu_->costs().create_instructions);
  }
  RETURN_IF_ERROR(DirReplace(dir, name, child, type));
  if (nlink_delta != 0) {
    ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
    dirnode->inode.nlink += nlink_delta;
    SetInodeDirty(dirnode);
  }
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardAddLink(InodeNum ino) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * target, GetInode(ino));
  if (target->inode.IsDirectory()) {
    return IsDirectoryError("cannot hard-link a directory");
  }
  ++target->inode.nlink;
  target->inode.ctime = Now();
  SetInodeDirty(target);
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardDropLink(InodeNum ino) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * target, GetInode(ino));
  --target->inode.nlink;
  if (target->inode.nlink == 0) {
    RETURN_IF_ERROR(ReleaseInode(ino));
  } else {
    target->inode.ctime = Now();
    SetInodeDirty(target);
  }
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardReleaseDir(InodeNum ino) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * target, GetInode(ino));
  if (!target->inode.IsDirectory()) {
    return NotDirectoryError("expected a directory");
  }
  RETURN_IF_ERROR(ReleaseInode(ino));
  ++mutation_seq_;
  return MaybePressureFlush();
}

Result<bool> LfsFileSystem::ShardDirIsEmpty(InodeNum ino) {
  ASSIGN_OR_RETURN(CachedInode * node, GetInode(ino));
  if (!node->inode.IsDirectory()) {
    return NotDirectoryError("expected a directory");
  }
  return DirIsEmpty(ino, node->inode);
}

Status LfsFileSystem::ShardSetDotDot(InodeNum child_dir, InodeNum new_parent) {
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(DirReplace(child_dir, "..", new_parent, FileType::kDirectory));
  ++mutation_seq_;
  return MaybePressureFlush();
}

Result<InodeNum> LfsFileSystem::ShardPeekAllocInode() const {
  return imap_.PeekAllocate(next_ino_hint_);
}

// --- Repair primitives (see header note: no nlink arithmetic here; the
// repairer ends with an exact recount via ShardSetNlink). ---

Status LfsFileSystem::ShardRepairRemoveEntry(InodeNum dir, std::string_view name) {
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(DirRemove(dir, name));
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardRepairInsertEntry(InodeNum dir, std::string_view name,
                                             InodeNum child, FileType type) {
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(EnsureSpaceForWrite(2ull * BlockSize()));
  RETURN_IF_ERROR(DirInsert(dir, name, child, type));
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardRepairSetEntry(InodeNum dir, std::string_view name,
                                          InodeNum child, FileType type) {
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(DirReplace(dir, name, child, type));
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardSetNlink(InodeNum ino, uint32_t nlink) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * node, GetInode(ino));
  if (node->inode.nlink == nlink) {
    return OkStatus();
  }
  node->inode.nlink = nlink;
  SetInodeDirty(node);
  ++mutation_seq_;
  return MaybePressureFlush();
}

Status LfsFileSystem::ShardReapInode(InodeNum ino) {
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(CachedInode * node, GetInode(ino));
  node->inode.nlink = 0;
  RETURN_IF_ERROR(ReleaseInode(ino));
  ++mutation_seq_;
  return MaybePressureFlush();
}

}  // namespace logfs
