// The per-log namespace edits (declared in lfs_file_system.h). Each is one
// log's part of a namespace op and does no bookkeeping of its own: the op
// bodies in lfs_file_system_ops.cc, which the single log and the sharded
// router (src/lfs/sharded_lfs.cc) both run, and the cross-shard repairer
// (src/lfs/lfs_repair.cc) charge CPU, check writability and finish each
// edited log once per op. The directory-entry edits (DirInsert, DirRemove,
// DirReplace) and ReleaseInode sit with the directory and release helpers
// in lfs_file_system_ops.cc. On a sharded volume the caller holds the
// log's lock, so within an edit this file system is single-threaded.
#include "src/lfs/lfs_file_system.h"
#include "src/util/logging.h"

namespace logfs {

Result<DirEntry> LfsFileSystem::FindEntry(InodeNum dir, std::string_view name) {
  ASSIGN_OR_RETURN(CachedInode * dirnode, GetInode(dir));
  if (!dirnode->inode.IsDirectory()) {
    return NotDirectoryError("lookup in non-directory");
  }
  return DirFind(dir, dirnode->inode, name);
}

Result<InodeNum> LfsFileSystem::AllocInode(FileType type, InodeNum parent_dir) {
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
  return ino;
}

Status LfsFileSystem::AddLink(InodeNum ino, int delta) {
  ASSIGN_OR_RETURN(CachedInode * node, GetInode(ino));
  node->inode.nlink += delta;
  if (node->inode.nlink == 0) {
    return ReleaseInode(ino);
  }
  node->inode.ctime = Now();
  SetInodeDirty(node);
  return OkStatus();
}

Status LfsFileSystem::AddDirLink(InodeNum dir, int delta) {
  ASSIGN_OR_RETURN(CachedInode * node, GetInode(dir));
  node->inode.nlink += delta;
  SetInodeDirty(node);
  return OkStatus();
}

Status LfsFileSystem::SetNlink(InodeNum ino, uint32_t nlink) {
  ASSIGN_OR_RETURN(CachedInode * node, GetInode(ino));
  if (node->inode.nlink != nlink) {
    node->inode.nlink = nlink;
    SetInodeDirty(node);
  }
  return OkStatus();
}

}  // namespace logfs
