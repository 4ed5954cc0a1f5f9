// Common file-system types shared by FFS and LFS. Per the paper (Figure 2
// caption), "the formats of directories and inodes are the same" in both
// file systems; this module is where that shared format lives.
#ifndef LOGFS_SRC_FSBASE_FS_TYPES_H_
#define LOGFS_SRC_FSBASE_FS_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace logfs {

// Inode numbers. 0 is invalid; 1 is the root directory.
using InodeNum = uint32_t;
inline constexpr InodeNum kInvalidIno = 0;
inline constexpr InodeNum kRootIno = 1;

// The part of an n-part volume that holds `ino`: part i holds every inode
// number in one residue class, so the root is in part 0. A sharded LFS's
// shards are its parts (src/lfs/sharded_lfs.h).
inline uint32_t PartOf(InodeNum ino, uint32_t parts) { return (ino - 1) % parts; }

// Disk address of a block, expressed as the sector number of its first
// sector. kNoAddr marks an unallocated (hole) block pointer.
using DiskAddr = uint64_t;
inline constexpr DiskAddr kNoAddr = std::numeric_limits<DiskAddr>::max();

enum class FileType : uint8_t {
  kNone = 0,
  kRegular = 1,
  kDirectory = 2,
  kSymlink = 3,
};

// Maximum directory-entry name length (BSD FFS uses 255).
inline constexpr size_t kMaxNameLen = 255;

struct FileStat {
  InodeNum ino = kInvalidIno;
  FileType type = FileType::kNone;
  uint16_t nlink = 0;
  uint64_t size = 0;
  uint64_t blocks = 0;      // Allocated data blocks (including indirect).
  double atime = 0.0;       // Simulated seconds. LFS keeps this in the inode map.
  double mtime = 0.0;
  double ctime = 0.0;
  uint32_t version = 0;     // LFS inode-map version number (0 under FFS).
};

struct DirEntry {
  InodeNum ino = kInvalidIno;
  FileType type = FileType::kNone;
  std::string name;
};

}  // namespace logfs

#endif  // LOGFS_SRC_FSBASE_FS_TYPES_H_
