// Variable-length directory-entry block format, shared by FFS and LFS
// (paper, Figure 2 caption: directory format identical in both).
//
// Each directory data block is a self-contained chain of records:
//
//   record := ino(u64) reclen(u16) namelen(u16) type(u8) name[namelen] pad
//
// reclen covers the record plus any following free space; the final record's
// reclen always reaches the end of the block (classic BSD ufs_dirent
// scheme). A record with ino == 0 is a hole. Deletion merges the freed
// record into its predecessor's reclen; the first record of a block is never
// merged away, it just becomes a hole.
#ifndef LOGFS_SRC_FSBASE_DIRENT_H_
#define LOGFS_SRC_FSBASE_DIRENT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/fsbase/fs_types.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

// Bytes needed for a record holding `name_len` name bytes (header + name,
// rounded up to 4-byte alignment).
size_t DirRecordSize(size_t name_len);

// View over one directory data block. Non-owning; the caller supplies the
// block buffer (typically a cache block).
class DirBlockView {
 public:
  explicit DirBlockView(std::span<std::byte> block) : block_(block) {}

  // Formats an empty directory block (a single hole record spanning it).
  Status InitEmpty();

  // Finds `name`; returns the entry or kNotFound.
  Result<DirEntry> Find(std::string_view name) const;

  // Inserts an entry. Fails with kNoSpace if the block has no large-enough
  // slot, kExists if the name is already present in this block.
  Status Insert(InodeNum ino, FileType type, std::string_view name);

  // Removes `name`; kNotFound if absent.
  Status Remove(std::string_view name);

  // Replaces the inode number of an existing entry (rename overwrite).
  Status SetInode(std::string_view name, InodeNum ino, FileType type);

  // All live entries in the block.
  Result<std::vector<DirEntry>> List() const;

  // True if the block contains no live entries.
  Result<bool> Empty() const;

  // Validates the record chain (used by checkers).
  Status Validate() const;

 private:
  struct RawRecord {
    size_t offset;
    InodeNum ino;
    uint16_t reclen;
    uint16_t namelen;
    FileType type;
    std::string_view name;
  };

  // Calls visit(record) for every record in chain order, in place; returns
  // kCorrupted on a malformed chain, having visited the records before the
  // damage. Callers act only once the whole chain has validated.
  template <typename Visit>
  Status Walk(Visit visit) const;
  // The first live record named `name` and the record just before it (none
  // for the block's first record), once the whole chain has validated;
  // kNotFound if there is none.
  struct Match {
    RawRecord record;
    std::optional<RawRecord> prev;
  };
  Result<Match> Locate(std::string_view name) const;
  void WriteRecord(size_t offset, InodeNum ino, uint16_t reclen, std::string_view name,
                   FileType type);

  std::span<std::byte> block_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_FSBASE_DIRENT_H_
