// NamespaceWalk: the namespace rules fsck applies, stated once.
//
// One breadth-first walk from the root over a volume made of one or more
// FileSystem parts, inode `ino` living in part PartOf(ino, parts.size()) (a
// sharded LFS's shards; FFS and a single-log LFS are one part). It reads
// directories and stats inodes, and edits nothing. The FFS checker
// (src/ffs/ffs_check.h) and the LFS checker (src/lfs/lfs_check.h) render
// what it finds as problems; the cross-shard repairer (src/lfs/lfs_repair.h)
// makes the edits it names. So a check says what a repair will do.
//
// The rules, in walk order within each directory:
//   * "." must name the directory, and ".." the directory the walk reached
//     it from (the root's ".." names the root). Dots are judged first and
//     count toward no nlink.
//   * Any other entry must name an allocated inode that stats, a directory
//     must be reached through one entry only (the first in walk order), and
//     an entry's type must be its inode's. An entry that breaks one of the
//     first three rules counts toward no nlink.
//   * A directory missing "." or ".." needs it inserted.
// After the walk, every allocated inode it did not reach is an orphan, and
// every inode it reached must carry the exact nlink: a directory 2 plus its
// subdirectories, anything else its names.
//
// What checks these rules without sharing this code: the crash explorer's
// per-path oracle (src/crashsim/oracle.h), and in the tests a cycle walk of
// their own and a table of seeded damage whose repair notes are written
// out literally (tests/namespace_damage.h).
#ifndef LOGFS_SRC_FSBASE_NAMESPACE_WALK_H_
#define LOGFS_SRC_FSBASE_NAMESPACE_WALK_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/fsbase/file_system.h"
#include "src/fsbase/fs_types.h"
#include "src/util/status.h"

namespace logfs {

struct NamespaceWalk {
  // A directory entry that breaks a rule, with the edit that fixes it.
  struct EntryFix {
    enum class Edit { kDrop, kRepoint, kInsert };
    Edit edit = Edit::kDrop;
    InodeNum dir = kInvalidIno;
    std::string name;
    InodeNum found = kInvalidIno;   // What the entry names now; none if missing.
    InodeNum target = kInvalidIno;  // What a repoint or insert makes it name,
    FileType type = FileType::kNone;  // with this type.
    const char* why = "";           // The rule: "dangling", "wrong '..'", ...
  };
  struct WrongNlink {
    InodeNum ino = kInvalidIno;
    uint32_t nlink = 0;
    uint32_t expected = 0;
  };

  size_t parts = 1;
  std::unordered_set<InodeNum> reachable;
  uint64_t directories = 0;  // Reached, readable or not.
  uint64_t files = 0;        // Reached non-directories, each once.
  std::vector<std::pair<InodeNum, Status>> unreadable;  // Directories.
  std::vector<EntryFix> fixes;           // Walk order.
  std::vector<InodeNum> orphans;         // In the order `allocated` lists them.
  std::vector<WrongNlink> wrong_nlinks;  // Likewise.

  // One line per finding, for a checker's report.
  std::vector<std::string> Problems() const;
};

// Walks the namespace of `parts` from the root. `allocated` lists every
// allocated inode of every part.
NamespaceWalk WalkNamespace(std::span<FileSystem* const> parts,
                            std::span<const InodeNum> allocated);

}  // namespace logfs

#endif  // LOGFS_SRC_FSBASE_NAMESPACE_WALK_H_
