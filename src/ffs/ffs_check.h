// FfsChecker: fsck-style consistency verification for the FFS baseline.
//
// After quiescing the file system, verifies that:
//   * the namespace keeps the rules of the shared walk
//     (src/fsbase/namespace_walk.h): a rooted tree with correct "." / ".."
//     entries, every dirent naming an allocated inode of its type, every
//     allocated inode reachable, and exact nlink counts;
//   * every block pointer lies in a valid data area and no two live
//     pointers reference the same block (no double allocation);
//   * the block and inode bitmaps agree exactly with the reachable set
//     (no leaked blocks, no unallocated-but-referenced blocks);
//   * every file's content is readable end to end.
//
// The paper contrasts LFS's log-bounded recovery with FFS needing exactly
// this kind of whole-disk scan after a crash; implementing the scan also
// gives the property tests a ground truth for the baseline.
#ifndef LOGFS_SRC_FFS_FFS_CHECK_H_
#define LOGFS_SRC_FFS_FFS_CHECK_H_

#include <string>
#include <vector>

#include "src/ffs/ffs_file_system.h"
#include "src/util/result.h"

namespace logfs {

struct FfsCheckReport {
  std::vector<std::string> problems;
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t total_bytes = 0;
  uint64_t blocks_in_use = 0;

  bool ok() const { return problems.empty(); }
  std::string Summary() const;
};

class FfsChecker {
 public:
  explicit FfsChecker(FfsFileSystem* fs) : fs_(fs) {}

  Result<FfsCheckReport> Check(bool verify_data = true);

 private:
  FfsFileSystem* fs_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_FFS_FFS_CHECK_H_
