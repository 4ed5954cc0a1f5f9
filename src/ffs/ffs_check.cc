#include "src/ffs/ffs_check.h"

#include <sstream>
#include <unordered_set>

#include "src/fsbase/namespace_walk.h"

namespace logfs {
namespace {

bool TestBit(const std::vector<uint8_t>& bitmap, uint64_t bit) {
  return (bitmap[bit / 8] >> (bit % 8)) & 1u;
}

}  // namespace

std::string FfsCheckReport::Summary() const {
  std::ostringstream os;
  os << (ok() ? "CLEAN" : "CORRUPT") << ": " << files << " files, " << directories
     << " directories, " << total_bytes << " bytes, " << blocks_in_use << " data blocks";
  for (const std::string& problem : problems) {
    os << "\n  problem: " << problem;
  }
  return os.str();
}

Result<FfsCheckReport> FfsChecker::Check(bool verify_data) {
  FfsCheckReport report;
  auto complain = [&report](std::string message) {
    if (report.problems.size() < 64) {
      report.problems.push_back(std::move(message));
    }
  };
  RETURN_IF_ERROR(fs_->Sync());
  const FfsSuperblock& sb = fs_->sb_;

  // --- collect every live block pointer, checking for double references ---
  std::unordered_set<uint64_t> used_blocks;  // Physical block numbers.
  auto claim = [&](DiskAddr addr, InodeNum ino, const char* what) {
    if (addr == kNoAddr) {
      return;
    }
    const uint64_t block = fs_->AddrToBlock(addr);
    if (block == 0 || block >= sb.total_blocks) {
      complain(std::string(what) + " of ino " + std::to_string(ino) + " out of range");
      return;
    }
    // Must lie in a data area, not group metadata.
    const uint32_t group = static_cast<uint32_t>((block - 1) / sb.blocks_per_group);
    const uint64_t rel = block - fs_->GroupStartBlock(group);
    if (group >= sb.num_groups || rel < fs_->GroupMetaBlocks()) {
      complain(std::string(what) + " of ino " + std::to_string(ino) +
               " points into metadata");
      return;
    }
    if (!used_blocks.insert(block).second) {
      complain("block " + std::to_string(block) + " referenced twice (" + what + " of ino " +
               std::to_string(ino) + ")");
    }
  };

  auto walk_inode_blocks = [&](InodeNum ino, const Inode& inode) -> Status {
    for (DiskAddr addr : inode.direct) {
      claim(addr, ino, "direct block");
    }
    const uint64_t epb = fs_->EntriesPerBlock();
    if (inode.single_indirect != kNoAddr) {
      claim(inode.single_indirect, ino, "single indirect");
      ASSIGN_OR_RETURN(CacheRef ref, fs_->GetBlock(fs_->AddrToBlock(inode.single_indirect)));
      for (uint64_t j = 0; j < epb; ++j) {
        claim(ReadIndirectEntry(ref->data(), j), ino, "indirect entry");
      }
    }
    if (inode.double_indirect != kNoAddr) {
      claim(inode.double_indirect, ino, "double indirect");
      ASSIGN_OR_RETURN(CacheRef l1, fs_->GetBlock(fs_->AddrToBlock(inode.double_indirect)));
      for (uint64_t j = 0; j < epb; ++j) {
        const DiskAddr l2_addr = ReadIndirectEntry(l1->data(), j);
        if (l2_addr == kNoAddr) {
          continue;
        }
        claim(l2_addr, ino, "double-indirect leaf");
        ASSIGN_OR_RETURN(CacheRef l2, fs_->GetBlock(fs_->AddrToBlock(l2_addr)));
        for (uint64_t k = 0; k < epb; ++k) {
          claim(ReadIndirectEntry(l2->data(), k), ino, "double-indirect entry");
        }
      }
    }
    return OkStatus();
  };

  // --- the namespace walk, then per reachable inode: content, block walk ---
  std::vector<InodeNum> allocated;
  for (uint32_t g = 0; g < sb.num_groups; ++g) {
    for (uint32_t i = 0; i < sb.inodes_per_group; ++i) {
      if (TestBit(fs_->groups_[g].inode_bitmap, i)) {
        allocated.push_back(static_cast<InodeNum>(g * sb.inodes_per_group + i + 1));
      }
    }
  }
  FileSystem* const parts[] = {fs_};
  const NamespaceWalk walk = WalkNamespace(parts, allocated);
  report.files = walk.files;
  report.directories = walk.directories;
  for (std::string& problem : walk.Problems()) {
    complain(std::move(problem));
  }
  for (InodeNum ino : allocated) {
    if (!walk.reachable.contains(ino)) {
      continue;
    }
    Result<Inode> inode = fs_->GetInode(ino);
    if (!inode.ok()) {
      complain("ino " + std::to_string(ino) + " undecodable");
      continue;
    }
    if (!inode->IsDirectory()) {
      report.total_bytes += inode->size;
      if (verify_data && inode->size > 0) {
        std::vector<std::byte> content(inode->size);
        Result<uint64_t> n = fs_->Read(ino, 0, content);
        if (!n.ok() || *n != inode->size) {
          complain("file ino " + std::to_string(ino) + " content unreadable");
        }
      }
    }
    RETURN_IF_ERROR(walk_inode_blocks(ino, *inode));
  }
  report.blocks_in_use = used_blocks.size();

  // --- bitmaps must agree exactly with the reachable block set ---
  for (uint32_t g = 0; g < sb.num_groups; ++g) {
    const FfsFileSystem::Group& group = fs_->groups_[g];
    for (uint32_t rel = fs_->GroupMetaBlocks(); rel < group.block_count; ++rel) {
      const uint64_t block = fs_->GroupStartBlock(g) + rel;
      const bool marked = TestBit(group.block_bitmap, rel);
      const bool used = used_blocks.contains(block);
      if (marked && !used) {
        complain("block " + std::to_string(block) + " marked in use but unreferenced (leak)");
      } else if (!marked && used) {
        complain("block " + std::to_string(block) + " referenced but marked free");
      }
    }
  }
  return report;
}

}  // namespace logfs
