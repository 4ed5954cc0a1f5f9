#include "src/lfs/lfs_check.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/util/crc32.h"

namespace logfs {

std::string LfsCheckReport::Summary() const {
  std::ostringstream os;
  os << (ok() ? "CLEAN" : "CORRUPT") << ": " << files << " files, " << directories
     << " directories, " << total_bytes << " bytes, " << blocks_checksum_verified
     << " blocks checksum-verified";
  if (checksum_failures > 0) {
    os << ", " << checksum_failures << " checksum failures";
  }
  if (quarantined_segments > 0) {
    os << ", " << quarantined_segments << " quarantined segments";
  }
  if (read_only) {
    os << " [read-only]";
  }
  if (repairs_applied > 0) {
    os << ", " << repairs_applied << " repairs applied";
  }
  for (const auto& [seg, failures] : segment_checksum_failures) {
    os << "\n  segment " << seg << ": " << failures << " checksum failures";
  }
  for (const std::string& problem : problems) {
    os << "\n  problem: " << problem;
  }
  return os.str();
}

Result<LfsCheckReport> LfsChecker::Check(bool verify_data) {
  LfsCheckReport report;
  auto complain = [&report](std::string message) {
    if (report.problems.size() < 64) {
      report.problems.push_back(std::move(message));
    }
  };
  // Quiesce: every structure must be on disk (or exactly tracked). A mount
  // demoted to read-only cannot sync, but it also cannot dirty anything
  // further, so the check proceeds on whatever is durable.
  Status quiesce = fs_->Sync();
  report.read_only = fs_->read_only();
  if (!quiesce.ok() && !report.read_only) {
    return quiesce;
  }
  // --- 0. in-core write-behind state after a successful sync ---
  // Nothing may stay dirty, and the dirty-inode set must agree with the
  // per-inode flags it shadows.
  if (quiesce.ok()) {
    if (fs_->cache_.dirty_count() != 0) {
      complain(std::to_string(fs_->cache_.dirty_count()) + " cache blocks dirty after sync");
    }
    if (!fs_->dirty_inodes_.empty()) {
      complain(std::to_string(fs_->dirty_inodes_.size()) + " inodes left in the dirty set");
    }
    for (const auto& [ino, cached] : fs_->inodes_) {
      if (cached.ino != ino || cached.dirty) {
        complain("in-core inode " + std::to_string(ino) + " mislabeled or dirty after sync");
      }
    }
  }

  const LfsSuperblock& sb = fs_->sb_;
  const InodeMap& imap = fs_->imap_;
  const uint64_t segment_area_end =
      sb.first_segment_sector + static_cast<uint64_t>(sb.num_segments) * sb.SectorsPerSegment();
  auto addr_in_range = [&](DiskAddr addr) {
    return addr >= sb.first_segment_sector && addr < segment_area_end;
  };

  // --- 1. imap -> on-disk inode blocks ---
  std::vector<std::byte> block(sb.block_size);
  for (uint32_t slot = 0; slot < imap.max_inodes(); ++slot) {
    const InodeNum ino = imap.InoAtSlot(slot);
    const ImapEntry& entry = imap.GetSlot(slot);
    if (!entry.allocated) {
      continue;
    }
    if (entry.block_addr == kNoAddr || !addr_in_range(entry.block_addr)) {
      complain("ino " + std::to_string(ino) + " has bad inode-block address");
      continue;
    }
    if (!fs_->ReadBlockAt(entry.block_addr, block).ok()) {
      complain("ino " + std::to_string(ino) + " inode block unreadable");
      continue;
    }
    Result<std::vector<PackedInode>> packed = DecodeInodeBlock(block);
    if (!packed.ok()) {
      complain("ino " + std::to_string(ino) + " inode block undecodable");
      continue;
    }
    if (entry.slot >= packed->size()) {
      complain("ino " + std::to_string(ino) + " slot out of range");
      continue;
    }
    const PackedInode& packed_slot = (*packed)[entry.slot];
    if (packed_slot.ino != ino) {
      complain("ino " + std::to_string(ino) + " slot tagged with ino " +
               std::to_string(packed_slot.ino));
    }
    if (packed_slot.version != entry.version) {
      complain("ino " + std::to_string(ino) + " on-disk version stale");
    }
  }

  // --- 2. directory tree walk: reachability, nlink, dot entries ---
  // Shard mode (check_namespace_ false): the tree spans shards, so walk the
  // inode map instead — every allocated inode must stat and every file's
  // content must read end to end; reachability/nlink belong to the global
  // sharded checker.
  if (!check_namespace_) {
    for (uint32_t slot = 0; slot < imap.max_inodes(); ++slot) {
      const InodeNum ino = imap.InoAtSlot(slot);
      if (!imap.GetSlot(slot).allocated) {
        continue;
      }
      Result<FileStat> stat = fs_->Stat(ino);
      if (!stat.ok()) {
        complain("stat of ino " + std::to_string(ino) + " failed");
        continue;
      }
      if (stat->type == FileType::kDirectory) {
        ++report.directories;
        if (!fs_->ReadDir(ino).ok()) {
          complain("dir " + std::to_string(ino) + " unreadable");
        }
      } else {
        ++report.files;
        if (verify_data) {
          report.total_bytes += stat->size;
          std::vector<std::byte> content(stat->size);
          if (stat->size > 0) {
            Result<uint64_t> n = fs_->Read(ino, 0, content);
            if (!n.ok() || *n != stat->size) {
              complain("file ino " + std::to_string(ino) + " content unreadable");
            }
          }
        }
      }
    }
  }
  std::unordered_map<InodeNum, uint32_t> name_refs;     // Non-dot references.
  std::unordered_map<InodeNum, uint32_t> child_dirs;    // Subdirectory count.
  std::unordered_map<InodeNum, InodeNum> parent_of;
  std::unordered_set<InodeNum> visited;
  std::deque<InodeNum> queue;
  if (check_namespace_) {
    queue.push_back(kRootIno);
    visited.insert(kRootIno);
    parent_of[kRootIno] = kRootIno;
  }
  while (!queue.empty()) {
    const InodeNum dir = queue.front();
    queue.pop_front();
    ++report.directories;
    Result<std::vector<DirEntry>> entries = fs_->ReadDir(dir);
    if (!entries.ok()) {
      complain("dir " + std::to_string(dir) + " unreadable: " + entries.status().ToString());
      continue;
    }
    bool saw_dot = false;
    bool saw_dotdot = false;
    for (const DirEntry& entry : entries.value()) {
      if (!imap.IsValid(entry.ino) || !imap.Get(entry.ino).allocated) {
        complain("dir " + std::to_string(dir) + " entry '" + entry.name +
                 "' references unallocated ino " + std::to_string(entry.ino));
        continue;
      }
      if (entry.name == ".") {
        saw_dot = true;
        if (entry.ino != dir) {
          complain("dir " + std::to_string(dir) + " has wrong '.'");
        }
        continue;
      }
      if (entry.name == "..") {
        saw_dotdot = true;
        if (entry.ino != parent_of[dir]) {
          complain("dir " + std::to_string(dir) + " has wrong '..'");
        }
        continue;
      }
      ++name_refs[entry.ino];
      Result<FileStat> stat = fs_->Stat(entry.ino);
      if (!stat.ok()) {
        complain("stat of ino " + std::to_string(entry.ino) + " failed");
        continue;
      }
      if (stat->type == FileType::kDirectory) {
        ++child_dirs[dir];
        if (!visited.insert(entry.ino).second) {
          complain("directory ino " + std::to_string(entry.ino) + " linked twice");
          continue;
        }
        parent_of[entry.ino] = dir;
        queue.push_back(entry.ino);
      } else {
        ++report.files;
        if (visited.insert(entry.ino).second && verify_data) {
          report.total_bytes += stat->size;
          std::vector<std::byte> content(stat->size);
          if (stat->size > 0) {
            Result<uint64_t> n = fs_->Read(entry.ino, 0, content);
            if (!n.ok() || *n != stat->size) {
              complain("file ino " + std::to_string(entry.ino) + " content unreadable");
            }
          }
        }
      }
    }
    if (!saw_dot || !saw_dotdot) {
      complain("dir " + std::to_string(dir) + " missing . or ..");
    }
  }
  // nlink verification and orphan detection (namespace checks only).
  for (uint32_t slot = 0; check_namespace_ && slot < imap.max_inodes(); ++slot) {
    const InodeNum ino = imap.InoAtSlot(slot);
    if (!imap.GetSlot(slot).allocated) {
      continue;
    }
    if (!visited.contains(ino)) {
      complain("allocated ino " + std::to_string(ino) + " unreachable from root");
      continue;
    }
    Result<FileStat> stat = fs_->Stat(ino);
    if (!stat.ok()) {
      continue;  // Already complained above.
    }
    uint32_t expected;
    if (stat->type == FileType::kDirectory) {
      expected = 2 + child_dirs[ino];  // ".", parent entry, children's "..".
      if (ino == kRootIno) {
        expected = 2 + child_dirs[ino];
      }
    } else {
      expected = name_refs[ino];
    }
    if (stat->nlink != expected) {
      complain("ino " + std::to_string(ino) + " nlink " + std::to_string(stat->nlink) +
               " != expected " + std::to_string(expected));
    }
  }

  // --- 3 & 4. live-address uniqueness and usage-table exactness ---
  ASSIGN_OR_RETURN(std::vector<uint64_t> recount, fs_->ComputeExactUsage());
  for (uint32_t seg = 0; seg < sb.num_segments; ++seg) {
    const SegUsage& usage = fs_->usage_.Get(seg);
    if (usage.live_bytes != recount[seg]) {
      complain("segment " + std::to_string(seg) + " usage " +
               std::to_string(usage.live_bytes) + " != recount " +
               std::to_string(recount[seg]));
    }
    if (usage.state == SegState::kClean && recount[seg] != 0) {
      complain("clean segment " + std::to_string(seg) + " has live data");
    }
  }
  if (fs_->usage_.CountState(SegState::kActive) != 1) {
    complain("active segment count != 1");
  }
  // Address uniqueness: walk every live pointer set.
  std::unordered_set<uint64_t> seen;
  auto claim = [&](DiskAddr addr, const char* what, InodeNum ino) {
    if (addr == kNoAddr) {
      return;
    }
    if (!addr_in_range(addr)) {
      complain(std::string(what) + " of ino " + std::to_string(ino) +
               " outside segment area");
      return;
    }
    if (!seen.insert(addr).second) {
      complain(std::string(what) + " of ino " + std::to_string(ino) +
               " double-references sector " + std::to_string(addr));
    }
  };
  for (uint32_t slot = 0; slot < imap.max_inodes(); ++slot) {
    const InodeNum ino = imap.InoAtSlot(slot);
    if (!imap.GetSlot(slot).allocated) {
      continue;
    }
    Result<LfsFileSystem::CachedInode*> ci = fs_->GetInode(ino);
    if (!ci.ok()) {
      continue;
    }
    const Inode inode = (*ci)->inode;
    for (DiskAddr addr : inode.direct) {
      claim(addr, "direct block", ino);
    }
    claim(inode.single_indirect, "single indirect", ino);
    claim(inode.double_indirect, "double indirect", ino);
    if (inode.single_indirect != kNoAddr) {
      Result<CacheRef> ref = fs_->GetIndirectRef(ino, 0, false);
      if (ref.ok()) {
        for (uint64_t j = 0; j < fs_->EntriesPerBlock(); ++j) {
          claim(ReadIndirectEntry((*ref)->data(), j), "indirect entry", ino);
        }
      }
    }
    if (inode.double_indirect != kNoAddr) {
      for (uint64_t j = 0; j < fs_->EntriesPerBlock(); ++j) {
        Result<DiskAddr> leaf_addr = fs_->GetIndirectAddr(ino, 2 + j);
        if (!leaf_addr.ok() || *leaf_addr == kNoAddr) {
          continue;
        }
        claim(*leaf_addr, "double-indirect leaf", ino);
        Result<CacheRef> leaf = fs_->GetIndirectRef(ino, 2 + j, false);
        if (leaf.ok()) {
          for (uint64_t k = 0; k < fs_->EntriesPerBlock(); ++k) {
            claim(ReadIndirectEntry((*leaf)->data(), k), "double-indirect entry", ino);
          }
        }
      }
    }
  }

  // --- 5. media verification ---
  // Compare every live block whose write-time CRC the mount knows against
  // the bytes on the medium, bypassing the buffer cache. Failures in a
  // quarantined segment are expected (the damage is already tracked and the
  // segment side-lined), so only failures in ordinary segments are
  // inconsistencies; both are counted per segment.
  report.quarantined_segments = fs_->usage_.CountState(SegState::kQuarantined);
  std::unordered_set<uint64_t> verify_addrs(seen);
  for (uint32_t slot = 0; slot < imap.max_inodes(); ++slot) {
    const ImapEntry& entry = imap.GetSlot(slot);
    if (entry.allocated && entry.block_addr != kNoAddr) {
      verify_addrs.insert(entry.block_addr);
    }
  }
  for (DiskAddr addr : fs_->imap_block_addrs_) {
    if (addr != kNoAddr) {
      verify_addrs.insert(addr);
    }
  }
  for (DiskAddr addr : fs_->usage_block_addrs_) {
    if (addr != kNoAddr) {
      verify_addrs.insert(addr);
    }
  }
  std::unordered_map<uint32_t, uint64_t> seg_failures;
  std::vector<std::byte> raw(sb.block_size);
  for (uint64_t addr : verify_addrs) {
    if (!addr_in_range(addr)) {
      continue;  // Already complained about by the claim walk.
    }
    auto it = fs_->block_crcs_.find(addr);
    if (it == fs_->block_crcs_.end()) {
      continue;  // No write-time CRC known (e.g. damaged summary at mount).
    }
    if (!fs_->device_->ReadSectors(addr, raw).ok() || Crc32(raw) != it->second) {
      ++seg_failures[sb.SegmentOfSector(addr)];
      continue;
    }
    ++report.blocks_checksum_verified;
  }
  report.segment_checksum_failures.assign(seg_failures.begin(), seg_failures.end());
  std::sort(report.segment_checksum_failures.begin(),
            report.segment_checksum_failures.end());
  for (const auto& [seg, failures] : report.segment_checksum_failures) {
    report.checksum_failures += failures;
    if (fs_->usage_.Get(seg).state != SegState::kQuarantined) {
      complain("segment " + std::to_string(seg) + ": " + std::to_string(failures) +
               " live blocks fail their write-time checksum");
    }
  }
  return report;
}

}  // namespace logfs
