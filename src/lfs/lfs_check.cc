#include "src/lfs/lfs_check.h"

#include <deque>
#include <map>
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

void LfsCheckReport::Complain(std::string problem) {
  if (problems.size() < 64) {
    problems.push_back(std::move(problem));
  }
}

Result<LfsCheckReport> LfsChecker::Check(bool verify_data) {
  LfsCheckReport report;
  RETURN_IF_ERROR(CheckLog(verify_data, "", &report));
  LfsFileSystem* const logs[] = {fs_};
  CheckNamespace(logs, [](InodeNum) { return size_t{0}; }, &report);
  return report;
}

Status LfsChecker::CheckLog(bool verify_data, const std::string& label,
                            LfsCheckReport* report) {
  auto complain = [&](const std::string& message) { report->Complain(label + message); };
  // Quiesce: every structure must be on disk (or exactly tracked). A mount
  // demoted to read-only cannot sync, but it also cannot dirty anything
  // further, so the check proceeds on whatever is durable.
  Status quiesce = fs_->Sync();
  report->read_only = report->read_only || fs_->read_only();
  if (!quiesce.ok() && !fs_->read_only()) {
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

  // --- 1. every allocated inode resolves to its on-disk slot, stats, and
  // reads back: a directory's entries, and with verify_data a file's bytes ---
  std::vector<std::byte> block(sb.block_size);
  auto check_home = [&](InodeNum ino, const ImapEntry& entry) {
    if (entry.block_addr == kNoAddr || !sb.InSegmentArea(entry.block_addr)) {
      return complain("ino " + std::to_string(ino) + " has bad inode-block address");
    }
    if (!fs_->ReadBlockAt(entry.block_addr, block).ok()) {
      return complain("ino " + std::to_string(ino) + " inode block unreadable");
    }
    Result<std::vector<PackedInode>> packed = DecodeInodeBlock(block);
    if (!packed.ok()) {
      return complain("ino " + std::to_string(ino) + " inode block undecodable");
    }
    if (entry.slot >= packed->size()) {
      return complain("ino " + std::to_string(ino) + " slot out of range");
    }
    const PackedInode& packed_slot = (*packed)[entry.slot];
    if (packed_slot.ino != ino) {
      complain("ino " + std::to_string(ino) + " slot tagged with ino " +
               std::to_string(packed_slot.ino));
    }
    if (packed_slot.version != entry.version) {
      complain("ino " + std::to_string(ino) + " on-disk version stale");
    }
  };
  for (uint32_t slot = 0; slot < imap.max_inodes(); ++slot) {
    const ImapEntry& entry = imap.GetSlot(slot);
    if (!entry.allocated) {
      continue;
    }
    const InodeNum ino = imap.InoAtSlot(slot);
    check_home(ino, entry);
    Result<FileStat> stat = fs_->Stat(ino);
    if (!stat.ok()) {
      complain("stat of ino " + std::to_string(ino) + " failed");
    } else if (stat->type == FileType::kDirectory) {
      if (!fs_->ReadDir(ino).ok()) {
        complain("dir " + std::to_string(ino) + " unreadable");
      }
    } else if (verify_data) {
      report->total_bytes += stat->size;
      std::vector<std::byte> content(stat->size);
      if (stat->size > 0) {
        Result<uint64_t> n = fs_->Read(ino, 0, content);
        if (!n.ok() || *n != stat->size) {
          complain("file ino " + std::to_string(ino) + " content unreadable");
        }
      }
    }
  }

  // --- 2. one walk of the live-block set: usage exactness, address
  // uniqueness, and the media-verification set ---
  std::vector<uint64_t> recount(sb.num_segments, 0);
  // Every live address, mapped to whether an inode block owns it: the
  // inodes packed into one inode block share its address legitimately.
  std::unordered_map<DiskAddr, bool> live;
  RETURN_IF_ERROR(fs_->WalkLiveBlocks([&](const LfsFileSystem::LivePointer& pointer) {
    auto what = [&pointer] {
      static constexpr const char* kNames[] = {"",           "data block",  "indirect block",
                                               "inode block", "imap block", "usage block",
                                               "meta-log block"};
      return kNames[static_cast<size_t>(pointer.kind)] +
             (pointer.ino != 0 ? " of ino " + std::to_string(pointer.ino) : "");
    };
    if (!pointer.in_area) {
      return complain(what() + " outside segment area");
    }
    recount[sb.SegmentOfSector(pointer.addr)] += pointer.bytes;
    const bool shared = pointer.kind == BlockKind::kInodeBlock;
    const auto [it, fresh] = live.emplace(pointer.addr, shared);
    if (!fresh && !(shared && it->second)) {
      complain(what() + " double-references sector " + std::to_string(pointer.addr));
    }
  }));
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

  // --- 3. media verification ---
  // Compare every live block whose write-time CRC the mount knows against
  // the bytes on the medium, bypassing the buffer cache. Failures in a
  // quarantined segment are expected (the damage is already tracked and the
  // segment side-lined), so only failures in ordinary segments are
  // inconsistencies; both are counted per segment.
  report->quarantined_segments += fs_->usage_.CountState(SegState::kQuarantined);
  std::map<uint32_t, uint64_t> seg_failures;  // Ordered: reported by segment.
  for (const auto& [addr, shared] : live) {
    auto it = fs_->block_crcs_.find(addr);
    if (it == fs_->block_crcs_.end()) {
      continue;  // No write-time CRC known (e.g. damaged summary at mount).
    }
    if (!fs_->device_->ReadSectors(addr, block).ok() || Crc32(block) != it->second) {
      ++seg_failures[sb.SegmentOfSector(addr)];
      continue;
    }
    ++report->blocks_checksum_verified;
  }
  for (const auto& [seg, failures] : seg_failures) {
    report->segment_checksum_failures.emplace_back(seg, failures);  // Segment ids of this log.
    report->checksum_failures += failures;
    if (fs_->usage_.Get(seg).state != SegState::kQuarantined) {
      complain("segment " + std::to_string(seg) + ": " + std::to_string(failures) +
               " live blocks fail their write-time checksum");
    }
  }
  return OkStatus();
}

void CheckNamespace(std::span<LfsFileSystem* const> logs,
                    const std::function<size_t(InodeNum)>& home, LfsCheckReport* report) {
  auto complain = [report](std::string message) { report->Complain(std::move(message)); };
  auto log_of = [&](InodeNum ino) { return logs[home(ino)]; };
  // Where an inode lives, for messages; a single log needs no saying.
  auto where = [&](InodeNum ino) {
    return logs.size() > 1 ? " on shard " + std::to_string(home(ino)) : std::string();
  };
  std::unordered_map<InodeNum, uint32_t> name_refs;   // Non-dot references.
  std::unordered_map<InodeNum, uint32_t> child_dirs;  // Subdirectory count.
  std::unordered_map<InodeNum, InodeNum> parent_of;
  std::unordered_set<InodeNum> visited;
  std::deque<InodeNum> queue;
  queue.push_back(kRootIno);
  visited.insert(kRootIno);
  parent_of[kRootIno] = kRootIno;
  while (!queue.empty()) {
    const InodeNum dir = queue.front();
    queue.pop_front();
    ++report->directories;
    Result<std::vector<DirEntry>> entries = log_of(dir)->ReadDir(dir);
    if (!entries.ok()) {
      complain("dir " + std::to_string(dir) + " unreadable: " + entries.status().ToString());
      continue;
    }
    bool saw_dot = false;
    bool saw_dotdot = false;
    for (const DirEntry& entry : entries.value()) {
      const InodeMap& imap = log_of(entry.ino)->imap();
      if (!imap.IsValid(entry.ino) || !imap.Get(entry.ino).allocated) {
        complain("dir " + std::to_string(dir) + " entry '" + entry.name +
                 "' dangles: ino " + std::to_string(entry.ino) + " not allocated" +
                 where(entry.ino));
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
      Result<FileStat> stat = log_of(entry.ino)->Stat(entry.ino);
      if (!stat.ok()) {
        complain("stat of ino " + std::to_string(entry.ino) + " failed");
        continue;
      }
      if (stat->type != entry.type) {
        complain("dir " + std::to_string(dir) + " entry '" + entry.name +
                 "' type disagrees with the inode");
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
        ++report->files;
        visited.insert(entry.ino);
      }
    }
    if (!saw_dot || !saw_dotdot) {
      complain("dir " + std::to_string(dir) + " missing . or ..");
    }
  }
  // nlink exactness and orphan detection across every log's inode map.
  for (LfsFileSystem* log : logs) {
    const InodeMap& imap = log->imap();
    for (uint32_t slot = 0; slot < imap.max_inodes(); ++slot) {
      if (!imap.GetSlot(slot).allocated) {
        continue;
      }
      const InodeNum ino = imap.InoAtSlot(slot);
      if (!visited.contains(ino)) {
        complain("allocated ino " + std::to_string(ino) + where(ino) + " unreachable from root");
        continue;
      }
      Result<FileStat> stat = log->Stat(ino);
      if (!stat.ok()) {
        continue;  // Already complained during the walk.
      }
      // A directory: ".", its parent's entry, and each child's "..".
      const uint32_t expected =
          stat->type == FileType::kDirectory ? 2 + child_dirs[ino] : name_refs[ino];
      if (stat->nlink != expected) {
        complain("ino " + std::to_string(ino) + " nlink " + std::to_string(stat->nlink) +
                 " != expected " + std::to_string(expected));
      }
    }
  }
}

}  // namespace logfs
