#include "src/fsbase/namespace_walk.h"

#include <deque>
#include <unordered_map>

namespace logfs {

NamespaceWalk WalkNamespace(std::span<FileSystem* const> parts,
                            std::span<const InodeNum> allocated) {
  using Edit = NamespaceWalk::EntryFix::Edit;
  NamespaceWalk walk;
  walk.parts = parts.size();
  auto part = [&](InodeNum ino) { return parts[PartOf(ino, parts.size())]; };
  const std::unordered_set<InodeNum> is_allocated(allocated.begin(), allocated.end());
  std::unordered_map<InodeNum, uint32_t> name_refs;   // Names counted toward nlink.
  std::unordered_map<InodeNum, uint32_t> child_dirs;  // Subdirectories, likewise.
  std::unordered_map<InodeNum, InodeNum> parent_of;
  std::deque<InodeNum> queue = {kRootIno};
  walk.reachable.insert(kRootIno);
  parent_of[kRootIno] = kRootIno;
  while (!queue.empty()) {
    const InodeNum dir = queue.front();
    queue.pop_front();
    ++walk.directories;
    Result<std::vector<DirEntry>> entries = part(dir)->ReadDir(dir);
    if (!entries.ok()) {
      walk.unreadable.emplace_back(dir, entries.status());
      continue;
    }
    const InodeNum parent = parent_of[dir];
    auto fix = [&](Edit edit, const std::string& name, InodeNum found, InodeNum target,
                   FileType type, const char* why) {
      walk.fixes.push_back({edit, dir, name, found, target, type, why});
    };
    bool saw_dot = false;
    bool saw_dotdot = false;
    for (const DirEntry& entry : entries.value()) {
      if (entry.name == ".") {
        saw_dot = true;
        if (entry.ino != dir) {
          fix(Edit::kRepoint, ".", entry.ino, dir, FileType::kDirectory, "wrong '.'");
        }
        continue;
      }
      if (entry.name == "..") {
        saw_dotdot = true;
        if (entry.ino != parent) {
          fix(Edit::kRepoint, "..", entry.ino, parent, FileType::kDirectory, "wrong '..'");
        }
        continue;
      }
      if (!is_allocated.contains(entry.ino)) {
        fix(Edit::kDrop, entry.name, entry.ino, kInvalidIno, FileType::kNone, "dangling");
        continue;
      }
      Result<FileStat> stat = part(entry.ino)->Stat(entry.ino);
      if (!stat.ok()) {
        fix(Edit::kDrop, entry.name, entry.ino, kInvalidIno, FileType::kNone, "unstattable");
        continue;
      }
      const bool is_dir = stat->type == FileType::kDirectory;
      if (is_dir && walk.reachable.contains(entry.ino)) {
        fix(Edit::kDrop, entry.name, entry.ino, kInvalidIno, FileType::kNone,
            "duplicate directory link");
        continue;
      }
      if (stat->type != entry.type) {
        fix(Edit::kRepoint, entry.name, entry.ino, entry.ino, stat->type, "type mismatch");
      }
      ++name_refs[entry.ino];
      if (is_dir) {
        ++child_dirs[dir];
        walk.reachable.insert(entry.ino);
        parent_of[entry.ino] = dir;
        queue.push_back(entry.ino);
      } else if (walk.reachable.insert(entry.ino).second) {
        ++walk.files;
      }
    }
    if (!saw_dot) {
      fix(Edit::kInsert, ".", kInvalidIno, dir, FileType::kDirectory, "missing '.'");
    }
    if (!saw_dotdot) {
      fix(Edit::kInsert, "..", kInvalidIno, parent, FileType::kDirectory, "missing '..'");
    }
  }

  for (InodeNum ino : allocated) {
    if (!walk.reachable.contains(ino)) {
      walk.orphans.push_back(ino);
      continue;
    }
    Result<FileStat> stat = part(ino)->Stat(ino);
    if (!stat.ok()) {
      continue;  // Every reached inode but the root stat'ed in the walk.
    }
    const uint32_t expected =
        stat->type == FileType::kDirectory ? 2 + child_dirs[ino] : name_refs[ino];
    if (stat->nlink != expected) {
      walk.wrong_nlinks.push_back({ino, stat->nlink, expected});
    }
  }
  return walk;
}

std::vector<std::string> NamespaceWalk::Problems() const {
  std::vector<std::string> out;
  for (const auto& [dir, status] : unreadable) {
    out.push_back("dir " + std::to_string(dir) + " unreadable: " + status.ToString());
  }
  for (const EntryFix& fix : fixes) {
    out.push_back("dir " + std::to_string(fix.dir) +
                  (fix.edit == EntryFix::Edit::kInsert
                       ? ""
                       : " entry '" + fix.name + "' -> ino " + std::to_string(fix.found)) +
                  ": " + fix.why);
  }
  for (InodeNum ino : orphans) {
    out.push_back("allocated ino " + std::to_string(ino) +
                  (parts > 1 ? " on shard " + std::to_string(PartOf(ino, parts)) : "") +
                  " unreachable from root");
  }
  for (const WrongNlink& wrong : wrong_nlinks) {
    out.push_back("ino " + std::to_string(wrong.ino) + " nlink " + std::to_string(wrong.nlink) +
                  " != expected " + std::to_string(wrong.expected));
  }
  return out;
}

}  // namespace logfs
