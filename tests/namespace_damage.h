// A table of namespace damage, one flaw per case, seeded through the
// per-log namespace edits (lfs_file_system.h) on a quiescent volume, with
// the notes the repairer must write for it. sharded_intent_test runs every
// case on a 4-log volume in check and repair mode; lfs_check_test runs the
// same seeds through LfsChecker on a single log.
//
// Every case starts from the same tree: /a and /b, a file /a/f and a
// directory /a/s. Expected notes name inodes by placeholder: {a}, {b}, {f},
// {s}; {x} is the inode the seed names or allocates; for an orphan, {part}
// is the log it is on and {lf} the lost+found directory the repair makes.
#ifndef LOGFS_TESTS_NAMESPACE_DAMAGE_H_
#define LOGFS_TESTS_NAMESPACE_DAMAGE_H_

#include <cstdio>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/lfs/lfs_file_system.h"

namespace logfs {

struct DamageVolume {
  InodeNum a = 0;
  InodeNum b = 0;
  InodeNum f = 0;
  InodeNum s = 0;
  // The log holding `ino`.
  std::function<LfsFileSystem*(InodeNum ino)> log_of;
  // A log other than a's, where the volume has one.
  LfsFileSystem* other_log = nullptr;
  // An inode number no log has allocated.
  InodeNum unallocated = 0;
};

struct DamageCase {
  const char* name;
  // Seeds the flaw; returns {x}, or 0.
  std::function<Result<InodeNum>(const DamageVolume& v)> seed;
  std::vector<std::string> notes;  // The repair's, in any order.
  bool orphan = false;
};

inline std::vector<DamageCase> DamageCases() {
  return {
      {"DanglingEntry",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(
             v.log_of(v.b)->DirInsert(v.b, "ghost", v.unallocated, FileType::kRegular));
         return v.unallocated;
       },
       {"dropped dangling entry 'ghost' in dir {b}"}},
      // The root is walked before /a, so its link to s is the one kept: /a
      // loses a subdirectory and the root gains one.
      {"SecondDirectoryLink",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(
             v.log_of(kRootIno)->DirInsert(kRootIno, "s-again", v.s, FileType::kDirectory));
         return v.s;
       },
       {"dropped duplicate directory link entry 's' in dir {a}",
        "repointed entry '..' in dir {s} -> ino 1 (wrong '..')",
        "recounted ino 1 nlink 4 -> 5", "recounted ino {a} nlink 3 -> 2"}},
      {"EntryTypeDiffers",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(v.log_of(v.a)->DirReplace(v.a, "f", v.f, FileType::kDirectory));
         return v.f;
       },
       {"repointed entry 'f' in dir {a} -> ino {f} (type mismatch)"}},
      {"WrongDot",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(v.log_of(v.s)->DirReplace(v.s, ".", v.a, FileType::kDirectory));
         return v.s;
       },
       {"repointed entry '.' in dir {s} -> ino {s} (wrong '.')"}},
      {"WrongDotDot",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(v.log_of(v.s)->DirReplace(v.s, "..", v.b, FileType::kDirectory));
         return v.s;
       },
       {"repointed entry '..' in dir {s} -> ino {a} (wrong '..')"}},
      {"MissingDot",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(v.log_of(v.s)->DirRemove(v.s, "."));
         return v.s;
       },
       {"inserted entry '.' -> ino {s} in dir {s} (missing '.')"}},
      {"MissingDotDot",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(v.log_of(v.s)->DirRemove(v.s, ".."));
         return v.s;
       },
       {"inserted entry '..' -> ino {a} in dir {s} (missing '..')"}},
      {"Orphan",
       [](const DamageVolume& v) { return v.other_log->AllocInode(FileType::kRegular, v.a); },
       {"created lost+found.{part} (ino {lf})",
        "reattached orphan ino {x} as lost+found.{part}/ino{x}",
        "recounted ino 1 nlink 4 -> 5"},
       /*orphan=*/true},
      {"WrongNlink",
       [](const DamageVolume& v) -> Result<InodeNum> {
         RETURN_IF_ERROR(v.log_of(v.f)->SetNlink(v.f, 5));
         return v.f;
       },
       {"recounted ino {f} nlink 5 -> 1"}},
  };
}

inline std::string DamageCaseName(const ::testing::TestParamInfo<DamageCase>& param_info) {
  return param_info.param.name;
}
inline void PrintTo(const DamageCase& damage, std::ostream* os) { *os << damage.name; }

// `text` with every "{key}" replaced by its value.
inline std::string Fill(std::string text, const std::map<std::string, uint64_t>& values) {
  for (const auto& [key, value] : values) {
    const std::string token = "{" + key + "}";
    for (size_t at = text.find(token); at != std::string::npos;
         at = text.find(token, at)) {
      text.replace(at, token.size(), std::to_string(value));
    }
  }
  return text;
}

// (ino, nlink, expected) of each "ino X nlink N != expected M" problem, and
// of each "recounted ino X nlink N -> M" note: one check and one repair
// saying the same thing read the same.
using NlinkFinding = std::tuple<unsigned, unsigned, unsigned>;
inline std::set<NlinkFinding> NlinkProblems(const std::vector<std::string>& problems) {
  std::set<NlinkFinding> out;
  for (const std::string& problem : problems) {
    unsigned ino = 0, nlink = 0, expected = 0;
    if (std::sscanf(problem.c_str(), "ino %u nlink %u != expected %u", &ino, &nlink,
                    &expected) == 3) {
      out.emplace(ino, nlink, expected);
    }
  }
  return out;
}
inline std::set<NlinkFinding> RecountNotes(const std::vector<std::string>& notes) {
  std::set<NlinkFinding> out;
  for (const std::string& note : notes) {
    unsigned ino = 0, nlink = 0, expected = 0;
    if (std::sscanf(note.c_str(), "recounted ino %u nlink %u -> %u", &ino, &nlink,
                    &expected) == 3) {
      out.emplace(ino, nlink, expected);
    }
  }
  return out;
}

}  // namespace logfs

#endif  // LOGFS_TESTS_NAMESPACE_DAMAGE_H_
