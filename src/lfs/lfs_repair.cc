#include "src/lfs/lfs_repair.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/lfs/lfs_check.h"

namespace logfs {
namespace {

// The iterated walk converges in one pass per level of damage nesting
// (an orphan directory reattached in pass N has its subtree walked in pass
// N+1); real crash images settle in 1-2 passes.
constexpr int kMaxPasses = 6;

class Repairer {
 public:
  Repairer(std::span<LfsFileSystem* const> shards, std::span<const IntentRecord> pending)
      : shards_(shards), pending_(pending) {}

  Result<RepairReport> Run() {
    for (LfsFileSystem* shard : shards_) {
      RETURN_IF_ERROR(shard->CheckWritable());
    }
    for (const IntentRecord& in : pending_) {
      RETURN_IF_ERROR(SettleIntent(in));
      ++report_.intents_settled;
    }
    // Each pass acts on a walk taken before its first edit, so an inode the
    // pass allocates (a new lost+found.<i>) is never taken for an orphan.
    NamespaceWalk walk = Walk();
    for (int pass = 0; pass < kMaxPasses && !(walk.fixes.empty() && walk.orphans.empty());
         ++pass) {
      RETURN_IF_ERROR(FixEntries(walk));
      RETURN_IF_ERROR(HandleOrphans(walk));
      walk = Walk();
    }
    // Once the passes run out, fix the entries still, never the orphans.
    RETURN_IF_ERROR(FixEntries(walk));
    RETURN_IF_ERROR(RecountNlinks(walk));
    for (LfsFileSystem* shard : shards_) {
      if (edited_.contains(shard)) {
        RETURN_IF_ERROR(shard->FinishEdits());
      }
    }
    return std::move(report_);
  }

 private:
  LfsFileSystem* Home(InodeNum ino) const { return shards_[PartOf(ino, shards_.size())]; }
  // The log `ino` lives on, which an edit is about to change.
  LfsFileSystem* Edit(InodeNum ino) {
    edited_.insert(Home(ino));
    return Home(ino);
  }

  bool Allocated(InodeNum ino) const {
    if (ino == 0) {
      return false;
    }
    const InodeMap& imap = Home(ino)->imap();
    return imap.IsValid(ino) && imap.Get(ino).allocated;
  }
  // Target ino of (dir, name), or 0 when absent / unreadable.
  InodeNum EntryTarget(InodeNum dir, std::string_view name) {
    Result<DirEntry> found = Home(dir)->FindEntry(dir, name);
    return found.ok() ? found->ino : 0;
  }
  bool IsDirectory(InodeNum ino) {
    Result<FileStat> stat = Home(ino)->Stat(ino);
    return stat.ok() && stat->type == FileType::kDirectory;
  }

  void Note(std::string msg) { report_.actions.push_back(std::move(msg)); }

  Status Drop(InodeNum dir, std::string_view name, const char* why) {
    RETURN_IF_ERROR(Edit(dir)->DirRemove(dir, name));
    ++report_.dirents_dropped;
    Note("dropped " + std::string(why) + " entry '" + std::string(name) + "' in dir " +
         std::to_string(dir));
    return OkStatus();
  }
  Status Insert(InodeNum dir, std::string_view name, InodeNum child, FileType type,
                const char* why) {
    RETURN_IF_ERROR(Edit(dir)->DirInsert(dir, name, child, type));
    ++report_.dirents_added;
    Note("inserted entry '" + std::string(name) + "' -> ino " + std::to_string(child) +
         " in dir " + std::to_string(dir) + " (" + why + ")");
    return OkStatus();
  }
  Status Repoint(InodeNum dir, std::string_view name, InodeNum child, FileType type,
                 const char* why) {
    RETURN_IF_ERROR(Edit(dir)->DirReplace(dir, name, child, type));
    ++report_.dirents_fixed;
    Note("repointed entry '" + std::string(name) + "' in dir " + std::to_string(dir) +
         " -> ino " + std::to_string(child) + " (" + why + ")");
    return OkStatus();
  }
  Status Reap(InodeNum ino, const char* why) {
    RETURN_IF_ERROR(Edit(ino)->ReleaseInode(ino));
    ++report_.orphans_reaped;
    Note("reaped orphan ino " + std::to_string(ino) + " (" + why + ")");
    return OkStatus();
  }

  // --- Phase 0: settle pending intents (op_id order) ---
  //
  // Decision table (§6i). `dirent` = (from_dir, from_name); probes run
  // against the recovered (durable) shard states:
  //   create: dirent -> child but child gone     => drop dirent (roll back)
  //           child allocated, dirent gone       => reap child  (orphan pass)
  //   link:   dirent -> child but child gone     => drop dirent (roll back)
  //   unlink: dirent -> child but child gone     => drop dirent (roll forward)
  //           child allocated, dirent gone       => reap child  (orphan pass;
  //                                                 only if no other name)
  //   rmdir:  same as unlink, child is the empty directory
  //   rename: forward iff the destination half or the victim release is
  //           durable, else back — see SettleRename.
  // nlink in all cases comes from the final recount, never from the table.
  Status SettleIntent(const IntentRecord& in) {
    switch (in.kind) {
      case IntentKind::kCreate:
      case IntentKind::kLink:
      case IntentKind::kUnlink:
      case IntentKind::kRmdir: {
        reap_if_orphan_.insert(in.child);
        if (Allocated(in.from_dir) &&
            EntryTarget(in.from_dir, in.from_name) == in.child && !Allocated(in.child)) {
          RETURN_IF_ERROR(Drop(in.from_dir, in.from_name, "half-applied"));
        }
        return OkStatus();
      }
      case IntentKind::kRename:
        return SettleRename(in);
      case IntentKind::kMarker:
        break;  // Names no operation, and never reads PENDING.
    }
    return OkStatus();
  }

  Status SettleRename(const IntentRecord& in) {
    if (in.victim != 0) {
      reap_if_orphan_.insert(in.victim);
    }
    rename_child_[in.child] = &in;
    if (!Allocated(in.child)) {
      return OkStatus();  // The walk drops whichever dangling entries remain.
    }
    const InodeNum src =
        Allocated(in.from_dir) ? EntryTarget(in.from_dir, in.from_name) : 0;
    const InodeNum dst = Allocated(in.to_dir) ? EntryTarget(in.to_dir, in.to_name) : 0;
    const bool victim_alive = in.victim != 0 && Allocated(in.victim);
    // Forward iff a destination-side half is already durable: the dst entry
    // points at the child, or the victim's release landed (the dst entry
    // cannot be rolled back to a victim that no longer exists).
    const bool forward = dst == in.child || (in.victim != 0 && !victim_alive);
    if (forward) {
      if (dst != in.child && Allocated(in.to_dir) && IsDirectory(in.to_dir)) {
        if (dst != 0) {
          RETURN_IF_ERROR(Repoint(in.to_dir, in.to_name, in.child, in.child_type,
                                  "rename roll-forward"));
        } else {
          RETURN_IF_ERROR(Insert(in.to_dir, in.to_name, in.child, in.child_type,
                                 "rename roll-forward"));
        }
      }
      if (src == in.child) {
        RETURN_IF_ERROR(Drop(in.from_dir, in.from_name, "rename roll-forward source"));
      }
      if (victim_alive) {
        RETURN_IF_ERROR(Reap(in.victim, "rename victim"));
      }
    } else if (src != in.child && src == 0 && Allocated(in.from_dir) &&
               IsDirectory(in.from_dir)) {
      RETURN_IF_ERROR(Insert(in.from_dir, in.from_name, in.child, in.child_type,
                             "rename roll-back"));
    }
    // A moved directory's '..' is corrected by the walk (it repoints '..'
    // at the actual walk parent), so neither branch edits it here.
    return OkStatus();
  }

  // --- Iterated global walk ---
  //
  // The shared namespace walk (src/fsbase/namespace_walk.h) names each
  // entry it can prove wrong locally, with its edit: dangling and
  // unstattable entries dropped, duplicate directory links detached (the
  // first in walk order wins), '.'/'..' repointed or re-inserted, entry/inode
  // type disagreements repointed.
  NamespaceWalk Walk() {
    NamespaceWalk walk = WalkLogs(shards_);
    for (const auto& [dir, status] : walk.unreadable) {
      Note("dir " + std::to_string(dir) + " unreadable, skipped: " + status.ToString());
    }
    return walk;
  }

  Status FixEntries(const NamespaceWalk& walk) {
    for (const NamespaceWalk::EntryFix& fix : walk.fixes) {
      using enum NamespaceWalk::EntryFix::Edit;
      switch (fix.edit) {
        case kDrop:
          RETURN_IF_ERROR(Drop(fix.dir, fix.name, fix.why));
          break;
        case kRepoint:
          RETURN_IF_ERROR(Repoint(fix.dir, fix.name, fix.target, fix.type, fix.why));
          break;
        case kInsert:
          RETURN_IF_ERROR(Insert(fix.dir, fix.name, fix.target, fix.type, fix.why));
          break;
      }
    }
    return OkStatus();
  }

  // --- Orphan policy ---
  //
  // An allocated-but-unreachable inode is settled by what the intents say
  // about it: the half-applied child of a create/unlink/rmdir (or a rename
  // victim) is reaped; a rename's moved inode is reattached at its
  // destination name, else its source name; anything else (intent region
  // lost, seeded damage) is reattached under the per-shard lost+found.
  Status HandleOrphans(const NamespaceWalk& walk) {
    for (InodeNum ino : walk.orphans) {
      if (reap_if_orphan_.contains(ino)) {
        RETURN_IF_ERROR(Reap(ino, "named by a pending intent"));
        continue;
      }
      Result<FileStat> stat = Home(ino)->Stat(ino);
      if (!stat.ok()) {
        RETURN_IF_ERROR(Reap(ino, "unstattable"));
        continue;
      }
      auto moved = rename_child_.find(ino);
      if (moved != rename_child_.end()) {
        const IntentRecord& in = *moved->second;
        if (TryAttach(in.to_dir, in.to_name, ino, stat->type, walk) ||
            TryAttach(in.from_dir, in.from_name, ino, stat->type, walk)) {
          continue;
        }
      }
      const uint32_t shard = PartOf(ino, shards_.size());
      ASSIGN_OR_RETURN(InodeNum lf, LostFound(shard));
      std::string name = "ino" + std::to_string(ino);
      for (int k = 1; EntryTarget(lf, name) != 0; ++k) {
        name = "ino" + std::to_string(ino) + "." + std::to_string(k);
      }
      RETURN_IF_ERROR(Edit(lf)->DirInsert(lf, name, ino, stat->type));
      ++report_.orphans_reattached;
      Note("reattached orphan ino " + std::to_string(ino) + " as lost+found." +
           std::to_string(shard) + "/" + name);
    }
    return OkStatus();
  }

  // Reattaches `ino` at (dir, name) if dir is a reachable directory and the
  // name is free. Returns false (untouched) otherwise.
  bool TryAttach(InodeNum dir, std::string_view name, InodeNum ino, FileType type,
                 const NamespaceWalk& walk) {
    if (dir == 0 || name.empty() || !Allocated(dir) || !walk.reachable.contains(dir) ||
        !IsDirectory(dir) || EntryTarget(dir, name) != 0) {
      return false;
    }
    if (!Edit(dir)->DirInsert(dir, name, ino, type).ok()) {
      return false;
    }
    ++report_.orphans_reattached;
    Note("reattached rename target ino " + std::to_string(ino) + " at dir " +
         std::to_string(dir) + " entry '" + std::string(name) + "'");
    return true;
  }

  // Root entry "lost+found.<shard>": found-or-created, homed on `shard` so
  // the orphan dirent insert stays shard-local.
  Result<InodeNum> LostFound(uint32_t shard) {
    const std::string name = "lost+found." + std::to_string(shard);
    const InodeNum existing = EntryTarget(kRootIno, name);
    if (existing != 0) {
      if (Allocated(existing) && IsDirectory(existing)) {
        return existing;
      }
      RETURN_IF_ERROR(Drop(kRootIno, name, "unusable lost+found"));
    }
    edited_.insert(shards_[shard]);
    ASSIGN_OR_RETURN(InodeNum ino, shards_[shard]->AllocInode(FileType::kDirectory, kRootIno));
    RETURN_IF_ERROR(Edit(kRootIno)->DirInsert(kRootIno, name, ino, FileType::kDirectory));
    ++report_.dirents_added;
    Note("created " + name + " (ino " + std::to_string(ino) + ")");
    return ino;
  }

  // --- Final exact nlink recount over the converged namespace ---
  Status RecountNlinks(const NamespaceWalk& walk) {
    for (const NamespaceWalk::WrongNlink& wrong : walk.wrong_nlinks) {
      RETURN_IF_ERROR(Edit(wrong.ino)->SetNlink(wrong.ino, wrong.expected));
      ++report_.nlinks_fixed;
      Note("recounted ino " + std::to_string(wrong.ino) + " nlink " +
           std::to_string(wrong.nlink) + " -> " + std::to_string(wrong.expected));
    }
    return OkStatus();
  }

  std::span<LfsFileSystem* const> shards_;
  std::span<const IntentRecord> pending_;
  RepairReport report_;
  std::unordered_set<InodeNum> reap_if_orphan_;
  std::unordered_map<InodeNum, const IntentRecord*> rename_child_;
  std::unordered_set<LfsFileSystem*> edited_;  // Each finished once, after the last edit.
};

}  // namespace

Result<RepairReport> RepairShardedNamespace(std::span<LfsFileSystem* const> shards,
                                            std::span<const IntentRecord> pending) {
  if (shards.empty()) {
    return InvalidArgumentError("no shards to repair");
  }
  return Repairer(shards, pending).Run();
}

}  // namespace logfs
