// Crash-consistency sweeps for the sharded multi-log (ctest -L crash).
//
// Three workloads, written as traces, run through the crash explorer
// (src/crashsim/explorer.h) on a 4-log rig. One RecordingDisk under the
// whole volume journals every shard's write stream and the intent region,
// and the explorer judges every crash image (prefix, torn {1, 8}, and
// reordered where a sweep asks), with boundaries pinned on both sides of
// every intent-region write, under both recovery modes, by the Oracle's
// rules (src/crashsim/oracle.h): the mount succeeds, CheckShardedLfs is
// clean, every path shows old-or-new around each op no barrier covers and
// all of what one covers (so a covered rename's source name is gone), and
// every fsynced inode reads back its bytes wherever a later rename took
// its name. The cross-shard sweep fails only where the router defect
// RenameSplitByAnFsyncLosesItsVictim pins loses a rename's victim. The
// self-test blanks the intent writes, as if the router never published,
// and each workload must then fail.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/crashsim/explorer.h"
#include "src/lfs/lfs_format.h"
#include "src/lfs/sharded_lfs.h"
#include "src/workload/testbed.h"
#include "src/workload/trace.h"
#include "tests/crash_reference.h"

namespace logfs {
namespace {

constexpr uint32_t kShards = 4;

ExploreRigParams ShardedRig() {
  ExploreRigParams rig;
  rig.sectors = 65536;  // 32 MB; 8 MB per shard.
  rig.lfs.max_inodes = 1024;
  rig.lfs.segment_size = 1 << 19;
  rig.lfs.clean_start_segments = 3;
  rig.lfs.clean_stop_segments = 5;
  rig.lfs.reserved_segments = 2;
  rig.lfs.shard_count = kShards;
  return rig;
}

// A workload written one trace line at a time against a scratch volume
// formatted like the rig, and as clock-less: inode numbers, and so the
// shards new directories land on, come out as they will when the explorer
// replays the trace.
class ShardedTrace {
 public:
  ShardedTrace() {
    const ExploreRigParams rig = ShardedRig();
    bed_.clock = std::make_unique<SimClock>();  // ReplayTrace's clock; the volume has none.
    bed_.disk = std::make_unique<MemoryDisk>(rig.sectors, /*clock=*/nullptr);
    EXPECT_TRUE(ShardedLfs::Format(bed_.disk.get(), rig.lfs, kShards).ok());
    auto mounted = ShardedLfs::Mount(bed_.disk.get(), /*clock=*/nullptr, /*cpu=*/nullptr);
    EXPECT_TRUE(mounted.ok()) << mounted.status().ToString();
    fs_ = mounted->get();
    bed_.fs = std::move(mounted).value();
    bed_.paths = std::make_unique<PathFs>(fs_);
  }

  // Appends one op and runs it on the scratch volume.
  void Add(const std::string& line) {
    auto op = ParseTrace(line);
    ASSERT_TRUE(op.ok() && op->size() == 1) << line;
    auto replayed = ReplayTrace(bed_, *op);
    ASSERT_TRUE(replayed.ok()) << line << ": " << replayed.status().ToString();
    ops_.push_back(op->front());
  }

  // Makes parent/prefix<i> for the first i whose shard satisfies `wanted`,
  // removing the misses again, and returns its path.
  template <typename Pred>
  std::string MkdirWhere(const std::string& parent, const std::string& prefix, Pred wanted) {
    for (int i = 0;; ++i) {
      const std::string path = parent + "/" + prefix + std::to_string(i);
      Add("mkdir " + path);
      if (wanted(ShardOf(path))) {
        return path;
      }
      Add("rmdir " + path);
    }
  }

  uint32_t ShardOf(const std::string& path) {
    auto ino = bed_.paths->Resolve(path);
    EXPECT_TRUE(ino.ok()) << path;
    return fs_->ShardOf(ino.value_or(kRootIno));
  }

  // Creates `path` and writes `length` bytes of TracePayload(seed) to it.
  void File(const std::string& path, int length, int seed) {
    Add("create " + path);
    Add("write " + path + " 0 " + std::to_string(length) + " " + std::to_string(seed));
  }

  // Op indices count from 1, as the model's do: the last op's is ops().size().
  const std::vector<TraceOp>& ops() const { return ops_; }

 private:
  Testbed bed_;
  ShardedLfs* fs_ = nullptr;
  std::vector<TraceOp> ops_;
};

std::string Num(int i) { return std::to_string(i); }

// Creates, writes and fsyncs spread over four directories, with
// short-lived temporaries and cross-directory renames (one of an fsynced
// file), a mid-run sync and a final one. A sync stands in for a checkpoint:
// both retire the intents they cover.
std::vector<TraceOp> BasicWorkload() {
  ShardedTrace t;
  for (int d = 0; d < 4; ++d) {
    t.Add("mkdir /d" + Num(d));
  }
  t.Add("sync");
  for (int i = 0; i < 40; ++i) {
    const std::string dir = "/d" + Num(i % 4);
    const std::string file = dir + "/f" + Num(i);
    t.File(file, 4096 * (1 + i % 3), i);
    if (i % 4 == 0) {
      t.Add("fsync " + file);
    }
    if (i % 7 == 3) {
      const std::string tmp = dir + "/tmp" + Num(i);
      t.File(tmp, 4096, 100 + i);
      t.Add("unlink " + tmp);
    }
    if (i % 9 == 5) {
      // Cross-directory, and so cross-shard, rename of a file.
      t.Add("rename " + file + " /d" + Num((i + 1) % 4) + "/f" + Num(i) + "x");
    }
    if (i == 17) {
      t.Add("sync");
    }
  }
  EXPECT_NE(t.ShardOf("/d0"), t.ShardOf("/d1")) << "f32 is fsynced, then renamed d0 -> d1";
  t.Add("sync");
  return t.ops();
}

// Ops whose halves land on different shard logs, the ops the intent log
// makes crash-atomic:
//   * directory creates under root (FNV placement spreads them),
//   * cross-directory renames of files, with and without a victim,
//   * cross-shard hard links, then unlinks of the original name,
//   * subdirectory create, reparent and rmdir,
//   * two moves of a non-empty directory to another parent, the first
//     followed by an Fsync of the file inside it.
// A mid-run sync retires the first wave of intents, so the journal holds
// its retire marker and later publishes whose masks carry the same
// retirements; the tail leaves several intents unretired until the
// unmount's marker.
std::vector<TraceOp> CrossShardWorkload() {
  ShardedTrace t;
  for (int d = 0; d < 6; ++d) {
    t.Add("mkdir /d" + Num(d));
  }
  t.Add("sync");
  auto dir = [](int d) { return "/d" + Num(d % 6); };
  for (int i = 0; i < 24; ++i) {
    const std::string name = "f" + Num(i);
    const std::string file = dir(i) + "/" + name;
    t.File(file, 4096, i);
    switch (i % 6) {
      case 0:
        t.Add("rename " + file + " " + dir(i + 1) + "/" + name + "x");
        break;
      case 1:
        t.Add("create " + dir(i + 2) + "/" + name + "v");
        t.Add("rename " + file + " " + dir(i + 2) + "/" + name + "v");
        break;
      case 2:
        t.Add("link " + file + " " + dir(i + 3) + "/" + name + "h");
        t.Add("unlink " + file);
        break;
      case 3: {
        const std::string sub = "/sub" + Num(i);
        t.Add("mkdir " + dir(i) + sub);
        t.Add("rename " + dir(i) + sub + " " + dir(i + 4) + sub);
        t.Add("rmdir " + dir(i + 4) + sub);
        break;
      }
      case 4:
        if (i == 4 || i == 16) {
          const std::string moved = "/m" + Num(i);
          t.Add("mkdir " + dir(i) + moved);
          t.File(dir(i) + moved + "/a", 8192, 200 + i);
          t.Add("rename " + dir(i) + moved + " " + dir(i + 1) + moved);
          if (i == 4) {
            t.Add("fsync " + dir(i + 1) + moved + "/a");
          }
        }
        break;
      default:
        break;
    }
    if (i == 11) {
      t.Add("sync");
    }
  }
  return t.ops();
}

// Renames that stay on one shard, each group followed by an Fsync:
//   1. a file renamed in place;
//   2. a file moved to another directory on its shard, then renamed there;
//   3. a directory moved between two directories of one shard;
//   4. a file renamed over a victim in its directory;
//   5. a cross-shard round trip, then one rename in place.
// A sync after group 3 retires what was published so far. Only directory
// creates and removals that land off their parent's shard publish intents
// (the set-up's, and group 3's search for a subdirectory on the shard),
// and group 5: the round trip's two, and the in-place rename's, because
// those pending intents name its inode.
struct SameShardWorkload {
  std::vector<TraceOp> ops;
  // (op index, source path) of each same-shard rename.
  std::vector<std::pair<size_t, std::string>> moved;
};

SameShardWorkload SameShardRenames() {
  ShardedTrace t;
  SameShardWorkload w;
  const std::string b = t.MkdirWhere("", "b", [](uint32_t) { return true; });
  const uint32_t s = t.ShardOf(b);
  auto rename = [&](const std::string& from, const std::string& to, bool same_shard) {
    t.Add("rename " + from + " " + to);
    if (same_shard) {
      w.moved.emplace_back(t.ops().size(), from);
      EXPECT_EQ(t.ShardOf(to), s) << to;
    }
  };
  const std::string c = t.MkdirWhere("", "c", [s](uint32_t x) { return x == s; });
  const std::string d = t.MkdirWhere("", "d", [s](uint32_t x) { return x != s; });
  t.Add("sync");

  t.File(b + "/f1", 4096, 1);
  rename(b + "/f1", b + "/g1", true);
  t.Add("fsync " + b + "/g1");

  t.File(b + "/f2", 4096, 2);
  rename(b + "/f2", c + "/f2", true);
  rename(c + "/f2", c + "/g2", true);
  t.Add("fsync " + c + "/g2");

  const std::string sub = t.MkdirWhere(b, "sub", [s](uint32_t x) { return x == s; });
  rename(sub, c + "/moved", true);
  t.Add("fsync " + c + "/moved");
  t.Add("sync");

  t.File(b + "/f4", 4096, 4);
  t.File(b + "/v4", 4096, 5);
  rename(b + "/f4", b + "/v4", true);
  t.Add("fsync " + b + "/v4");

  t.File(b + "/f5", 4096, 6);
  rename(b + "/f5", d + "/f5", false);
  rename(d + "/f5", b + "/f5", false);
  rename(b + "/f5", b + "/g5", true);
  t.Add("fsync " + b + "/g5");
  t.Add("fsync " + d);
  w.ops = t.ops();
  return w;
}

CrashRecording Record(const std::vector<TraceOp>& workload) {
  auto recording = RecordCrashWorkload(workload, ShardedRig());
  EXPECT_TRUE(recording.ok()) << recording.status().ToString();
  return recording.ok() ? std::move(recording).value() : CrashRecording{};
}

// Every boundary, torn {1, 8}, both mount modes.
ExploreReport Judge(const CrashRecording& recording, bool reorder) {
  CrashEnumerationBudget budget;
  budget.torn_variants = {1, 8};
  budget.reorder_within_epoch = reorder;
  auto report = JudgeCrashStates(recording, budget, ShardedRig().mount_options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).value() : ExploreReport{};
}

// The router defect RenameSplitByAnFsyncLosesItsVictim pins: every
// violation is a roll-forward state in which a rename's victim, a path
// that `victim` matches, is absent. A sweep that shows nothing else is
// clean once the router is fixed.
void ExpectOnlyLostVictims(const ExploreReport& report, const std::string& victim) {
  const std::regex lost("^" + victim + ": observed absent");
  for (const CrashStateResult& result : report.results) {
    for (const std::string& violation : result.verdict.violations) {
      EXPECT_TRUE(result.roll_forward && std::regex_search(violation, lost))
          << result.plan.Describe() << ": " << violation;
    }
  }
}

// The first sector of the intent region, from the formatted superblock.
uint64_t IntentStart(const CrashRecording& recording) {
  if (recording.base_image.size() < 4096) {
    return 0;  // Record already failed the test.
  }
  auto sb = DecodeLfsSuperblock(std::span<const std::byte>(recording.base_image).first(4096));
  EXPECT_TRUE(sb.ok() && sb->has_intent_region());
  return sb.ok() ? sb->intent_start_sector : 0;
}

TEST(ShardedCrashTest, BasicWorkloadAtEveryCrashPoint) {
  const std::vector<TraceOp> workload = BasicWorkload();
  const CrashRecording recording = Record(workload);
  ASSERT_GT(recording.writes.size(), 20u);

  // The streams really interleave: the journal touches several slices.
  const uint64_t intents = IntentStart(recording);
  std::set<uint64_t> slices;
  for (const WriteRecord& w : recording.writes) {
    if (w.first < intents) {
      slices.insert(w.first / (intents / kShards));
    }
  }
  EXPECT_GE(slices.size(), 3u) << "journal does not interleave multiple shard streams";

  const ExploreReport report = Judge(recording, /*reorder=*/false);
  EXPECT_EQ(report.failed_states, 0u) << report.Violations();

  // The journal up to the final sync mounts with nothing to reconcile: the
  // sync retired every intent.
  const size_t synced = recording.model.marks()[workload.size()].writes_after;
  size_t fsynced_checked = 0;
  size_t synced_mounts = 0;
  for (const CrashStateResult& result : report.results) {
    fsynced_checked += result.verdict.fsynced_checked;
    if (result.plan.prefix == synced && result.plan.torn_sectors == 0 &&
        result.plan.dropped == CrashPlan::kNoDrop) {
      ++synced_mounts;
      EXPECT_FALSE(result.verdict.reconciled) << "fully synced journal left pending intents";
    }
  }
  EXPECT_EQ(synced_mounts, 2u);  // One per mount mode.
  EXPECT_GT(fsynced_checked, 0u);
}

TEST(ShardedCrashTest, CrossShardOpsAtEveryCrashPoint) {
  const CrashRecording recording = Record(CrossShardWorkload());
  const uint64_t intents = IntentStart(recording);
  const size_t intent_writes =
      std::count_if(recording.writes.begin(), recording.writes.end(),
                    [&](const WriteRecord& w) { return w.first >= intents; });
  ASSERT_GT(intent_writes, 4u) << "workload published no cross-shard intents";

  const ExploreReport report = Judge(recording, /*reorder=*/true);
  EXPECT_GT(report.plans, 2 * intent_writes);
  // The Fsync after the first directory move flushes /d3's log, and with it
  // one half of the unsynced rename over /d3/f1v: the sweep's failures are
  // that defect's and no other.
  ExpectOnlyLostVictims(report, "/d3/f[0-9]+v");
  // The sweep exercised reconciliation, not just already-clean images.
  const size_t reconciled =
      std::count_if(report.results.begin(), report.results.end(),
                    [](const CrashStateResult& r) { return r.verdict.reconciled; });
  EXPECT_GT(reconciled, 0u);
}

TEST(ShardedCrashTest, SameShardRenamesAtEveryCrashPoint) {
  const SameShardWorkload workload = SameShardRenames();
  ASSERT_EQ(workload.moved.size(), 6u);
  const CrashRecording recording = Record(workload.ops);
  const ExploreReport report = Judge(recording, /*reorder=*/true);
  EXPECT_GT(report.plans, recording.writes.size());
  EXPECT_EQ(report.failed_states, 0u) << report.Violations();

  // The states in which a rename's source path is durably gone: the judge
  // checked each of them.
  const Oracle oracle(&recording.model);
  size_t covered = 0;
  for (const CrashStateResult& result : report.results) {
    for (const auto& [op, source] : workload.moved) {
      covered += oracle.DurableFloor(source, result.plan.prefix, result.roll_forward) >= op;
    }
  }
  EXPECT_GT(covered, 0u);
}

// The sweeps' self-test: with every intent-region write holding what the
// formatted region held (as if the router never published), each workload
// must fail somewhere.
TEST(ShardedCrashTest, OracleCatchesARouterThatNeverPublishes) {
  const std::pair<std::vector<TraceOp>, bool> sweeps[] = {
      {BasicWorkload(), false}, {CrossShardWorkload(), true}, {SameShardRenames().ops, true}};
  for (const auto& [workload, reorder] : sweeps) {
    CrashRecording recording = Record(workload);
    const uint64_t intents = IntentStart(recording);
    for (WriteRecord& w : recording.writes) {
      if (w.first >= intents) {
        const auto base = recording.base_image.begin() + w.first * kSectorSize;
        std::copy(base, base + w.data.size(), w.data.begin());
      }
    }
    const ExploreReport report = Judge(recording, reorder);
    EXPECT_GT(report.failed_states, 0u) << report.Summary();
  }
}

// A defect of the router the per-path rule sees and CheckShardedLfs does
// not (ROADMAP item 11). /b0/v is synced; an unsynced cross-shard rename
// replaces it with a new file from /a0; then an Fsync of another file on
// /b0's shard flushes that shard's whole dirty set, and with it the
// rename's half there: /b0/v names the new file and the victim is freed.
// The new file's inode on /a0's shard never reached the log, so
// reconciliation finds the rename's child missing and drops the entry:
// /b0/v shows neither its synced state nor the rename's. When a shard's
// flush no longer makes one half of a rename durable before its child is,
// this sweep is clean and the expectation below flips.
TEST(ShardedCrashTest, RenameSplitByAnFsyncLosesItsVictim) {
  ShardedTrace t;
  t.Add("mkdir /a0");
  const uint32_t a = t.ShardOf("/a0");
  const std::string b = t.MkdirWhere("", "b", [a](uint32_t s) { return s != a; });
  t.Add("create " + b + "/v");
  t.Add("create " + b + "/w");
  t.Add("sync");
  t.Add("create /a0/x");
  t.Add("write /a0/x 0 4096 1");
  t.Add("rename /a0/x " + b + "/v");
  t.Add("fsync " + b + "/w");
  const ExploreReport report = Judge(Record(t.ops()), /*reorder=*/false);
  EXPECT_GT(report.violations, 0u);
  ExpectOnlyLostVictims(report, b + "/v");
}

// Two sweeps' journals, every plan: each copy-on-write image reads back
// exactly as a full replay of its plan.
TEST(ShardedCrashTest, EveryPlanMatchesFullReplay) {
  for (const std::vector<TraceOp>& workload : {BasicWorkload(), CrossShardWorkload()}) {
    const CrashRecording recording = Record(workload);
    const size_t plans = ExpectImagesMatchReplay(recording.base_image, recording.writes);
    EXPECT_GT(plans, recording.writes.size());
  }
}

}  // namespace
}  // namespace logfs
