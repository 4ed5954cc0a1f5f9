// The two single-log workloads: smallfile (namespace-heavy, fits in the
// cache, CPU-bound) and churn (hot/cold overwrites of a volume filled to
// 70%, larger than the cache, cleaner-bound). Both drive one client in a
// closed loop through TimedFs over an LfsFileSystem over TimedDisk over the
// simulated WREN IV MemoryDisk, calling Tick() between ops.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/timed.h"
#include "src/disk/memory_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/lfs_check.h"
#include "src/lfs/lfs_file_system.h"
#include "src/sim/cpu_model.h"
#include "src/sim/sim_clock.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using logfs::InodeNum;
using logfs::LfsFileSystem;
using logfs::Status;

constexpr size_t kBlock = 4096;

// One simulated machine: the paper's 10-MIPS CPU and WREN IV disk, an LFS
// with default options, and the timing decorators around both.
struct LfsRig {
  std::unique_ptr<logfs::SimClock> clock;
  std::unique_ptr<logfs::CpuModel> cpu;
  std::unique_ptr<logfs::MemoryDisk> disk;
  std::unique_ptr<TimedDisk> timed_disk;
  std::unique_ptr<LfsFileSystem> lfs;
  std::unique_ptr<TimedFs> fs;
  std::unique_ptr<logfs::PathFs> paths;
};

logfs::Result<std::unique_ptr<LfsRig>> MakeRig(uint64_t disk_bytes) {
  auto rig = std::make_unique<LfsRig>();
  rig->clock = std::make_unique<logfs::SimClock>();
  rig->cpu = std::make_unique<logfs::CpuModel>(rig->clock.get(), 10.0);
  rig->disk = std::make_unique<logfs::MemoryDisk>(disk_bytes / logfs::kSectorSize,
                                                  rig->clock.get());
  RETURN_IF_ERROR(LfsFileSystem::Format(rig->disk.get(), logfs::LfsParams{}));
  rig->timed_disk = std::make_unique<TimedDisk>(rig->disk.get());
  ASSIGN_OR_RETURN(rig->lfs, LfsFileSystem::Mount(rig->timed_disk.get(), rig->clock.get(),
                                                  rig->cpu.get()));
  LfsFileSystem* lfs = rig->lfs.get();
  rig->fs = std::make_unique<TimedFs>(lfs, [lfs] {
    const LfsFileSystem::CleanerStats& c = lfs->cleaner_stats();
    return TimedFs::Progress{c.passes + c.segments_cleaned + c.blocks_examined,
                             lfs->checkpoint_count()};
  });
  rig->paths = std::make_unique<logfs::PathFs>(rig->fs.get());
  return rig;
}

LayerCounters ReadCounters(const LfsRig& rig) {
  LayerCounters c;
  c.AddLog(*rig.lfs);
  c.disk = rig.disk->stats();
  c.ReadIoCounters();
  return c;
}

// Bookkeeping shared by both drivers: op timing, the count window, and the
// per-layer counter snapshots around it.
class Phase {
 public:
  Phase(const RunConfig& cfg, uint64_t count_ops, LfsRig* rig, RunReport* report)
      : cfg_(cfg), count_target_(count_ops), rig_(rig), report_(report) {}

  void Start() {
    start_counters_ = ReadCounters(*rig_);
    sim_start_ = rig_->clock->Now();
    SetSpansEnabled(cfg_.trace);
    start_ = HostNow();
    deadline_ = start_ + cfg_.seconds;
  }

  // True while the loop should issue more ops; closes the count window at
  // the first check after count_target_ ops.
  bool Continue() {
    if (!counting_) return HostNow() < deadline_;
    if (report_->ops < count_target_) return true;
    counting_ = false;
    report_->count_ops = report_->ops;
    report_->sim_seconds = rig_->clock->Now() - sim_start_;
    end_counters_ = ReadCounters(*rig_);
    report_->device_bytes =
        DiskDelta(end_counters_.disk, start_counters_.disk).sectors_written * logfs::kSectorSize;
    return HostNow() < deadline_;
  }

  void Finish() {
    report_->measured_s = HostNow() - start_;
    SetSpansEnabled(false);
    if (cfg_.trace) {
      AddLayerMetrics(end_counters_.Minus(start_counters_), RollupSpans(), report_->measured_s,
                      /*sharded=*/false, report_);
    }
  }

  // Runs one workload op; its simulated latency counts while the count
  // window is open.
  template <typename F>
  auto Op(SpanName span, LatClass cls, F&& f) -> decltype(f()) {
    return TimeOp(span, cls, *rig_->clock, counting_, report_, std::forward<F>(f));
  }

  // Background work between ops. Its simulated time is charged to the op
  // before it: a closed-loop client waits for it before issuing the next.
  void Tick() {
    ScopedSpan s(SpanName::kOpTick);
    const double sim0 = rig_->clock->Now();
    ++report_->attempted;
    if (Status st = rig_->fs->Tick(); !st.ok()) report_->OpFailed(st, "tick");
    if (counting_) report_->sim_ms.AddToLast((rig_->clock->Now() - sim0) * 1e3);
  }

  void AddUserBytes(uint64_t bytes) {
    if (counting_) report_->user_bytes += bytes;
  }

 private:
  const RunConfig& cfg_;
  uint64_t count_target_;
  LfsRig* rig_;
  RunReport* report_;
  bool counting_ = true;
  double start_ = 0.0;
  double deadline_ = 0.0;
  double sim_start_ = 0.0;
  LayerCounters start_counters_;
  LayerCounters end_counters_;
};

void CheckLog(LfsRig& rig, RunReport* report) {
  if (Status st = rig.lfs->Sync(); !st.ok()) {
    report->Problem("final sync: " + st.ToString());
    return;
  }
  auto check = logfs::LfsChecker(rig.lfs.get()).Check(/*verify_data=*/true);
  if (!check.ok()) {
    report->Problem("LfsChecker: " + check.status().ToString());
  } else if (!check->ok()) {
    report->Problem("LfsChecker: " + check->Summary());
  }
}

// ---------------------------------------------------------------- smallfile

constexpr uint32_t kSmallDirs = 50;
constexpr size_t kSmallLive = 2000;
constexpr uint64_t kSmallCountOps = 40000;

struct SmallFile {
  uint64_t id = 0;
  uint64_t version = 0;
  uint32_t dir = 0;
  uint32_t size = 0;
  uint32_t renames = 0;
  InodeNum ino = 0;
};

std::string SmallPath(const SmallFile& f) {
  return "/d" + std::to_string(f.dir) + "/f" + std::to_string(f.id) + "." +
         std::to_string(f.renames);
}

class SmallfileDriver {
 public:
  explicit SmallfileDriver(uint64_t seed) : rng_(seed) {}

  Status Setup(LfsRig& rig) {
    for (uint32_t d = 0; d < kSmallDirs; ++d) {
      auto made = rig.paths->Mkdir("/d" + std::to_string(d));
      if (!made.ok()) return made.status();
    }
    while (live_.size() < kSmallLive) {
      SmallFile f = NewFile();
      const std::string path = SmallPath(f);
      auto ino = rig.paths->CreateFile(path);
      if (!ino.ok()) return ino.status();
      f.ino = *ino;
      Fill(f);
      auto wrote = rig.fs->Write(f.ino, 0, buf_);
      if (!wrote.ok()) return wrote.status();
      live_.push_back(f);
    }
    return rig.lfs->Sync();
  }

  void Run(const RunConfig& cfg, LfsRig& rig, RunReport* report) {
    Phase phase(cfg, cfg.count_ops > 0 ? cfg.count_ops : kSmallCountOps, &rig, report);
    phase.Start();
    while (phase.Continue()) {
      Step(rig, phase, report);
      phase.Tick();
    }
    phase.Finish();
  }

  // Reads every live file back and compares it with the model.
  void Verify(LfsRig& rig, RunReport* report) {
    for (const SmallFile& f : live_) {
      auto got = rig.paths->ReadFile(SmallPath(f));
      if (!got.ok()) {
        report->Problem("final read " + SmallPath(f) + ": " + got.status().ToString());
        continue;
      }
      CheckContent(f, *got, report);
    }
  }

 private:
  SmallFile NewFile() {
    SmallFile f;
    f.id = next_id_++;
    f.dir = static_cast<uint32_t>(rng_.NextBelow(kSmallDirs));
    f.size = static_cast<uint32_t>(512 * rng_.NextInRange(1, 16));
    return f;
  }

  void Fill(const SmallFile& f) {
    buf_.resize(f.size);
    FillFile(f.id, f.version, buf_);
  }

  void CheckContent(const SmallFile& f, const std::vector<std::byte>& got, RunReport* report) {
    Fill(f);
    if (got.size() != buf_.size() || std::memcmp(got.data(), buf_.data(), buf_.size()) != 0) {
      report->Problem("content mismatch in " + SmallPath(f));
    }
  }

  // Drops file `i` from the model after a failed op left its state unknown.
  void Forget(size_t i) {
    live_[i] = live_.back();
    live_.pop_back();
  }

  void WriteFile(LfsRig& rig, Phase& phase, RunReport* report, size_t i) {
    SmallFile& f = live_[i];
    Fill(f);
    auto wrote =
        phase.Op(SpanName::kOpWrite, LatClass::kWrite, [&] { return rig.fs->Write(f.ino, 0, buf_); });
    if (!wrote.ok()) {
      report->OpFailed(wrote.status(), "write");
      Forget(i);
      return;
    }
    phase.AddUserBytes(buf_.size());
    if (++writes_ % 4 == 0) {
      const InodeNum ino = f.ino;
      Status st =
          phase.Op(SpanName::kOpFsync, LatClass::kFsync, [&] { return rig.fs->Fsync(ino); });
      if (!st.ok()) report->OpFailed(st, "fsync");
    }
  }

  void Step(LfsRig& rig, Phase& phase, RunReport* report) {
    const double u = rng_.NextDouble();
    const bool grow = live_.size() < kSmallLive * 97 / 100;
    const bool shrink = live_.size() > kSmallLive * 103 / 100;
    if (grow || (!shrink && u < 0.15)) {
      SmallFile f = NewFile();
      const std::string path = SmallPath(f);
      auto ino = phase.Op(SpanName::kOpCreate, LatClass::kMeta, [&] {
        ScopedSpan p(SpanName::kPath);
        return rig.paths->CreateFile(path);
      });
      if (!ino.ok()) {
        report->OpFailed(ino.status(), "create");
        return;
      }
      f.ino = *ino;
      live_.push_back(f);
      WriteFile(rig, phase, report, live_.size() - 1);
      return;
    }
    const size_t i = rng_.NextBelow(live_.size());
    SmallFile& f = live_[i];
    if (shrink || u < 0.30) {
      const std::string path = SmallPath(f);
      Status st = phase.Op(SpanName::kOpUnlink, LatClass::kMeta, [&] {
        ScopedSpan p(SpanName::kPath);
        return rig.paths->Unlink(path);
      });
      if (!st.ok()) report->OpFailed(st, "unlink");
      Forget(i);
    } else if (u < 0.40) {
      const std::string from = SmallPath(f);
      SmallFile moved = f;
      moved.dir = static_cast<uint32_t>(rng_.NextBelow(kSmallDirs));
      ++moved.renames;
      const std::string to = SmallPath(moved);
      Status st = phase.Op(SpanName::kOpRename, LatClass::kMeta, [&] {
        ScopedSpan p(SpanName::kPath);
        return rig.paths->Rename(from, to);
      });
      if (!st.ok()) {
        report->OpFailed(st, "rename");
        Forget(i);
        return;
      }
      f = moved;
    } else if (u < 0.75) {
      const std::string path = SmallPath(f);
      auto got = phase.Op(SpanName::kOpRead, LatClass::kRead, [&] {
        ScopedSpan p(SpanName::kPath);
        return rig.paths->ReadFile(path);
      });
      if (!got.ok()) {
        report->OpFailed(got.status(), "read");
        Forget(i);
        return;
      }
      CheckContent(f, *got, report);
    } else {
      ++f.version;
      WriteFile(rig, phase, report, i);
    }
  }

  logfs::Rng rng_;
  uint64_t next_id_ = 0;
  uint64_t writes_ = 0;
  std::vector<SmallFile> live_;
  std::vector<std::byte> buf_;
};

// -------------------------------------------------------------------- churn

constexpr uint64_t kChurnDiskBytes = 256ull << 20;
constexpr uint32_t kChurnDirs = 64;
constexpr size_t kChurnFileBlocks = 8;  // 32 KB files
constexpr double kChurnLiveFraction = 0.70;
constexpr double kChurnReadShare = 0.30;
constexpr double kChurnRenameShare = 0.03;
constexpr uint64_t kChurnCountOps = 40000;

class ChurnDriver {
 public:
  explicit ChurnDriver(uint64_t seed) : rng_(seed) {}

  Status Setup(LfsRig& rig) {
    const uint64_t files = static_cast<uint64_t>(kChurnLiveFraction *
                                                 static_cast<double>(rig.lfs->UsableBytes())) /
                           (kChurnFileBlocks * kBlock);
    inos_.assign(files, 0);
    renames_.assign(files, 0);
    versions_.assign(files * kChurnFileBlocks, 0);
    hot_ = std::max<uint64_t>(1, files / 10);
    for (uint32_t d = 0; d < kChurnDirs; ++d) {
      auto made = rig.paths->Mkdir("/c" + std::to_string(d));
      if (!made.ok()) return made.status();
    }
    buf_.resize(kChurnFileBlocks * kBlock);
    for (uint64_t i = 0; i < files; ++i) {
      auto ino = rig.paths->CreateFile(Path(i));
      if (!ino.ok()) return ino.status();
      inos_[i] = *ino;
      FillBlocks(i, 0, kChurnFileBlocks);
      auto wrote = rig.fs->Write(inos_[i], 0, buf_);
      if (!wrote.ok()) return wrote.status();
    }
    return rig.lfs->Sync();
  }

  void Run(const RunConfig& cfg, LfsRig& rig, RunReport* report) {
    Phase phase(cfg, cfg.count_ops > 0 ? cfg.count_ops : kChurnCountOps, &rig, report);
    phase.Start();
    while (phase.Continue()) {
      Step(rig, phase, report);
      phase.Tick();
    }
    phase.Finish();
  }

  void Verify(LfsRig& rig, RunReport* report) {
    for (uint64_t i = 0; i < inos_.size(); ++i) {
      if (inos_[i] == 0) continue;
      auto got = rig.lfs->Read(inos_[i], 0, buf_);
      if (!got.ok() || *got != buf_.size()) {
        report->Problem("final read of file " + std::to_string(i) + " failed");
        continue;
      }
      CheckContent(i, report);
    }
  }

 private:
  std::string Path(uint64_t i) const {
    return "/c" + std::to_string(i % kChurnDirs) + "/f" + std::to_string(i) + "." +
           std::to_string(renames_[i]);
  }

  // Fills buf_[0, count blocks) with the model's content of blocks
  // [first, first + count) of file i.
  void FillBlocks(uint64_t i, size_t first, size_t count) {
    for (size_t b = 0; b < count; ++b) {
      FillBlock(i, first + b, versions_[i * kChurnFileBlocks + first + b],
                std::span(buf_).subspan(b * kBlock, kBlock));
    }
  }

  void CheckContent(uint64_t i, RunReport* report) {
    expect_.resize(buf_.size());
    for (size_t b = 0; b < kChurnFileBlocks; ++b) {
      FillBlock(i, b, versions_[i * kChurnFileBlocks + b],
                std::span(expect_).subspan(b * kBlock, kBlock));
    }
    if (std::memcmp(expect_.data(), buf_.data(), buf_.size()) != 0) {
      report->Problem("content mismatch in file " + std::to_string(i));
    }
  }

  // Picks a file that has not been dropped from the model.
  uint64_t Pick(bool hot) {
    while (true) {
      const uint64_t i = hot ? rng_.NextBelow(hot_)
                             : hot_ + rng_.NextBelow(std::max<uint64_t>(1, inos_.size() - hot_));
      if (inos_[i] != 0) return i;
    }
  }

  void Step(LfsRig& rig, Phase& phase, RunReport* report) {
    const double u = rng_.NextDouble();
    if (u < kChurnReadShare) {
      const uint64_t i = rng_.NextBelow(inos_.size());
      if (inos_[i] == 0) return;
      auto got = phase.Op(SpanName::kOpRead, LatClass::kRead,
                          [&] { return rig.fs->Read(inos_[i], 0, buf_); });
      if (!got.ok()) {
        report->OpFailed(got.status(), "read");
        inos_[i] = 0;
        return;
      }
      if (*got != buf_.size()) {
        report->Problem("short read of file " + std::to_string(i));
        return;
      }
      CheckContent(i, report);
    } else if (u < kChurnReadShare + kChurnRenameShare) {
      const uint64_t i = Pick(rng_.NextBool(0.5));
      const std::string from = Path(i);
      ++renames_[i];
      const std::string to = Path(i);
      Status st = phase.Op(SpanName::kOpRename, LatClass::kMeta, [&] {
        ScopedSpan p(SpanName::kPath);
        return rig.paths->Rename(from, to);
      });
      if (!st.ok()) {
        report->OpFailed(st, "rename");
        inos_[i] = 0;
      }
    } else {
      const uint64_t i = Pick(rng_.NextBool(0.9));
      const size_t count = rng_.NextInRange(1, kChurnFileBlocks);
      const size_t first = rng_.NextBelow(kChurnFileBlocks - count + 1);
      for (size_t b = first; b < first + count; ++b) ++versions_[i * kChurnFileBlocks + b];
      FillBlocks(i, first, count);
      const std::span<const std::byte> data(buf_.data(), count * kBlock);
      auto wrote = phase.Op(SpanName::kOpWrite, LatClass::kWrite,
                            [&] { return rig.fs->Write(inos_[i], first * kBlock, data); });
      if (!wrote.ok()) {
        report->OpFailed(wrote.status(), "write");
        inos_[i] = 0;
        return;
      }
      phase.AddUserBytes(data.size());
      if (++writes_ % 16 == 0) {
        Status st = phase.Op(SpanName::kOpFsync, LatClass::kFsync,
                             [&] { return rig.fs->Fsync(inos_[i]); });
        if (!st.ok()) report->OpFailed(st, "fsync");
      }
    }
  }

  logfs::Rng rng_;
  uint64_t hot_ = 1;
  uint64_t writes_ = 0;
  std::vector<InodeNum> inos_;  // 0 = dropped from the model after a failure
  std::vector<uint32_t> renames_;
  std::vector<uint32_t> versions_;  // per file block
  std::vector<std::byte> buf_;
  std::vector<std::byte> expect_;
};

template <typename Driver>
void RunLfsWorkload(const RunConfig& cfg, uint64_t disk_bytes, RunReport* report) {
  std::unique_ptr<Driver> driver;
  std::unique_ptr<LfsRig> rig;
  const bool set_up = TimeSetups(cfg.setup_reps, report, [&]() -> Status {
    rig.reset();  // one volume in memory at a time
    ASSIGN_OR_RETURN(rig, MakeRig(disk_bytes));
    driver = std::make_unique<Driver>(cfg.seed);
    return driver->Setup(*rig);
  });
  if (!set_up) return;
  driver->Run(cfg, *rig, report);
  driver->Verify(*rig, report);
  CheckLog(*rig, report);
}

}  // namespace

void RunSmallfile(const RunConfig& cfg, RunReport* report) {
  RunLfsWorkload<SmallfileDriver>(cfg, 300ull << 20, report);
}

void RunChurn(const RunConfig& cfg, RunReport* report) {
  RunLfsWorkload<ChurnDriver>(cfg, kChurnDiskBytes, report);
}

}  // namespace perfbench
