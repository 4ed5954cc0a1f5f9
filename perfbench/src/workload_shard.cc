// shard_mt: ShardedLfs with 4 logs driven by min(4, nproc) threads, each in
// its own directory pair (the pair straddles two shards, so renames between
// them are cross-shard). The device sleeps the modelled service time of
// every request, so flushes on different shards overlap in wall time.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/timed.h"
#include "src/disk/memory_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/sharded_lfs.h"
#include "src/sim/cpu_model.h"
#include "src/sim/sim_clock.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using logfs::InodeNum;
using logfs::Status;

constexpr uint32_t kShards = 4;
constexpr uint32_t kMaxThreads = 4;
constexpr uint64_t kDiskBytes = 128ull << 20;
constexpr size_t kMaxFiles = 64;   // per thread
constexpr size_t kMinFiles = 40;
constexpr uint32_t kFsyncEvery = 8;
// Each thread calls Tick() after every 4th op: about one Tick per op across
// four threads, so background write-back and cleaning run in small steps.
constexpr uint32_t kTickEvery = 4;

// 250 us per request plus transfer at 200 MB/s, slept on the calling
// thread after the in-memory transfer (no lock held).
class SleepDisk : public logfs::BlockDevice {
 public:
  explicit SleepDisk(logfs::BlockDevice* base) : base_(base) {}

  Status ReadSectors(uint64_t first, std::span<std::byte> out,
                     logfs::IoOptions options = {}) override {
    Status s = base_->ReadSectors(first, out, options);
    Sleep(out.size());
    return s;
  }
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      logfs::IoOptions options = {}) override {
    Status s = base_->WriteSectors(first, data, options);
    Sleep(data.size());
    return s;
  }
  Status ReadSectorsV(uint64_t first, std::span<const std::span<std::byte>> bufs,
                      logfs::IoOptions options = {}) override {
    Status s = base_->ReadSectorsV(first, bufs, options);
    Sleep(logfs::IoVecBytes(bufs));
    return s;
  }
  Status WriteSectorsV(uint64_t first, std::span<const std::span<const std::byte>> bufs,
                       logfs::IoOptions options = {}) override {
    Status s = base_->WriteSectorsV(first, bufs, options);
    Sleep(logfs::IoVecBytes(bufs));
    return s;
  }
  Status Flush() override { return base_->Flush(); }
  uint64_t sector_count() const override { return base_->sector_count(); }
  const logfs::DiskStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  static void Sleep(size_t bytes) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(250e-6 + static_cast<double>(bytes) / 200e6));
  }
  logfs::BlockDevice* base_;
};

struct ShardRig {
  std::unique_ptr<logfs::SimClock> clock;
  std::unique_ptr<logfs::CpuModel> cpu;
  std::unique_ptr<logfs::MemoryDisk> disk;
  std::unique_ptr<SleepDisk> sleep_disk;
  std::unique_ptr<TimedDisk> timed_disk;
  std::unique_ptr<logfs::ShardedLfs> sfs;
  std::unique_ptr<TimedFs> fs;
};

struct ShardFile {
  uint64_t id = 0;
  uint64_t version = 0;
  uint32_t size = 0;
  uint32_t renames = 0;
};

// One thread's closed loop and its private model of its two directories.
class Worker {
 public:
  Worker(uint32_t index, uint64_t seed, logfs::FileSystem* fs)
      : index_(index), rng_(seed * 1000003 + index), paths_(fs), fs_(fs) {}

  Status Setup(logfs::ShardedLfs* sfs) {
    home_ = "/t" + std::to_string(index_);
    auto home = paths_.Mkdir(home_);
    if (!home.ok()) return home.status();
    // A second directory on another shard: files are placed with their
    // parent, so a rename between the two moves a dirent across logs.
    for (int k = 0;; ++k) {
      std::string name = home_ + "x" + std::to_string(k);
      auto dir = paths_.Mkdir(name);
      if (!dir.ok()) return dir.status();
      if (sfs->ShardOf(*dir) != sfs->ShardOf(*home)) {
        other_ = name;
        break;
      }
    }
    while (files_.size() < kMinFiles) {
      if (Status st = CreateFile(nullptr); !st.ok()) return st;
    }
    return logfs::OkStatus();
  }

  void Run(logfs::SimClock* clock, double deadline, RunReport* report) {
    clock_ = clock;
    report_ = report;
    while (HostNow() < deadline) {
      Step();
      if (++steps_ % kTickEvery == 0) {
        ScopedSpan s(SpanName::kOpTick);
        ++report_->attempted;
        if (Status st = fs_->Tick(); !st.ok()) report_->OpFailed(st, "tick");
      }
    }
  }

  void Verify(RunReport* report) {
    for (const ShardFile& f : files_) {
      auto got = paths_.ReadFile(Path(home_, f));
      if (!got.ok()) {
        report->Problem("final read " + Path(home_, f) + ": " + got.status().ToString());
        continue;
      }
      Fill(f);
      if (*got != buf_) report->Problem("content mismatch in " + Path(home_, f));
    }
  }

  uint64_t cross_ops() const { return cross_ops_; }

 private:
  static std::string Path(const std::string& dir, const ShardFile& f) {
    return dir + "/f" + std::to_string(f.id) + "." + std::to_string(f.renames);
  }
  void Fill(const ShardFile& f) {
    buf_.resize(f.size);
    FillFile(f.id * kMaxThreads + index_, f.version, buf_);  // ids unique across threads
  }

  template <typename F>
  auto Op(SpanName span, LatClass cls, F&& f) -> decltype(f()) {
    return TimeOp(span, cls, *clock_, /*record_sim=*/true, report_, std::forward<F>(f));
  }

  // `report` null = set-up (untimed).
  Status CreateFile(RunReport* report) {
    ShardFile f;
    f.id = next_id_++;
    f.size = static_cast<uint32_t>(4096 * rng_.NextInRange(1, 4));
    const std::string path = Path(home_, f);
    logfs::Result<InodeNum> ino = report == nullptr
                                      ? paths_.CreateFile(path)
                                      : Op(SpanName::kOpCreate, LatClass::kMeta, [&] {
                                          ScopedSpan p(SpanName::kPath);
                                          return paths_.CreateFile(path);
                                        });
    if (!ino.ok()) return ino.status();
    files_.push_back(f);
    inos_.push_back(*ino);
    return WriteFile(files_.size() - 1, report);
  }

  Status WriteFile(size_t i, RunReport* report) {
    Fill(files_[i]);
    const InodeNum ino = inos_[i];
    auto wrote = report == nullptr ? fs_->Write(ino, 0, buf_)
                                   : Op(SpanName::kOpWrite, LatClass::kWrite,
                                        [&] { return fs_->Write(ino, 0, buf_); });
    if (!wrote.ok()) return wrote.status();
    if (report != nullptr) {
      report->user_bytes += buf_.size();
      if (++writes_ % kFsyncEvery == 0) {
        Status st = Op(SpanName::kOpFsync, LatClass::kFsync, [&] { return fs_->Fsync(ino); });
        if (!st.ok()) report->OpFailed(st, "fsync");
      }
    }
    return logfs::OkStatus();
  }

  // Renames file i from `from_dir` to `to_dir` under a fresh name. False when
  // the rename failed; the file is then dropped from the model.
  bool Rename(size_t i, const std::string& from_dir, const std::string& to_dir) {
    ShardFile& f = files_[i];
    const std::string from = Path(from_dir, f);
    ++f.renames;
    const std::string to = Path(to_dir, f);
    Status st = Op(SpanName::kOpRename, LatClass::kMeta, [&] {
      ScopedSpan p(SpanName::kPath);
      return paths_.Rename(from, to);
    });
    if (st.ok()) return true;
    report_->OpFailed(st, "rename");
    Forget(i);
    return false;
  }

  void Forget(size_t i) {
    files_[i] = files_.back();
    files_.pop_back();
    inos_[i] = inos_.back();
    inos_.pop_back();
  }

  void Step() {
    const double u = rng_.NextDouble();
    if (files_.size() < kMinFiles || (u < 0.10 && files_.size() < kMaxFiles)) {
      const size_t before = files_.size();
      if (Status st = CreateFile(report_); !st.ok()) {
        report_->OpFailed(st, "create");
        if (files_.size() > before) Forget(files_.size() - 1);
      }
      return;
    }
    const size_t i = rng_.NextBelow(files_.size());
    ShardFile& f = files_[i];
    if (u < 0.18) {
      const std::string path = Path(home_, f);
      Status st = Op(SpanName::kOpUnlink, LatClass::kMeta, [&] {
        ScopedSpan p(SpanName::kPath);
        return paths_.Unlink(path);
      });
      if (!st.ok()) report_->OpFailed(st, "unlink");
      Forget(i);
    } else if (u < 0.22) {
      Rename(i, home_, home_);
    } else if (u < 0.24) {
      // A cross-shard round trip: out to the second directory and straight
      // back, so files live at home and the other meta ops stay on one log.
      if (Rename(i, home_, other_)) {
        ++cross_ops_;
        if (Rename(i, other_, home_)) ++cross_ops_;
      }
    } else if (u < 0.54) {
      const std::string path = Path(home_, f);
      auto got = Op(SpanName::kOpRead, LatClass::kRead, [&] {
        ScopedSpan p(SpanName::kPath);
        return paths_.ReadFile(path);
      });
      if (!got.ok()) {
        report_->OpFailed(got.status(), "read");
        Forget(i);
        return;
      }
      Fill(f);
      if (*got != buf_) report_->Problem("content mismatch in " + path);
    } else {
      ++f.version;
      if (Status st = WriteFile(i, report_); !st.ok()) {
        report_->OpFailed(st, "write");
        Forget(i);
      }
    }
  }

  uint32_t index_;
  logfs::Rng rng_;
  logfs::PathFs paths_;
  logfs::FileSystem* fs_;
  logfs::SimClock* clock_ = nullptr;
  RunReport* report_ = nullptr;
  std::string home_;
  std::string other_;
  uint64_t next_id_ = 0;
  uint64_t writes_ = 0;
  uint64_t steps_ = 0;
  uint64_t cross_ops_ = 0;
  std::vector<ShardFile> files_;
  std::vector<InodeNum> inos_;  // parallel to files_
  std::vector<std::byte> buf_;
};

LayerCounters ReadCounters(ShardRig& rig) {
  LayerCounters c;
  for (uint32_t s = 0; s < rig.sfs->shard_count(); ++s) c.AddLog(*rig.sfs->shard(s));
  c.disk = rig.disk->stats();
  c.ReadIoCounters();
  return c;
}

logfs::Result<std::unique_ptr<ShardRig>> MakeRig() {
  auto rig = std::make_unique<ShardRig>();
  rig->clock = std::make_unique<logfs::SimClock>();
  rig->cpu = std::make_unique<logfs::CpuModel>(rig->clock.get(), 10.0);
  rig->disk =
      std::make_unique<logfs::MemoryDisk>(kDiskBytes / logfs::kSectorSize, rig->clock.get());
  RETURN_IF_ERROR(logfs::ShardedLfs::Format(rig->disk.get(), logfs::LfsParams{}, kShards));
  rig->sleep_disk = std::make_unique<SleepDisk>(rig->disk.get());
  rig->timed_disk = std::make_unique<TimedDisk>(rig->sleep_disk.get());
  ASSIGN_OR_RETURN(rig->sfs, logfs::ShardedLfs::Mount(rig->timed_disk.get(), rig->clock.get(),
                                                      rig->cpu.get()));
  rig->fs = std::make_unique<TimedFs>(rig->sfs.get());
  return rig;
}

}  // namespace

void RunShardMt(const RunConfig& cfg, RunReport* report) {
  const uint32_t threads =
      std::max(1u, std::min(kMaxThreads, std::thread::hardware_concurrency()));
  std::unique_ptr<ShardRig> rig;
  std::vector<std::unique_ptr<Worker>> workers;
  const bool set_up = TimeSetups(cfg.setup_reps, report, [&]() -> Status {
    workers.clear();
    rig.reset();  // one volume in memory at a time
    ASSIGN_OR_RETURN(rig, MakeRig());
    for (uint32_t t = 0; t < threads; ++t) {
      workers.push_back(std::make_unique<Worker>(t, cfg.seed, rig->fs.get()));
      RETURN_IF_ERROR(workers.back()->Setup(rig->sfs.get()));
    }
    return rig->sfs->Sync();
  });
  if (!set_up) return;

  const LayerCounters start = ReadCounters(*rig);
  const double sim0 = rig->clock->Now();
  std::vector<RunReport> parts(threads);
  SetSpansEnabled(cfg.trace);
  const double t0 = HostNow();
  const double deadline = t0 + cfg.seconds;
  {
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { workers[t]->Run(rig->clock.get(), deadline, &parts[t]); });
    }
    for (std::thread& th : pool) th.join();
  }
  report->measured_s = HostNow() - t0;
  SetSpansEnabled(false);

  // The count window is the whole measured phase here: thread interleaving
  // makes a fixed op prefix meaningless.
  const LayerCounters end = ReadCounters(*rig);
  report->sim_seconds = rig->clock->Now() - sim0;
  report->device_bytes = DiskDelta(end.disk, start.disk).sectors_written * logfs::kSectorSize;
  uint64_t cross_ops = 0;
  for (uint32_t t = 0; t < threads; ++t) {
    RunReport& p = parts[t];
    report->ops += p.ops;
    report->attempted += p.attempted;
    report->failed += p.failed;
    for (const auto& [code, n] : p.failures_by_code) report->failures_by_code[code] += n;
    for (const std::string& what : p.problems) report->Problem(what);
    if (!p.correct) report->correct = false;
    for (size_t c = 0; c < kLatClassCount; ++c) report->host_us[c].Append(p.host_us[c]);
    report->sim_ms.Append(p.sim_ms);
    report->user_bytes += p.user_bytes;
    cross_ops += workers[t]->cross_ops();
  }
  report->count_ops = report->ops;
  if (cfg.trace) {
    AddLayerMetrics(end.Minus(start), RollupSpans(), report->measured_s, /*sharded=*/true,
                    report);
    report->layer.push_back({"lfs.shard.cross_ops", static_cast<double>(cross_ops), "count"});
  }

  for (auto& w : workers) w->Verify(report);
  if (Status st = rig->sfs->Sync(); !st.ok()) {
    report->Problem("final sync: " + st.ToString());
    return;
  }
  auto check = logfs::CheckShardedLfs(rig->sfs.get(), /*verify_data=*/true);
  if (!check.ok()) {
    report->Problem("CheckShardedLfs: " + check.status().ToString());
  } else if (!check->ok()) {
    report->Problem("CheckShardedLfs: " + check->Summary());
  }
}

}  // namespace perfbench
