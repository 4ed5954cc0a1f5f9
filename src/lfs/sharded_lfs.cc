// ShardedLfs implementation: the lock-striped router over N independent
// logs, plus the global (cross-shard) consistency checker. See the header
// for the architecture and locking protocol.
#include "src/lfs/sharded_lfs.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/lfs/lfs_cleaner.h"
#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/obs/tracer.h"
#include "src/util/logging.h"

namespace logfs {
namespace {

void CountLockMicros(const char* name, double seconds) {
  if constexpr (obs::kMetricsEnabled) {
    if (seconds > 0.0) {
      obs::Registry().GetCounter(name).Increment(
          static_cast<uint64_t>(seconds * 1e6 + 0.5));
    }
  } else {
    (void)name;
    (void)seconds;
  }
}

}  // namespace

// --- shard-lock attribution ----------------------------------------------------

ShardedLfs::Locked::Locked(ShardedLfs* sfs, std::vector<uint32_t> shards)
    : sfs_(sfs), shards_(std::move(shards)) {
  std::sort(shards_.begin(), shards_.end());
  shards_.erase(std::unique(shards_.begin(), shards_.end()), shards_.end());
  locks_.reserve(shards_.size());
  const bool multi = sfs_->shards_.size() > 1;
  if constexpr (obs::kMetricsEnabled) {
    ctx_ = obs::CurrentTraceContext();
  }
  if (!obs::kMetricsEnabled || (!multi && !ctx_.active())) {
    for (uint32_t i : shards_) {
      locks_.emplace_back(sfs_->shards_[i]->mu);  // Nothing to attribute.
    }
    return;
  }
  SimClock* clock = sfs_->clock_;
  const double wait_start = clock != nullptr ? clock->Now() : 0.0;
  bool contended = false;
  for (uint32_t i : shards_) {
    std::unique_lock<std::mutex> lock(sfs_->shards_[i]->mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      contended = true;
      lock.lock();
    }
    locks_.push_back(std::move(lock));
  }
  held_start_ = clock != nullptr ? clock->Now() : wait_start;
  if (multi) {
    CountLockMicros("logfs.shard.lock.wait_us", held_start_ - wait_start);
  }
  if (ctx_.active()) {
    if (contended && held_start_ > wait_start) {
      obs::Tracer().RecordSpanIds("shard.lock_wait", "acquire", wait_start, held_start_,
                                  ctx_.trace_id, obs::Tracer().NextId(), ctx_.span_id, {},
                                  {{"shard", ShardArg()}});
    }
    held_span_ = obs::Tracer().NextId();
    scope_.emplace(obs::TraceContext{ctx_.trace_id, held_span_});
  }
}

ShardedLfs::Locked::~Locked() {
  if constexpr (obs::kMetricsEnabled) {
    if (held_span_ == 0 && sfs_->shards_.size() <= 1) {
      return;  // Fast path took no timestamps.
    }
    SimClock* clock = sfs_->clock_;
    const double end = clock != nullptr ? clock->Now() : held_start_;
    if (held_span_ != 0) {
      scope_.reset();  // Restore the caller's ambient context first.
      obs::Tracer().RecordSpanIds("shard.lock_held", "section", held_start_, end,
                                  ctx_.trace_id, held_span_, ctx_.span_id, {},
                                  {{"shard", ShardArg()}});
    }
    if (sfs_->shards_.size() > 1) {
      CountLockMicros("logfs.shard.lock.held_us", end - held_start_);
    }
  }
}

std::string ShardedLfs::Locked::ShardArg() const {
  std::string arg;
  for (uint32_t i : shards_) {
    if (!arg.empty()) {
      arg += ',';
    }
    arg += std::to_string(i);
  }
  return arg;
}

// --- one attempt's intent -------------------------------------------------------

LfsFileSystem::Logs ShardedLfs::Intent::logs() {
  LfsFileSystem::Logs logs;
  logs.of = [sfs = sfs_](InodeNum ino) { return sfs->fs(sfs->ShardOf(ino)); };
  if (publish_) {
    // Durable before the first shard edit: a kBusy (full ring) or media
    // error (region unwritable) aborts the op with nothing edited.
    logs.before_edit = [this](IntentRecord& op) -> Status {
      Result<uint32_t> slot = sfs_->intents_->Publish(&op);
      ring_full_ = slot.status().code() == ErrorCode::kBusy;
      if (slot.ok()) {
        slot_ = *slot;
      }
      return slot.status();
    };
  }
  return logs;
}

bool ShardedLfs::Intent::Settled(const Locked& locks, const Status& done, int drains) {
  if (ring_full_ && drains < 2) {
    return false;
  }
  if (done.ok() && slot_) {
    std::vector<std::pair<uint32_t, uint64_t>> covers;
    for (uint32_t i : locks.shards()) {
      covers.emplace_back(i, sfs_->fs(i)->mutation_seq());
    }
    sfs_->intents_->MarkApplied(*slot_, std::move(covers));
  }
  return true;
}

// --- format / mount ------------------------------------------------------------

Status ShardedLfs::Format(BlockDevice* device, const LfsParams& params,
                          uint32_t shard_count) {
  if (shard_count <= 1) {
    // Degenerate configuration: the seed single-log format, byte-identical.
    LfsParams p = params;
    p.shard_count = 0;
    p.shard_index = 0;
    return LfsFileSystem::Format(device, p);
  }
  if (shard_count > 64) {
    return InvalidArgumentError("shard_count must be <= 64");
  }
  // The cross-shard intent region (lfs_intent.h) is carved off the end of
  // the device, after the last shard slice; each slice's superblock locates
  // it via the INT1 extension so Mount rediscovers the layout from sector 0.
  if (device->sector_count() <= kIntentRegionSectors) {
    return InvalidArgumentError("device too small to shard");
  }
  const uint64_t slice = (device->sector_count() - kIntentRegionSectors) / shard_count;
  if (slice == 0) {
    return InvalidArgumentError("device too small to shard");
  }
  const uint64_t intent_start = slice * shard_count;
  for (uint32_t i = 0; i < shard_count; ++i) {
    LfsParams p = params;
    p.shard_count = shard_count;
    p.shard_index = i;
    p.intent_start_sector = intent_start;
    p.intent_sectors = static_cast<uint32_t>(kIntentRegionSectors);
    // Shard i owns the global inos with PartOf(ino, N) == i; max_inodes
    // becomes the LOCAL slot count of that residue class.
    p.max_inodes =
        params.max_inodes > i ? (params.max_inodes - i - 1) / shard_count + 1 : 0;
    if (p.max_inodes < 16) {
      return InvalidArgumentError("max_inodes too small to split across shards");
    }
    WindowDisk window(device, static_cast<uint64_t>(i) * slice, slice);
    RETURN_IF_ERROR(LfsFileSystem::Format(&window, p));
  }
  // Zero the intent region: a leftover record from a previous incarnation
  // of the device must not decode as a pending intent.
  std::vector<std::byte> zeros(kIntentRegionSectors * kSectorSize);
  RETURN_IF_ERROR(device->WriteSectors(intent_start, zeros, IoOptions{.synchronous = true}));
  obs::RecordWrite(obs::IoSource::kIntent, zeros.size());
  return OkStatus();
}

Result<std::unique_ptr<ShardedLfs>> ShardedLfs::Mount(BlockDevice* device, SimClock* clock,
                                                      CpuModel* cpu, Options options) {
  std::vector<std::byte> first(4096);
  RETURN_IF_ERROR(device->ReadSectors(0, first));
  ASSIGN_OR_RETURN(LfsSuperblock sb0, DecodeLfsSuperblock(first));
  auto sfs = std::unique_ptr<ShardedLfs>(new ShardedLfs());
  sfs->clock_ = clock;
  if (!sb0.sharded()) {
    auto shard = std::make_unique<Shard>();
    ASSIGN_OR_RETURN(shard->fs, LfsFileSystem::Mount(device, clock, cpu, options));
    sfs->shards_.push_back(std::move(shard));
    return sfs;
  }
  // Format gives every sharded volume an intent region after its last
  // slice; without one the router could not keep cross-shard operations
  // atomic across a crash.
  if (!sb0.has_intent_region()) {
    return CorruptedError("sharded superblock has no intent-log region");
  }
  const uint32_t n = sb0.shard_count;
  const uint64_t slice = sb0.intent_start_sector / n;
  for (uint32_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->window =
        std::make_unique<WindowDisk>(device, static_cast<uint64_t>(i) * slice, slice);
    ASSIGN_OR_RETURN(shard->fs,
                     LfsFileSystem::Mount(shard->window.get(), clock, cpu, options));
    const LfsSuperblock& sb = shard->fs->superblock();
    if (sb.shard_count != n || sb.shard_index != i) {
      return CorruptedError("shard " + std::to_string(i) +
                            " superblock disagrees with shard 0 about the layout");
    }
    const std::string prefix = "logfs.shard." + std::to_string(i) + ".";
    auto gauge = [&prefix](const char* name) { return &obs::Registry().GetGauge(prefix + name); };
    shard->gauges = {gauge("clean_segments"), gauge("quarantined_segments"),
                     gauge("live_bytes"),     gauge("checkpoints"),
                     gauge("cleaner_passes"), gauge("segments_cleaned"),
                     gauge("write_cost")};
    sfs->shards_.push_back(std::move(shard));
  }
  sfs->intent_dev_ = std::make_unique<ResilientDisk>(device, clock);
  sfs->intents_ = std::make_unique<IntentLog>(sfs->intent_dev_.get(), sb0.intent_start_sector,
                                              sb0.intent_sectors);
  RETURN_IF_ERROR(sfs->ReconcileIntents());
  return sfs;
}

ShardedLfs::~ShardedLfs() {
  if (intents_ != nullptr) {
    (void)Sync();
  }
}

// Mount-time cross-shard reconciliation: every shard has already rolled
// forward individually; unretired intents are the only operations whose
// halves can disagree, and an unreadable slot may hide one, so the repair
// then walks the whole namespace. Repair first, make the repair durable,
// THEN retire — retiring before the sync would leave damage with no intent
// if we crash in between. One marker retires the whole batch at once.
Status ShardedLfs::ReconcileIntents() {
  ASSIGN_OR_RETURN(IntentScan scan, intents_->LoadAll());
  std::vector<IntentRecord> pending;
  for (LoadedIntent& li : scan.records) {
    if (li.state == IntentState::kPending) {
      pending.push_back(std::move(li.record));
    }
  }
  if (pending.empty() && scan.unreadable_slots == 0) {
    return OkStatus();
  }
  std::sort(pending.begin(), pending.end(), [](const IntentRecord& a, const IntentRecord& b) {
    return a.op_id < b.op_id;
  });
  ASSIGN_OR_RETURN(RepairReport rep, RepairDurably(pending));
  intents_->RetireSettled();
  // A marker lost to media errors leaves the batch to the next publish.
  RETURN_IF_ERROR(intents_->WriteRetireMarker());
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().GetCounter("logfs.intent.reconciled").Increment(pending.size());
  }
  reconcile_report_ = std::move(rep);
  return OkStatus();
}

// Everything the repair and its durability sync write is repair-class
// traffic: the work exists only because the namespace disagreed with itself.
Result<RepairReport> ShardedLfs::RepairDurably(std::span<const IntentRecord> pending) {
  std::vector<LfsFileSystem*> logs;
  for (auto& shard : shards_) {
    logs.push_back(shard->fs.get());
  }
  for (LfsFileSystem* log : logs) {
    log->set_repair_context(true);
  }
  Result<RepairReport> repaired = RepairShardedNamespace(logs, pending);
  Status synced = OkStatus();
  for (size_t i = 0; repaired.ok() && synced.ok() && i < logs.size(); ++i) {
    synced = logs[i]->Sync();
  }
  for (LfsFileSystem* log : logs) {
    log->set_repair_context(false);
  }
  RETURN_IF_ERROR(synced);
  return repaired;
}

Status ShardedLfs::ForEachShardThenRetire(
    const std::function<Status(uint32_t, LfsFileSystem*)>& step, bool marker) {
  std::vector<uint64_t> synced(shards_.size());
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    RETURN_IF_ERROR(step(i, shards_[i]->fs.get()));
    synced[i] = shards_[i]->fs->synced_seq();
  }
  if (intents_ == nullptr) {
    return OkStatus();
  }
  intents_->RetireCovered(synced);
  return marker ? intents_->WriteRetireMarker() : OkStatus();
}

Status ShardedLfs::DrainIntents() {
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().GetCounter("logfs.intent.ring_full_drains").Increment();
  }
  return ForEachShardThenRetire([](uint32_t, LfsFileSystem* f) { return f->Sync(); },
                                /*marker=*/false);
}

// --- locking helpers -----------------------------------------------------------

uint32_t ShardedLfs::PlaceShard(InodeNum dir, std::string_view name,
                                FileType type) const {
  if (type != FileType::kDirectory) {
    // Files live on their parent directory's log: the create is
    // single-shard, and a client confined to its own directory never
    // waits out another shard's segment flush.
    return ShardOf(dir);
  }
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis.
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;  // FNV prime.
  };
  for (char c : name) {
    mix(static_cast<uint8_t>(c));
  }
  // The parent ino widened to 64 bits, so every shift stays inside its type;
  // the upper four bytes mix in as zeros.
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<uint8_t>(uint64_t{dir} >> (8 * i)));
  }
  return static_cast<uint32_t>(h % shards_.size());
}

Result<DirEntry> ShardedLfs::Discover(InodeNum dir, std::string_view name) {
  const uint32_t s = ShardOf(dir);
  Locked lock(this, {s});
  return fs(s)->FindEntry(dir, name);
}

Result<bool> ShardedLfs::IsInSubtreeGlobal(InodeNum candidate, InodeNum ancestor) {
  InodeNum cur = candidate;
  for (uint32_t depth = 0; depth < 1u << 16; ++depth) {
    if (cur == ancestor) {
      return true;
    }
    if (cur == kRootIno) {
      return false;
    }
    ASSIGN_OR_RETURN(DirEntry up, Discover(cur, ".."));
    cur = up.ino;
  }
  return CorruptedError("'..' chain does not terminate at the root");
}

namespace {

// Whether two reads of one entry agree; two failed reads do.
bool SameEntry(const Result<DirEntry>& a, const Result<DirEntry>& b) {
  if (a.ok() != b.ok()) {
    return false;
  }
  return !a.ok() || (a->ino == b->ino && a->type == b->type);
}

}  // namespace

// --- namespace operations ------------------------------------------------------
//
// Each op runs the body LfsFileSystem runs (lfs_file_system_ops.cc) on the
// shard of its directory, under the locks of every shard it names. The
// body's before_edit publishes the op's intent, and every op publishes one
// when it spans shards: its halves then land on different logs, which
// recover independently. An op on one shard is one body on one log, which
// the single-log crash contract already makes atomic, so it publishes
// nothing, with one exception. A rename also publishes when an unretired
// intent names the inode it moves or replaces. Recovery settles that older
// intent against the names it finds, so without a record of the rename it
// would roll back to a name the rename removed (for example, the source of
// a cross-shard round trip comes back beside the rename's new name). A
// full intent ring stops the body before its first edit; the router drains
// the ring and retries, at most twice.

Result<InodeNum> ShardedLfs::Create(InodeNum dir, std::string_view name, FileType type) {
  const uint32_t ds = ShardOf(dir);
  const uint32_t cs = PlaceShard(dir, name, type);
  for (int drains = 0;; ++drains) {
    {
      Locked locks(this, {ds, cs});
      Intent intent(this, /*publish=*/cs != ds);
      Result<InodeNum> ino = fs(ds)->CreateIn(intent.logs(), fs(cs), dir, name, type);
      if (intent.Settled(locks, ino.status(), drains)) {
        return ino;
      }
    }
    RETURN_IF_ERROR(DrainIntents());
  }
}

Result<InodeNum> ShardedLfs::Lookup(InodeNum dir, std::string_view name) {
  const uint32_t s = ShardOf(dir);
  Locked lock(this, {s});
  return fs(s)->Lookup(dir, name);
}

Status ShardedLfs::Unlink(InodeNum dir, std::string_view name) {
  return RemoveName(dir, name, &LfsFileSystem::UnlinkIn);
}

Status ShardedLfs::Rmdir(InodeNum dir, std::string_view name) {
  return RemoveName(dir, name, &LfsFileSystem::RmdirIn);
}

Status ShardedLfs::RemoveName(InodeNum dir, std::string_view name, RemoveBody body) {
  const uint32_t ds = ShardOf(dir);
  if (shards_.size() == 1) {
    // One log holds every inode: nothing to discover.
    Locked lock(this, {ds});
    return (fs(ds)->*body)(Intent(this, false).logs(), dir, name);
  }
  for (int drains = 0;;) {
    // The child's shard, from its entry. A failed read names no other
    // shard; the body then reports the error.
    const Result<DirEntry> seen = Discover(dir, name);
    const uint32_t cs = seen.ok() ? ShardOf(seen->ino) : ds;
    {
      Locked locks(this, {ds, cs});
      if (!SameEntry(fs(ds)->FindEntry(dir, name), seen)) {
        continue;  // Changed since discovery.
      }
      Intent intent(this, /*publish=*/cs != ds);
      Status done = (fs(ds)->*body)(intent.logs(), dir, name);
      if (intent.Settled(locks, done, drains)) {
        return done;
      }
    }
    ++drains;
    RETURN_IF_ERROR(DrainIntents());
  }
}

Status ShardedLfs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  const uint32_t ds = ShardOf(dir);
  const uint32_t ts = ShardOf(target);
  for (int drains = 0;; ++drains) {
    {
      Locked locks(this, {ds, ts});
      Intent intent(this, /*publish=*/ts != ds);
      Status done = fs(ds)->LinkIn(intent.logs(), dir, name, target);
      if (intent.Settled(locks, done, drains)) {
        return done;
      }
    }
    RETURN_IF_ERROR(DrainIntents());
  }
}

Status ShardedLfs::Rename(InodeNum from_dir, std::string_view from_name, InodeNum to_dir,
                          std::string_view to_name) {
  const uint32_t fi = ShardOf(from_dir);
  const uint32_t ti = ShardOf(to_dir);
  if (shards_.size() == 1) {
    // One log: nothing to discover, the body walks ".." itself, and there
    // is no intent log.
    Locked lock(this, {fi});
    return fs(fi)->RenameIn(Intent(this, false).logs(), from_dir, from_name, to_dir, to_name);
  }
  // rename_mu_ serializes every N>1 rename: only renames reparent
  // directories, so the cross-shard cycle walk below sees a stable
  // topology, and the apply phase cannot race another rename's.
  std::lock_guard<std::mutex> rename_guard(rename_mu_);
  int drains = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    // Discovery, before any shard lock is held: the source entry, and for a
    // directory the cycle walk, whose verdict the body takes as its own.
    const Result<DirEntry> src = Discover(from_dir, from_name);
    bool cyclic = false;
    if (src.ok() && src->type == FileType::kDirectory) {
      ASSIGN_OR_RETURN(cyclic, IsInSubtreeGlobal(to_dir, src->ino));
    }
    std::vector<uint32_t> want = {fi, ti};
    if (src.ok()) {
      want.push_back(ShardOf(src->ino));
    }
    bool drain = false;
    while (!drain) {
      Locked locks(this, want);
      if (!SameEntry(fs(fi)->FindEntry(from_dir, from_name), src)) {
        break;  // Changed since discovery.
      }
      Result<DirEntry> dst = fs(ti)->FindEntry(to_dir, to_name);
      if (dst.ok() && !std::binary_search(locks.shards().begin(), locks.shards().end(),
                                          ShardOf(dst->ino))) {
        want.push_back(ShardOf(dst->ino));  // Re-lock with the victim's shard.
        continue;
      }
      // The rule is in the section comment above. The query cannot race a
      // publish that names these inodes: that op holds their shard locks.
      const bool publish =
          locks.shards().size() > 1 || (src.ok() && intents_->NamesUnretired(src->ino)) ||
          (dst.ok() && intents_->NamesUnretired(dst->ino));
      Intent intent(this, publish);
      LfsFileSystem::Logs logs = intent.logs();
      logs.in_subtree = [cyclic](InodeNum, InodeNum) -> Result<bool> { return cyclic; };
      Status done = fs(fi)->RenameIn(logs, from_dir, from_name, to_dir, to_name);
      if (intent.Settled(locks, done, drains)) {
        return done;
      }
      drain = true;
    }
    if (drain) {
      ++drains;
      RETURN_IF_ERROR(DrainIntents());
    }
  }
  return BusyError("rename retry budget exhausted");
}

// --- data / single-inode operations --------------------------------------------

Result<uint64_t> ShardedLfs::Read(InodeNum ino, uint64_t offset, std::span<std::byte> out) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, {s});
  return fs(s)->Read(ino, offset, out);
}

Result<uint64_t> ShardedLfs::Write(InodeNum ino, uint64_t offset,
                                   std::span<const std::byte> data) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, {s});
  return fs(s)->Write(ino, offset, data);
}

Status ShardedLfs::Truncate(InodeNum ino, uint64_t new_size) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, {s});
  return fs(s)->Truncate(ino, new_size);
}

Result<FileStat> ShardedLfs::Stat(InodeNum ino) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, {s});
  return fs(s)->Stat(ino);
}

Result<std::vector<DirEntry>> ShardedLfs::ReadDir(InodeNum dir) {
  const uint32_t s = ShardOf(dir);
  Locked lock(this, {s});
  return fs(s)->ReadDir(dir);
}

Status ShardedLfs::Fsync(InodeNum ino) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, {s});
  return fs(s)->Fsync(ino);
}

// --- fan-out operations --------------------------------------------------------

Status ShardedLfs::Sync() {
  return ForEachShardThenRetire([](uint32_t, LfsFileSystem* f) { return f->Sync(); },
                                /*marker=*/true);
}

Status ShardedLfs::Checkpoint() {
  return ForEachShardThenRetire([](uint32_t, LfsFileSystem* f) { return f->Checkpoint(); },
                                /*marker=*/true);
}

Status ShardedLfs::DropCaches() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RETURN_IF_ERROR(shard->fs->DropCaches());
  }
  return OkStatus();
}

// One pass, one lock per shard: tick it and publish its gauges. Interval
// checkpoints may have advanced durable horizons; the retirements ride on
// the next synchronous intent-region write.
Status ShardedLfs::Tick() {
  const bool multi = shards_.size() > 1;
  std::vector<double> utils;
  auto tick = [this, multi, &utils](uint32_t i, LfsFileSystem* f) {
    Status ticked = f->Tick();
    if (ticked.ok() && multi) {
      PublishShardGauges(i, &utils);
    }
    return ticked;
  };
  RETURN_IF_ERROR(ForEachShardThenRetire(tick, /*marker=*/false));
  if (multi) {
    obs::PublishUtilization(utils);
  }
  return OkStatus();
}

Result<uint32_t> ShardedLfs::CleanNow(uint32_t max_victims) {
  uint32_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ASSIGN_OR_RETURN(uint32_t cleaned, shard->fs->CleanNow(max_victims));
    total += cleaned;
  }
  return total;
}

Result<LfsFileSystem::ScrubReport> ShardedLfs::Scrub(uint32_t max_segments) {
  LfsFileSystem::ScrubReport total;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ASSIGN_OR_RETURN(LfsFileSystem::ScrubReport r, shard->fs->Scrub(max_segments));
    total.segments_scanned += r.segments_scanned;
    total.partials_verified += r.partials_verified;
    total.blocks_verified += r.blocks_verified;
    total.checksum_failures += r.checksum_failures;
    total.media_errors += r.media_errors;
    total.segments_quarantined += r.segments_quarantined;
    total.blocks_salvaged += r.blocks_salvaged;
  }
  return total;
}

void ShardedLfs::PublishShardMetrics() {
  if (shards_.size() <= 1) {
    // Degenerate configuration: the single shard's own logfs.* metrics
    // already cover it, and adding logfs.shard.0.* gauges would leak into
    // the flight-recorder black box — breaking byte-identity with the
    // seed single-log image.
    return;
  }
  std::vector<double> utils;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    // The shard lock serializes these reads against mutating ops.
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    PublishShardGauges(i, &utils);
  }
  obs::PublishUtilization(utils);
}

void ShardedLfs::PublishShardGauges(uint32_t i, std::vector<double>* utils) {
  LfsFileSystem* f = shards_[i]->fs.get();
  const ShardGauges& g = shards_[i]->gauges;
  g.clean_segments->Set(f->CleanSegmentCount());
  g.quarantined_segments->Set(f->QuarantinedSegmentCount());
  g.live_bytes->Set(static_cast<double>(f->TotalLiveBytes()));
  g.checkpoints->Set(static_cast<double>(f->checkpoint_count()));
  const LfsFileSystem::CleanerStats& cs = f->cleaner_stats();
  g.cleaner_passes->Set(static_cast<double>(cs.passes));
  g.segments_cleaned->Set(static_cast<double>(cs.segments_cleaned));
  // The paper's write-cost figure of merit at this shard's current overall
  // utilization.
  const LfsSuperblock& sb = f->superblock();
  const double capacity =
      static_cast<double>(sb.num_segments) * static_cast<double>(sb.segment_size);
  const double u = capacity > 0.0 ? static_cast<double>(f->TotalLiveBytes()) / capacity : 0.0;
  g.write_cost->Set(PaperWriteCost(u));
  // Each shard's Tick publishes logfs.seg.util.* with only its own segments
  // (last writer wins); the caller overwrites them with the merged
  // distribution so the global gauges describe the whole volume.
  f->CollectSegmentUtilization(utils);
}

// --- global checker ------------------------------------------------------------

Result<LfsCheckReport> CheckShardedLfs(ShardedLfs* sfs, bool verify_data,
                                       RepairMode repair) {
  // Self-serialize against live traffic: the rename lock keeps the
  // directory topology stable and the shard locks quiesce every log, so
  // the check (and the repairer) may run online. The check then reaches the
  // shards directly, never through the router's locking front-end.
  std::lock_guard<std::mutex> rename_guard(sfs->rename_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  std::vector<LfsFileSystem*> logs;
  for (auto& shard : sfs->shards_) {
    locks.emplace_back(shard->mu);
    logs.push_back(shard->fs.get());
  }
  ASSIGN_OR_RETURN(LfsCheckReport report, CheckLogs(logs, verify_data));
  if (repair == RepairMode::kCheckOnly || report.ok()) {
    return report;
  }
  // Online repair: fix the namespace in place (no intent work list — this
  // path exists precisely for images without a usable intent log), make
  // the repair durable, and report the re-checked state.
  ASSIGN_OR_RETURN(RepairReport rep, sfs->RepairDurably({}));
  ASSIGN_OR_RETURN(LfsCheckReport after, CheckLogs(logs, verify_data));
  after.repairs_applied = rep.total_edits();
  after.repair_actions = std::move(rep.actions);
  return after;
}

}  // namespace logfs
