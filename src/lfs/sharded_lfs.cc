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

ShardedLfs::Locked::Locked(ShardedLfs* sfs, uint32_t shard)
    : sfs_(sfs), shard_(shard), lock_(sfs->shards_[shard]->mu, std::defer_lock) {
  if constexpr (!obs::kMetricsEnabled) {
    lock_.lock();
    return;
  }
  ctx_ = obs::CurrentTraceContext();
  const bool multi = sfs_->shards_.size() > 1;
  if (!multi && !ctx_.active()) {
    lock_.lock();  // Seed-identical fast path: nothing to attribute.
    return;
  }
  SimClock* clock = sfs_->clock_;
  const double wait_start = clock != nullptr ? clock->Now() : 0.0;
  const bool contended = !lock_.try_lock();
  if (contended) {
    lock_.lock();
  }
  held_start_ = clock != nullptr ? clock->Now() : wait_start;
  if (multi) {
    CountLockMicros("logfs.shard.lock.wait_us", held_start_ - wait_start);
  }
  if (ctx_.active()) {
    if (contended && held_start_ > wait_start) {
      obs::Tracer().RecordSpanIds("shard.lock_wait", "acquire", wait_start,
                                  held_start_, ctx_.trace_id, obs::Tracer().NextId(),
                                  ctx_.span_id, {},
                                  {{"shard", std::to_string(shard_)}});
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
                                  {{"shard", std::to_string(shard_)}});
    }
    if (sfs_->shards_.size() > 1) {
      CountLockMicros("logfs.shard.lock.held_us", end - held_start_);
    }
  }
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
    // Shard i owns the global inos with (ino - 1) % N == i; max_inodes
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
  const uint32_t n = sb0.shard_count;
  // With an intent region the slices stop where it starts; legacy sharded
  // images (no INT1 extension) tile the whole device.
  const uint64_t slice = sb0.has_intent_region() ? sb0.intent_start_sector / n
                                                 : device->sector_count() / n;
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
    sfs->shards_.push_back(std::move(shard));
  }
  if (sb0.has_intent_region()) {
    sfs->intent_dev_ = std::make_unique<ResilientDisk>(device, clock);
    sfs->intents_ = std::make_unique<IntentLog>(
        sfs->intent_dev_.get(), sb0.intent_start_sector, sb0.intent_sectors);
    RETURN_IF_ERROR(sfs->ReconcileIntents());
  }
  return sfs;
}

// Mount-time cross-shard reconciliation: every shard has already rolled
// forward individually; unretired intents are the only operations whose
// halves can disagree. Repair first, make the repair durable, THEN retire —
// retiring before the sync would leave damage with no intent if we crash
// in between.
Status ShardedLfs::ReconcileIntents() {
  ASSIGN_OR_RETURN(std::vector<LoadedIntent> all, intents_->LoadAll());
  std::vector<LoadedIntent> pending_slots;
  for (LoadedIntent& li : all) {
    if (li.state == IntentState::kPending) {
      pending_slots.push_back(std::move(li));
    }
  }
  if (pending_slots.empty()) {
    return OkStatus();
  }
  std::sort(pending_slots.begin(), pending_slots.end(),
            [](const LoadedIntent& a, const LoadedIntent& b) {
              return a.record.op_id < b.record.op_id;
            });
  std::vector<IntentRecord> pending;
  pending.reserve(pending_slots.size());
  for (const LoadedIntent& li : pending_slots) {
    pending.push_back(li.record);
  }
  std::vector<LfsFileSystem*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) {
    raw.push_back(shard->fs.get());
  }
  // Everything the repair and its durability sync write is repair-class
  // traffic: the work exists only because halves of an op disagreed.
  for (LfsFileSystem* fs : raw) {
    fs->set_repair_context(true);
  }
  Result<RepairReport> repaired = RepairShardedNamespace(raw, pending);
  Status synced = OkStatus();
  if (repaired.ok()) {
    for (auto& shard : shards_) {
      synced = shard->fs->Sync();
      if (!synced.ok()) {
        break;
      }
    }
  }
  for (LfsFileSystem* fs : raw) {
    fs->set_repair_context(false);
  }
  RETURN_IF_ERROR(repaired.status());
  RETURN_IF_ERROR(synced);
  RepairReport rep = std::move(*repaired);
  for (const LoadedIntent& li : pending_slots) {
    Status retired = intents_->RetireSlot(li.slot, li.record);
    if (!retired.ok() && retired.code() == ErrorCode::kCrashed) {
      return retired;
    }
    // A media error on the retire leaves the slot pending: the next mount
    // re-reconciles it, which is a no-op on the now-repaired image.
  }
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry()
        .GetCounter("logfs.intent.reconciled")
        .Increment(pending_slots.size());
  }
  reconcile_report_ = std::move(rep);
  return OkStatus();
}

Status ShardedLfs::RetireDurableIntents() {
  if (intents_ == nullptr) {
    return OkStatus();
  }
  std::vector<uint64_t> synced(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    synced[i] = shards_[i]->fs->synced_seq();
  }
  return intents_->RetireCovered(synced);
}

Status ShardedLfs::DrainIntents() {
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().GetCounter("logfs.intent.ring_full_drains").Increment();
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RETURN_IF_ERROR(shard->fs->Sync());
  }
  return RetireDurableIntents();
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

std::vector<std::unique_lock<std::mutex>> ShardedLfs::LockSet(std::vector<uint32_t> want) {
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(want.size());
  // Cross-shard acquisition is attributed as one wait covering the whole
  // ascending sweep: per-shard held spans would misstate the section (the
  // operation holds the set jointly, not each shard serially).
  const double start = clock_ != nullptr ? clock_->Now() : 0.0;
  bool contended = false;
  for (uint32_t i : want) {
    std::unique_lock<std::mutex> l(shards_[i]->mu, std::try_to_lock);
    if (!l.owns_lock()) {
      contended = true;
      l.lock();
    }
    locks.push_back(std::move(l));
  }
  if constexpr (obs::kMetricsEnabled) {
    const double end = clock_ != nullptr ? clock_->Now() : start;
    if (shards_.size() > 1) {
      CountLockMicros("logfs.shard.lock.wait_us", end - start);
    }
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    if (ctx.active() && contended && end > start) {
      std::string which;
      for (uint32_t i : want) {
        which += (which.empty() ? "" : ",") + std::to_string(i);
      }
      obs::Tracer().RecordSpanIds("shard.lock_wait", "acquire_set", start, end,
                                  ctx.trace_id, obs::Tracer().NextId(), ctx.span_id,
                                  {}, {{"shards", std::move(which)}});
    }
  }
  return locks;
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
    const uint32_t s = ShardOf(cur);
    Locked lock(this, s);
    ASSIGN_OR_RETURN(DirEntry up, fs(s)->ShardFindEntry(cur, ".."));
    cur = up.ino;
  }
  return CorruptedError("'..' chain does not terminate at the root");
}

// --- namespace operations ------------------------------------------------------

Result<InodeNum> ShardedLfs::Create(InodeNum dir, std::string_view name, FileType type) {
  const uint32_t ds = ShardOf(dir);
  const uint32_t cs = shards_.size() == 1 ? ds : PlaceShard(dir, name, type);
  if (cs == ds) {
    Locked lock(this, ds);
    return fs(ds)->Create(dir, name, type);
  }
  auto attempt = [&]() -> Result<InodeNum> {
    auto locks = LockSet({ds, cs});
    RETURN_IF_ERROR(fs(ds)->ShardCheckCanInsert(dir, name));
    uint32_t slot = 0;
    if (intents_ != nullptr) {
      // The intent must name the child ino, and must be durable before ANY
      // shard mutation — ShardAllocInode can pressure-flush, so the ino is
      // peeked (deterministic under the held shard lock) and the intent
      // published first. A kBusy (full ring) or media error (region
      // unwritable) aborts with nothing mutated.
      ASSIGN_OR_RETURN(InodeNum peek, fs(cs)->ShardPeekAllocInode());
      IntentRecord rec;
      rec.kind = IntentKind::kCreate;
      rec.from_dir = dir;
      rec.child = peek;
      rec.child_type = type;
      rec.from_name = std::string(name);
      ASSIGN_OR_RETURN(slot, intents_->Publish(&rec));
    }
    ASSIGN_OR_RETURN(InodeNum ino, fs(cs)->ShardAllocInode(type, dir));
    Status inserted =
        fs(ds)->ShardAddEntry(dir, name, ino, type, type == FileType::kDirectory);
    if (!inserted.ok()) {
      fs(cs)->ShardAbortAlloc(ino);
      // The intent stays pending (never applied): if the abort's durable
      // state ends up half-applied, the next mount reconciles it.
      return inserted;
    }
    if (intents_ != nullptr) {
      intents_->MarkApplied(slot, {{ds, fs(ds)->mutation_seq()},
                                   {cs, fs(cs)->mutation_seq()}});
    }
    return ino;
  };
  for (int tries = 0;; ++tries) {
    Result<InodeNum> r = attempt();
    if (!r.ok() && r.status().code() == ErrorCode::kBusy && tries < 2) {
      RETURN_IF_ERROR(DrainIntents());  // Ring full: sync, retire, retry.
      continue;
    }
    return r;
  }
}

Result<InodeNum> ShardedLfs::Lookup(InodeNum dir, std::string_view name) {
  const uint32_t s = ShardOf(dir);
  Locked lock(this, s);
  return fs(s)->Lookup(dir, name);
}

Status ShardedLfs::Unlink(InodeNum dir, std::string_view name) {
  const uint32_t ds = ShardOf(dir);
  if (shards_.size() == 1) {
    // Degenerate fast path: skip the discovery probe — the native op does
    // its own entry lookup, so probing here would double the CPU charge
    // and break shards=1 timing identity with the seed.
    Locked lock(this, ds);
    return fs(ds)->Unlink(dir, name);
  }
  int drains = 0;
  for (;;) {
    std::unique_lock<std::mutex> dl(shards_[ds]->mu);
    Result<DirEntry> found = fs(ds)->ShardFindEntry(dir, name);
    if (!found.ok()) {
      return found.status();
    }
    const uint32_t cs = ShardOf(found->ino);
    if (cs == ds) {
      return fs(ds)->Unlink(dir, name);
    }
    std::unique_lock<std::mutex> cl;
    if (cs > ds) {
      cl = std::unique_lock<std::mutex>(shards_[cs]->mu);
    } else {
      // Lock-order inversion: release, relock ascending, revalidate.
      dl.unlock();
      cl = std::unique_lock<std::mutex>(shards_[cs]->mu);
      dl.lock();
      Result<DirEntry> again = fs(ds)->ShardFindEntry(dir, name);
      if (!again.ok() || again->ino != found->ino || again->type != found->type) {
        continue;
      }
    }
    if (found->type == FileType::kDirectory) {
      return IsDirectoryError("unlink of a directory; use Rmdir");
    }
    uint32_t slot = 0;
    if (intents_ != nullptr) {
      IntentRecord rec;
      rec.kind = IntentKind::kUnlink;
      rec.from_dir = dir;
      rec.child = found->ino;
      rec.child_type = found->type;
      rec.from_name = std::string(name);
      Result<uint32_t> published = intents_->Publish(&rec);
      if (!published.ok()) {
        if (published.status().code() == ErrorCode::kBusy && drains++ < 2) {
          dl.unlock();
          if (cl.owns_lock()) {
            cl.unlock();
          }
          RETURN_IF_ERROR(DrainIntents());
          continue;
        }
        return published.status();  // Nothing was mutated.
      }
      slot = published.value();
    }
    RETURN_IF_ERROR(fs(ds)->ShardRemoveEntry(dir, name, /*child_was_dir=*/false));
    RETURN_IF_ERROR(fs(cs)->ShardDropLink(found->ino));
    if (intents_ != nullptr) {
      intents_->MarkApplied(slot, {{ds, fs(ds)->mutation_seq()},
                                   {cs, fs(cs)->mutation_seq()}});
    }
    return OkStatus();
  }
}

Status ShardedLfs::Rmdir(InodeNum dir, std::string_view name) {
  if (name == "." || name == "..") {
    return InvalidArgumentError("cannot remove . or ..");
  }
  const uint32_t ds = ShardOf(dir);
  if (shards_.size() == 1) {
    // Degenerate fast path: see Unlink.
    Locked lock(this, ds);
    return fs(ds)->Rmdir(dir, name);
  }
  int drains = 0;
  for (;;) {
    std::unique_lock<std::mutex> dl(shards_[ds]->mu);
    Result<DirEntry> found = fs(ds)->ShardFindEntry(dir, name);
    if (!found.ok()) {
      return found.status();
    }
    const uint32_t cs = ShardOf(found->ino);
    if (cs == ds) {
      return fs(ds)->Rmdir(dir, name);
    }
    std::unique_lock<std::mutex> cl;
    if (cs > ds) {
      cl = std::unique_lock<std::mutex>(shards_[cs]->mu);
    } else {
      dl.unlock();
      cl = std::unique_lock<std::mutex>(shards_[cs]->mu);
      dl.lock();
      Result<DirEntry> again = fs(ds)->ShardFindEntry(dir, name);
      if (!again.ok() || again->ino != found->ino || again->type != found->type) {
        continue;
      }
    }
    if (found->type != FileType::kDirectory) {
      return NotDirectoryError(name);
    }
    ASSIGN_OR_RETURN(bool empty, fs(cs)->ShardDirIsEmpty(found->ino));
    if (!empty) {
      return NotEmptyError(name);
    }
    uint32_t slot = 0;
    if (intents_ != nullptr) {
      IntentRecord rec;
      rec.kind = IntentKind::kRmdir;
      rec.from_dir = dir;
      rec.child = found->ino;
      rec.child_type = found->type;
      rec.from_name = std::string(name);
      Result<uint32_t> published = intents_->Publish(&rec);
      if (!published.ok()) {
        if (published.status().code() == ErrorCode::kBusy && drains++ < 2) {
          dl.unlock();
          if (cl.owns_lock()) {
            cl.unlock();
          }
          RETURN_IF_ERROR(DrainIntents());
          continue;
        }
        return published.status();  // Nothing was mutated.
      }
      slot = published.value();
    }
    RETURN_IF_ERROR(fs(ds)->ShardRemoveEntry(dir, name, /*child_was_dir=*/true));
    RETURN_IF_ERROR(fs(cs)->ShardReleaseDir(found->ino));
    if (intents_ != nullptr) {
      intents_->MarkApplied(slot, {{ds, fs(ds)->mutation_seq()},
                                   {cs, fs(cs)->mutation_seq()}});
    }
    return OkStatus();
  }
}

Status ShardedLfs::Link(InodeNum dir, std::string_view name, InodeNum target) {
  const uint32_t ds = ShardOf(dir);
  const uint32_t ts = ShardOf(target);
  if (ts == ds) {
    Locked lock(this, ds);
    return fs(ds)->Link(dir, name, target);
  }
  auto attempt = [&]() -> Status {
    auto locks = LockSet({ds, ts});
    RETURN_IF_ERROR(fs(ds)->ShardCheckCanInsert(dir, name));
    ASSIGN_OR_RETURN(FileStat st, fs(ts)->Stat(target));
    if (st.type == FileType::kDirectory) {
      return IsDirectoryError("cannot hard-link a directory");
    }
    uint32_t slot = 0;
    if (intents_ != nullptr) {
      IntentRecord rec;
      rec.kind = IntentKind::kLink;
      rec.from_dir = dir;
      rec.child = target;
      rec.child_type = st.type;
      rec.from_name = std::string(name);
      ASSIGN_OR_RETURN(slot, intents_->Publish(&rec));
    }
    RETURN_IF_ERROR(
        fs(ds)->ShardAddEntry(dir, name, target, st.type, /*child_is_dir=*/false));
    RETURN_IF_ERROR(fs(ts)->ShardAddLink(target));
    if (intents_ != nullptr) {
      intents_->MarkApplied(slot, {{ds, fs(ds)->mutation_seq()},
                                   {ts, fs(ts)->mutation_seq()}});
    }
    return OkStatus();
  };
  for (int tries = 0;; ++tries) {
    Status s = attempt();
    if (s.code() == ErrorCode::kBusy && tries < 2) {
      RETURN_IF_ERROR(DrainIntents());
      continue;
    }
    return s;
  }
}

Status ShardedLfs::Rename(InodeNum from_dir, std::string_view from_name, InodeNum to_dir,
                          std::string_view to_name) {
  if (shards_.size() == 1) {
    Locked lock(this, 0);
    return fs(0)->Rename(from_dir, from_name, to_dir, to_name);
  }
  if (from_name == "." || from_name == ".." || to_name == "." || to_name == "..") {
    return InvalidArgumentError("cannot rename . or ..");
  }
  // rename_mu_ serializes every N>1 rename: only renames reparent
  // directories, so the cross-shard cycle walk below sees a stable
  // topology, and the apply phase cannot race another rename's.
  std::lock_guard<std::mutex> rename_guard(rename_mu_);
  const uint32_t fi = ShardOf(from_dir);
  const uint32_t ti = ShardOf(to_dir);
  int drains = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    bool need_drain = false;
    DirEntry src;
    {
      std::lock_guard<std::mutex> lock(shards_[fi]->mu);
      ASSIGN_OR_RETURN(src, fs(fi)->ShardFindEntry(from_dir, from_name));
    }
    if (from_dir == to_dir && from_name == to_name) {
      return OkStatus();
    }
    const bool src_is_dir = src.type == FileType::kDirectory;
    if (src_is_dir) {
      ASSIGN_OR_RETURN(bool cyclic, IsInSubtreeGlobal(to_dir, src.ino));
      if (cyclic) {
        return InvalidArgumentError("rename would create a cycle");
      }
    }
    std::vector<uint32_t> want = {fi, ti, ShardOf(src.ino)};
    bool restart = false;
    while (!restart) {
      auto locks = LockSet(want);
      // Revalidate: src may have been unlinked/replaced between the
      // discovery read and taking the full lock set.
      Result<DirEntry> src2 = fs(fi)->ShardFindEntry(from_dir, from_name);
      if (!src2.ok() || src2->ino != src.ino || src2->type != src.type) {
        restart = true;
        break;
      }
      Result<DirEntry> dst = fs(ti)->ShardFindEntry(to_dir, to_name);
      if (!dst.ok() && dst.status().code() != ErrorCode::kNotFound) {
        return dst.status();
      }
      if (dst.ok()) {
        const uint32_t di = ShardOf(dst->ino);
        if (std::find(want.begin(), want.end(), di) == want.end()) {
          want.push_back(di);  // Re-lock with the victim's shard included.
          continue;
        }
      }
      LfsFileSystem* from_fs = fs(fi);
      LfsFileSystem* to_fs = fs(ti);
      // Validate everything BEFORE publishing the intent: a published
      // intent means "this op may have started"; a validation failure must
      // leave no trace.
      if (dst.ok()) {
        LfsFileSystem* dst_fs = fs(ShardOf(dst->ino));
        if (dst->type == FileType::kDirectory) {
          if (!src_is_dir) {
            return IsDirectoryError("cannot replace a directory with a file");
          }
          ASSIGN_OR_RETURN(bool empty, dst_fs->ShardDirIsEmpty(dst->ino));
          if (!empty) {
            return NotEmptyError(to_name);
          }
        } else if (src_is_dir) {
          return NotDirectoryError("cannot replace a file with a directory");
        }
      }
      uint32_t slot = 0;
      if (intents_ != nullptr) {
        IntentRecord rec;
        rec.kind = IntentKind::kRename;
        rec.from_dir = from_dir;
        rec.to_dir = to_dir;
        rec.child = src.ino;
        rec.child_type = src.type;
        rec.from_name = std::string(from_name);
        rec.to_name = std::string(to_name);
        if (dst.ok()) {
          rec.victim = dst->ino;
          rec.victim_type = dst->type;
        }
        Result<uint32_t> published = intents_->Publish(&rec);
        if (!published.ok()) {
          if (published.status().code() == ErrorCode::kBusy && drains++ < 2) {
            need_drain = true;  // Drop the lock set, drain, retry the op.
            restart = true;
            break;
          }
          return published.status();  // Nothing was mutated.
        }
        slot = published.value();
      }
      if (dst.ok()) {
        LfsFileSystem* dst_fs = fs(ShardOf(dst->ino));
        if (dst->type == FileType::kDirectory) {
          // Same-directory: the old child's ".." leaves and src was already
          // a child here, so the count drops by one. Cross-directory: one
          // child directory swaps for another — no change.
          RETURN_IF_ERROR(to_fs->ShardReplaceEntry(to_dir, to_name, src.ino, src.type,
                                                   from_dir == to_dir ? -1 : 0));
          RETURN_IF_ERROR(dst_fs->ShardReleaseDir(dst->ino));
        } else {
          RETURN_IF_ERROR(to_fs->ShardReplaceEntry(to_dir, to_name, src.ino, src.type, 0));
          RETURN_IF_ERROR(dst_fs->ShardDropLink(dst->ino));
        }
      } else {
        RETURN_IF_ERROR(to_fs->ShardAddEntry(to_dir, to_name, src.ino, src.type,
                                             src_is_dir && from_dir != to_dir));
      }
      RETURN_IF_ERROR(from_fs->ShardRemoveEntry(from_dir, from_name,
                                                src_is_dir && from_dir != to_dir));
      if (src_is_dir && from_dir != to_dir) {
        RETURN_IF_ERROR(fs(ShardOf(src.ino))->ShardSetDotDot(src.ino, to_dir));
      }
      if (intents_ != nullptr) {
        std::vector<std::pair<uint32_t, uint64_t>> covers = {
            {fi, fs(fi)->mutation_seq()},
            {ti, fs(ti)->mutation_seq()},
            {ShardOf(src.ino), fs(ShardOf(src.ino))->mutation_seq()}};
        if (dst.ok()) {
          covers.emplace_back(ShardOf(dst->ino), fs(ShardOf(dst->ino))->mutation_seq());
        }
        intents_->MarkApplied(slot, std::move(covers));
      }
      return OkStatus();
    }
    if (need_drain) {
      RETURN_IF_ERROR(DrainIntents());
    }
  }
  return BusyError("rename retry budget exhausted");
}

// --- data / single-inode operations --------------------------------------------

Result<uint64_t> ShardedLfs::Read(InodeNum ino, uint64_t offset, std::span<std::byte> out) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, s);
  return fs(s)->Read(ino, offset, out);
}

Result<uint64_t> ShardedLfs::Write(InodeNum ino, uint64_t offset,
                                   std::span<const std::byte> data) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, s);
  return fs(s)->Write(ino, offset, data);
}

Status ShardedLfs::Truncate(InodeNum ino, uint64_t new_size) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, s);
  return fs(s)->Truncate(ino, new_size);
}

Result<FileStat> ShardedLfs::Stat(InodeNum ino) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, s);
  return fs(s)->Stat(ino);
}

Result<std::vector<DirEntry>> ShardedLfs::ReadDir(InodeNum dir) {
  const uint32_t s = ShardOf(dir);
  Locked lock(this, s);
  return fs(s)->ReadDir(dir);
}

Status ShardedLfs::Fsync(InodeNum ino) {
  const uint32_t s = ShardOf(ino);
  Locked lock(this, s);
  return fs(s)->Fsync(ino);
}

// --- fan-out operations --------------------------------------------------------

Status ShardedLfs::Sync() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RETURN_IF_ERROR(shard->fs->Sync());
  }
  return RetireDurableIntents();
}

Status ShardedLfs::Checkpoint() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RETURN_IF_ERROR(shard->fs->Checkpoint());
  }
  return RetireDurableIntents();
}

Status ShardedLfs::DropCaches() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RETURN_IF_ERROR(shard->fs->DropCaches());
  }
  return OkStatus();
}

Status ShardedLfs::Tick() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RETURN_IF_ERROR(shard->fs->Tick());
  }
  // Interval checkpoints may have advanced durable horizons.
  RETURN_IF_ERROR(RetireDurableIntents());
  PublishShardMetrics();
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
  for (size_t i = 0; i < shards_.size(); ++i) {
    // The shard lock serializes these reads against mutating ops — Tick
    // and the other callers invoke this with no shard lock held.
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    LfsFileSystem* f = shards_[i]->fs.get();
    const std::string prefix = "logfs.shard." + std::to_string(i) + ".";
    auto& registry = obs::Registry();
    registry.GetGauge(prefix + "clean_segments").Set(f->CleanSegmentCount());
    registry.GetGauge(prefix + "quarantined_segments").Set(f->QuarantinedSegmentCount());
    registry.GetGauge(prefix + "live_bytes")
        .Set(static_cast<double>(f->TotalLiveBytes()));
    registry.GetGauge(prefix + "checkpoints")
        .Set(static_cast<double>(f->checkpoint_count()));
    const LfsFileSystem::CleanerStats& cs = f->cleaner_stats();
    registry.GetGauge(prefix + "cleaner_passes").Set(static_cast<double>(cs.passes));
    registry.GetGauge(prefix + "segments_cleaned")
        .Set(static_cast<double>(cs.segments_cleaned));
    // The paper's write-cost figure of merit at this shard's current
    // overall utilization.
    const LfsSuperblock& sb = f->superblock();
    const double capacity =
        static_cast<double>(sb.num_segments) * static_cast<double>(sb.segment_size);
    const double u =
        capacity > 0.0 ? static_cast<double>(f->TotalLiveBytes()) / capacity : 0.0;
    registry.GetGauge(prefix + "write_cost").Set(PaperWriteCost(u));
  }
  // Each shard's Tick republished logfs.seg.util.* with only its own
  // segments (last writer wins); overwrite with the merged distribution so
  // the global gauges describe the whole volume.
  std::vector<double> utils;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->fs->CollectSegmentUtilization(&utils);
  }
  obs::PublishUtilization(utils);
}

// --- global checker ------------------------------------------------------------
namespace {

// The check body: the per-log checks on every shard, then the namespace
// check across all of them, all through DIRECT shard access (sfs->shard(i)
// — never the router's locking front-end, since CheckShardedLfs already
// holds every shard lock). Works for any shard count >= 1.
Result<LfsCheckReport> RunShardedCheck(ShardedLfs* sfs, bool verify_data) {
  LfsCheckReport report;
  std::vector<LfsFileSystem*> logs;
  for (uint32_t i = 0; i < sfs->shard_count(); ++i) {
    logs.push_back(sfs->shard(i));
    RETURN_IF_ERROR(LfsChecker(sfs->shard(i))
                        .CheckLog(verify_data, "shard " + std::to_string(i) + ": ", &report));
  }
  CheckNamespace(logs, [&](InodeNum ino) { return size_t{sfs->ShardOf(ino)}; }, &report);
  return report;
}

}  // namespace

Result<LfsCheckReport> CheckShardedLfs(ShardedLfs* sfs, bool verify_data,
                                       RepairMode repair) {
  if (sfs->shard_count() == 1 && repair == RepairMode::kCheckOnly) {
    // Degenerate configuration: the unsliced single-log checker, exactly as
    // before sharding existed.
    return LfsChecker(sfs->shard(0)).Check(verify_data);
  }
  // Self-serialize against live traffic: the rename lock keeps the
  // directory topology stable and the shard locks quiesce every log, so
  // the check (and the repairer) may run online.
  std::lock_guard<std::mutex> rename_guard(sfs->rename_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(sfs->shards_.size());
  for (auto& shard : sfs->shards_) {
    locks.emplace_back(shard->mu);
  }
  ASSIGN_OR_RETURN(LfsCheckReport report, RunShardedCheck(sfs, verify_data));
  if (repair == RepairMode::kCheckOnly || report.ok()) {
    return report;
  }
  // Online repair: fix the namespace in place (no intent work list — this
  // path exists precisely for images without a usable intent log), make
  // the repair durable, and report the re-checked state.
  std::vector<LfsFileSystem*> raw;
  raw.reserve(sfs->shards_.size());
  for (auto& shard : sfs->shards_) {
    raw.push_back(shard->fs.get());
  }
  // Repair-class attribution for the in-place fixes and their durability
  // sync (same bracketing as mount-time reconciliation).
  for (LfsFileSystem* fs : raw) {
    fs->set_repair_context(true);
  }
  Result<RepairReport> repaired = RepairShardedNamespace(raw, {});
  Status synced = OkStatus();
  if (repaired.ok()) {
    for (auto& shard : sfs->shards_) {
      synced = shard->fs->Sync();
      if (!synced.ok()) {
        break;
      }
    }
  }
  for (LfsFileSystem* fs : raw) {
    fs->set_repair_context(false);
  }
  RETURN_IF_ERROR(repaired.status());
  RETURN_IF_ERROR(synced);
  RepairReport rep = std::move(*repaired);
  ASSIGN_OR_RETURN(LfsCheckReport after, RunShardedCheck(sfs, verify_data));
  after.repairs_applied = rep.total_edits();
  after.repair_actions = std::move(rep.actions);
  return after;
}

}  // namespace logfs
