#include "src/cache/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/obs/metrics.h"

namespace logfs {
namespace {

// Shadow the per-instance CacheStats into the process-wide registry so
// snapshots correlate cache behaviour with segment-writer and cleaner
// activity. One static lookup per process; increments are relaxed atomic
// adds (no-ops when metrics are compiled out).
struct CacheMetrics {
  obs::Counter& hits = obs::Registry().GetCounter("logfs.cache.hits");
  obs::Counter& misses = obs::Registry().GetCounter("logfs.cache.misses");
  obs::Counter& evictions = obs::Registry().GetCounter("logfs.cache.evictions");
  obs::Counter& pins = obs::Registry().GetCounter("logfs.cache.pins");
  obs::Counter& writeback_batches = obs::Registry().GetCounter("logfs.cache.writeback_batches");
  obs::Counter& blocks_written_back =
      obs::Registry().GetCounter("logfs.cache.blocks_written_back");
};

CacheMetrics& Metrics() {
  static CacheMetrics* metrics = new CacheMetrics();
  return *metrics;
}

}  // namespace

CacheRef::CacheRef(BufferCache* cache, CacheBlock* block) : cache_(cache), block_(block) {
  if (block_ != nullptr) {
    cache_->Pin(block_);
  }
}

CacheRef::~CacheRef() { Release(); }

CacheRef::CacheRef(CacheRef&& other) noexcept : cache_(other.cache_), block_(other.block_) {
  other.cache_ = nullptr;
  other.block_ = nullptr;
}

CacheRef& CacheRef::operator=(CacheRef&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    block_ = other.block_;
    other.cache_ = nullptr;
    other.block_ = nullptr;
  }
  return *this;
}

void CacheRef::Release() {
  if (block_ != nullptr) {
    cache_->Unpin(block_);
    block_ = nullptr;
    cache_ = nullptr;
  }
}

BufferCache::BufferCache(size_t block_size, CachePolicy policy, const SimClock* clock)
    : block_size_(block_size), policy_(policy), clock_(clock) {
  if (policy_.dirty_high_watermark == 0) {
    policy_.dirty_high_watermark = std::max<size_t>(1, policy_.capacity_blocks / 4);
  }
}

BufferCache::~BufferCache() = default;

void BufferCache::Pin(CacheBlock* block) {
  ++block->pin_count_;
  Metrics().pins.Increment();
}

void BufferCache::Unpin(CacheBlock* block) {
  assert(block->pin_count_ > 0);
  --block->pin_count_;
}

CacheBlock& BufferCache::Touch(LruList::iterator it) {
  // Splicing within one list keeps `it` (and the map's copy of it) valid.
  lru_.splice(lru_.begin(), lru_, it);
  it->block.last_use_ = ++use_clock_;
  return it->block;
}

CacheBlock& BufferCache::Insert(const BlockKey& key) {
  lru_.emplace_front();
  CacheBlock& block = lru_.front().block;
  block.key_ = key;
  block.last_use_ = ++use_clock_;
  map_.emplace(key, lru_.begin());
  objects_[key.object_id].insert(key.index);
  return block;
}

void BufferCache::Erase(LruList::iterator it) {
  const BlockKey key = it->block.key();
  MarkClean(&it->block);
  auto object = objects_.find(key.object_id);
  object->second.erase(key.index);
  if (object->second.empty()) {
    objects_.erase(object);
  }
  map_.erase(key);
  if (in_writeback_) {
    retired_.splice(retired_.end(), lru_, it);
  } else {
    lru_.erase(it);
  }
}

bool BufferCache::EvictOne() {
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if (!it->block.dirty() && !it->block.pinned()) {
      Erase(std::next(it).base());
      ++stats_.evictions;
      Metrics().evictions.Increment();
      return true;
    }
  }
  return false;
}

Status BufferCache::EnsureCapacity() {
  if (map_.size() < policy_.capacity_blocks) {
    return OkStatus();
  }
  // First choice: evict the least recently used clean, unpinned block.
  if (EvictOne()) {
    return OkStatus();
  }
  // All clean blocks pinned (or none): write everything dirty back, then
  // retry the eviction scan once. Re-entrant flushes (a writeback handler
  // acquiring blocks while the cache is full) are refused instead of
  // recursing.
  if (in_writeback_) {
    return BusyError("cache exhausted during writeback");
  }
  RETURN_IF_ERROR(FlushAll());
  return EvictOne() ? OkStatus() : BusyError("cache full of pinned blocks");
}

Result<CacheBlock*> BufferCache::MakeRoomFor(const BlockKey& key) {
  RETURN_IF_ERROR(EnsureCapacity());
  auto it = map_.find(key);
  return it != map_.end() ? &Touch(it->second) : nullptr;
}

Result<CacheRef> BufferCache::Acquire(const BlockKey& key, const FetchFn& fetch) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    ++stats_.hits;
    Metrics().hits.Increment();
    return CacheRef(this, &Touch(it->second));
  }
  ++stats_.misses;
  Metrics().misses.Increment();
  ASSIGN_OR_RETURN(CacheBlock * cached, MakeRoomFor(key));
  if (cached != nullptr) {
    return CacheRef(this, cached);
  }
  CacheBlock& block = Insert(key);
  block.data_.resize(block_size_);
  Status fetched = fetch(std::span<std::byte>(block.data_));
  if (!fetched.ok()) {
    InvalidateBlock(key);
    return fetched;
  }
  return CacheRef(this, &block);
}

Result<CacheRef> BufferCache::Install(const BlockKey& key, std::span<const std::byte> data) {
  if (data.size() != block_size_) {
    return InvalidArgumentError("Install data must be exactly one block");
  }
  auto it = map_.find(key);
  if (it != map_.end()) {
    ++stats_.hits;
    Metrics().hits.Increment();
    return CacheRef(this, &Touch(it->second));
  }
  ++stats_.misses;
  Metrics().misses.Increment();
  ASSIGN_OR_RETURN(CacheBlock * cached, MakeRoomFor(key));
  if (cached != nullptr) {
    return CacheRef(this, cached);
  }
  CacheBlock& block = Insert(key);
  block.data_.assign(data.begin(), data.end());
  return CacheRef(this, &block);
}

CacheRef BufferCache::AcquireIfPresent(const BlockKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return CacheRef();
  }
  ++stats_.hits;
  Metrics().hits.Increment();
  return CacheRef(this, &Touch(it->second));
}

Result<CacheRef> BufferCache::Create(const BlockKey& key) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Re-creating a cached block (e.g. rewriting a freshly truncated file):
    // zero it and hand it back.
    CacheBlock& existing = Touch(it->second);
    std::memset(existing.data_.data(), 0, existing.data_.size());
    return CacheRef(this, &existing);
  }
  ASSIGN_OR_RETURN(CacheBlock * cached, MakeRoomFor(key));
  if (cached != nullptr) {
    return CacheRef(this, cached);  // Write-back just cached it: keep its bytes.
  }
  CacheBlock& block = Insert(key);
  block.data_.assign(block_size_, std::byte{0});
  return CacheRef(this, &block);
}

void BufferCache::MarkDirty(CacheBlock* block) {
  if (!block->dirty_) {
    block->dirty_ = true;
    block->dirty_since_ = clock_ != nullptr ? clock_->Now() : 0.0;
    block->dirty_pos_ = dirty_.insert(dirty_.end(), block);
  }
}

void BufferCache::MarkClean(CacheBlock* block) {
  if (block->dirty_) {
    block->dirty_ = false;
    dirty_.erase(block->dirty_pos_);
  }
}

bool BufferCache::NeedsWriteback() const { return dirty_.size() >= policy_.dirty_high_watermark; }

Status BufferCache::WriteBackBlocks(std::vector<CacheBlock*> blocks) {
  if (blocks.empty()) {
    return OkStatus();
  }
  if (writeback_ == nullptr) {
    return InvalidArgumentError("no writeback handler registered");
  }
  std::sort(blocks.begin(), blocks.end(), [](const CacheBlock* a, const CacheBlock* b) {
    if (a->key().object_id != b->key().object_id) {
      return a->key().object_id < b->key().object_id;
    }
    return a->key().index < b->key().index;
  });
  in_writeback_ = true;
  Status written = writeback_->WriteBack(blocks);
  in_writeback_ = false;
  if (written.ok()) {
    // Blocks the handler let go of (marked clean, then evicted to make
    // room) sit in retired_ and are already clean.
    for (CacheBlock* block : blocks) {
      MarkClean(block);
    }
  }
  retired_.clear();
  RETURN_IF_ERROR(written);
  ++stats_.writeback_batches;
  stats_.blocks_written_back += blocks.size();
  Metrics().writeback_batches.Increment();
  Metrics().blocks_written_back.Increment(blocks.size());
  return OkStatus();
}

Status BufferCache::MaybeWriteBackByAge() {
  // Blocks join the dirty list as they become dirty and simulated time
  // never runs backwards, so the head is the oldest dirty block.
  if (clock_ == nullptr || dirty_.empty() ||
      clock_->Now() - dirty_.front()->dirty_since() < policy_.writeback_age_seconds) {
    return OkStatus();
  }
  // The paper's write-back flushes everything dirty once the age trigger
  // fires, so the resulting segment write is as large as possible.
  return WriteBackBlocks(std::vector<CacheBlock*>(dirty_.begin(), dirty_.end()));
}

Status BufferCache::FlushAll() {
  // A writeback handler may dirty additional blocks (e.g. LFS updating an
  // indirect block not in the batch); loop until the cache is clean, with a
  // bound to turn a misbehaving handler into an error instead of a hang.
  for (int round = 0; round < 16; ++round) {
    if (dirty_.empty()) {
      return OkStatus();
    }
    RETURN_IF_ERROR(WriteBackBlocks(std::vector<CacheBlock*>(dirty_.begin(), dirty_.end())));
  }
  return dirty_.empty() ? OkStatus()
                        : IoError("writeback handler keeps producing dirty blocks");
}

void BufferCache::InvalidateObject(uint64_t object_id, uint64_t first_index) {
  auto object = objects_.find(object_id);
  if (object == objects_.end()) {
    return;
  }
  // Copy the doomed indices out: erasing the last one drops the set itself.
  const std::vector<uint64_t> doomed(object->second.lower_bound(first_index),
                                     object->second.end());
  for (uint64_t index : doomed) {
    InvalidateBlock(BlockKey{object_id, index});
  }
}

void BufferCache::InvalidateBlock(const BlockKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return;
  }
  assert(!it->second->block.pinned() && "invalidating a pinned block");
  Erase(it->second);
}

void BufferCache::DropClean() {
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (!it->block.dirty() && !it->block.pinned()) {
      Erase(it);
    }
    it = next;
  }
}

std::vector<CacheBlock*> BufferCache::DirtyBlocks() const {
  std::vector<CacheBlock*> dirty(dirty_.begin(), dirty_.end());
  std::sort(dirty.begin(), dirty.end(), [](const CacheBlock* a, const CacheBlock* b) {
    return a->last_use_ > b->last_use_;
  });
  return dirty;
}

}  // namespace logfs
