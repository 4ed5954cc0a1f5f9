// Unit tests for the write-behind BufferCache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <list>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/lfs/lfs_check.h"
#include "src/sim/sim_clock.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

constexpr size_t kBlockSize = 512;

// Writeback handler that records what it was given.
class RecordingHandler : public WritebackHandler {
 public:
  Status WriteBack(std::span<CacheBlock* const> blocks) override {
    ++batches;
    std::vector<BlockKey> keys;
    for (CacheBlock* block : blocks) {
      keys.push_back(block->key());
      last_data[block->key().index] =
          std::vector<std::byte>(block->data().begin(), block->data().end());
    }
    batch_keys.push_back(keys);
    if (fail_next) {
      fail_next = false;
      return IoError("injected writeback failure");
    }
    return OkStatus();
  }

  int batches = 0;
  bool fail_next = false;
  std::vector<std::vector<BlockKey>> batch_keys;
  std::map<uint64_t, std::vector<std::byte>> last_data;
};

BufferCache::FetchFn FillWith(uint8_t value) {
  return [value](std::span<std::byte> out) {
    std::memset(out.data(), value, out.size());
    return OkStatus();
  };
}

CachePolicy SmallPolicy(size_t capacity, size_t watermark = 0) {
  CachePolicy policy;
  policy.capacity_blocks = capacity;
  policy.dirty_high_watermark = watermark != 0 ? watermark : capacity;
  return policy;
}

TEST(BufferCacheTest, MissFetchesThenHits) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(4), &clock);
  auto ref = cache.Acquire(BlockKey{1, 0}, FillWith(0xAA));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref)->data()[0], std::byte{0xAA});
  EXPECT_EQ(cache.stats().misses, 1u);
  auto again = cache.Acquire(BlockKey{1, 0}, FillWith(0xBB));  // Fetch not called.
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->data()[0], std::byte{0xAA});
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BufferCacheTest, FetchFailurePropagatesAndLeavesNoEntry) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(4), &clock);
  auto ref = cache.Acquire(BlockKey{1, 0}, [](std::span<std::byte>) {
    return IoError("bad sector");
  });
  EXPECT_FALSE(ref.ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BufferCacheTest, CreateZeroFills) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(4), &clock);
  auto ref = cache.Create(BlockKey{2, 9});
  ASSERT_TRUE(ref.ok());
  for (std::byte b : (*ref)->data()) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(BufferCacheTest, LruEvictionOfCleanBlocks) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(2), &clock);
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 0}, FillWith(1)).ok());
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 1}, FillWith(2)).ok());
  // Touch block 0 so block 1 is LRU.
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 0}, FillWith(0)).ok());
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 2}, FillWith(3)).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.AcquireIfPresent(BlockKey{1, 0}));
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{1, 1}));  // Evicted.
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BufferCacheTest, PinnedBlocksAreNotEvicted) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(2), &clock);
  auto pinned = cache.Acquire(BlockKey{1, 0}, FillWith(1));
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 1}, FillWith(2)).ok());
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 2}, FillWith(3)).ok());
  // Block 0 is pinned by `pinned`; block 1 must have been evicted instead.
  EXPECT_TRUE(cache.AcquireIfPresent(BlockKey{1, 0}));
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{1, 1}));
}

TEST(BufferCacheTest, DirtyBlocksWrittenBackOnFlushAll) {
  SimClock clock;
  RecordingHandler handler;
  BufferCache cache(kBlockSize, SmallPolicy(8), &clock);
  cache.set_writeback_handler(&handler);
  auto ref = cache.Acquire(BlockKey{1, 3}, FillWith(0));
  ASSERT_TRUE(ref.ok());
  (*ref)->mutable_data()[0] = std::byte{0x5A};
  cache.MarkDirty(ref->get());
  EXPECT_EQ(cache.dirty_count(), 1u);
  ref->Release();
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(handler.batches, 1);
  EXPECT_EQ(handler.last_data[3][0], std::byte{0x5A});
}

TEST(BufferCacheTest, WritebackBatchesSortedByKey) {
  SimClock clock;
  RecordingHandler handler;
  BufferCache cache(kBlockSize, SmallPolicy(8), &clock);
  cache.set_writeback_handler(&handler);
  for (uint64_t index : {5u, 1u, 3u}) {
    auto ref = cache.Acquire(BlockKey{1, index}, FillWith(0));
    ASSERT_TRUE(ref.ok());
    cache.MarkDirty(ref->get());
  }
  ASSERT_TRUE(cache.FlushAll().ok());
  ASSERT_EQ(handler.batch_keys.size(), 1u);
  ASSERT_EQ(handler.batch_keys[0].size(), 3u);
  EXPECT_EQ(handler.batch_keys[0][0].index, 1u);
  EXPECT_EQ(handler.batch_keys[0][1].index, 3u);
  EXPECT_EQ(handler.batch_keys[0][2].index, 5u);
}

TEST(BufferCacheTest, FailedWritebackKeepsBlocksDirty) {
  SimClock clock;
  RecordingHandler handler;
  handler.fail_next = true;
  BufferCache cache(kBlockSize, SmallPolicy(8), &clock);
  cache.set_writeback_handler(&handler);
  auto ref = cache.Acquire(BlockKey{1, 0}, FillWith(0));
  ASSERT_TRUE(ref.ok());
  cache.MarkDirty(ref->get());
  ref->Release();
  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_TRUE(cache.FlushAll().ok());  // Retry succeeds.
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(BufferCacheTest, AgeBasedWritebackHonorsThreshold) {
  SimClock clock;
  RecordingHandler handler;
  CachePolicy policy = SmallPolicy(8);
  policy.writeback_age_seconds = 30.0;
  BufferCache cache(kBlockSize, policy, &clock);
  cache.set_writeback_handler(&handler);
  auto ref = cache.Acquire(BlockKey{1, 0}, FillWith(0));
  ASSERT_TRUE(ref.ok());
  cache.MarkDirty(ref->get());
  ref->Release();
  clock.Advance(10.0);
  ASSERT_TRUE(cache.MaybeWriteBackByAge().ok());
  EXPECT_EQ(handler.batches, 0);  // Too young.
  clock.Advance(25.0);
  ASSERT_TRUE(cache.MaybeWriteBackByAge().ok());
  EXPECT_EQ(handler.batches, 1);  // 35 s old now.
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(BufferCacheTest, AgeTriggerFlushesAllDirtyBlocks) {
  // Once one block crosses the age threshold, the whole dirty set goes out
  // (maximizing the segment write, as LFS wants).
  SimClock clock;
  RecordingHandler handler;
  CachePolicy policy = SmallPolicy(8);
  policy.writeback_age_seconds = 30.0;
  BufferCache cache(kBlockSize, policy, &clock);
  cache.set_writeback_handler(&handler);
  {
    auto old_ref = cache.Acquire(BlockKey{1, 0}, FillWith(0));
    ASSERT_TRUE(old_ref.ok());
    cache.MarkDirty(old_ref->get());
  }
  clock.Advance(31.0);
  {
    auto young_ref = cache.Acquire(BlockKey{1, 1}, FillWith(0));
    ASSERT_TRUE(young_ref.ok());
    cache.MarkDirty(young_ref->get());
  }
  ASSERT_TRUE(cache.MaybeWriteBackByAge().ok());
  EXPECT_EQ(handler.batches, 1);
  ASSERT_EQ(handler.batch_keys[0].size(), 2u);
}

TEST(BufferCacheTest, NeedsWritebackAtHighWatermark) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(8, /*watermark=*/2), &clock);
  auto a = cache.Acquire(BlockKey{1, 0}, FillWith(0));
  ASSERT_TRUE(a.ok());
  cache.MarkDirty(a->get());
  EXPECT_FALSE(cache.NeedsWriteback());
  auto b = cache.Acquire(BlockKey{1, 1}, FillWith(0));
  ASSERT_TRUE(b.ok());
  cache.MarkDirty(b->get());
  EXPECT_TRUE(cache.NeedsWriteback());
}

TEST(BufferCacheTest, InvalidateObjectDropsDirtyBlocks) {
  SimClock clock;
  RecordingHandler handler;
  BufferCache cache(kBlockSize, SmallPolicy(8), &clock);
  cache.set_writeback_handler(&handler);
  for (uint64_t index = 0; index < 3; ++index) {
    auto ref = cache.Acquire(BlockKey{5, index}, FillWith(0));
    ASSERT_TRUE(ref.ok());
    cache.MarkDirty(ref->get());
  }
  cache.InvalidateObject(5, /*first_index=*/1);
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_TRUE(cache.AcquireIfPresent(BlockKey{5, 0}));
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{5, 1}));
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{5, 2}));
  cache.InvalidateObject(5);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(BufferCacheTest, InvalidateSingleBlock) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(8), &clock);
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 0}, FillWith(0)).ok());
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 1}, FillWith(0)).ok());
  cache.InvalidateBlock(BlockKey{1, 0});
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{1, 0}));
  EXPECT_TRUE(cache.AcquireIfPresent(BlockKey{1, 1}));
  cache.InvalidateBlock(BlockKey{9, 9});  // Absent: no-op.
}

TEST(BufferCacheTest, DropCleanKeepsDirty) {
  SimClock clock;
  RecordingHandler handler;
  BufferCache cache(kBlockSize, SmallPolicy(8), &clock);
  cache.set_writeback_handler(&handler);
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 0}, FillWith(0)).ok());
  auto dirty_ref = cache.Acquire(BlockKey{1, 1}, FillWith(0));
  ASSERT_TRUE(dirty_ref.ok());
  cache.MarkDirty(dirty_ref->get());
  dirty_ref->Release();
  cache.DropClean();
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{1, 0}));
  EXPECT_TRUE(cache.AcquireIfPresent(BlockKey{1, 1}));
}

TEST(BufferCacheTest, EvictionTriggersWritebackWhenAllDirty) {
  SimClock clock;
  RecordingHandler handler;
  BufferCache cache(kBlockSize, SmallPolicy(2), &clock);
  cache.set_writeback_handler(&handler);
  for (uint64_t index = 0; index < 2; ++index) {
    auto ref = cache.Acquire(BlockKey{1, index}, FillWith(0));
    ASSERT_TRUE(ref.ok());
    cache.MarkDirty(ref->get());
  }
  // Cache is full of dirty blocks; acquiring a third must flush.
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 2}, FillWith(0)).ok());
  EXPECT_GE(handler.batches, 1);
  EXPECT_EQ(cache.size(), 2u);
}

// Write-back handler that, like LFS on a small cache, marks each block clean
// as soon as it is staged and then needs cache room itself (LFS fetching an
// indirect block to record the new address), so it evicts blocks of the
// very batch it was handed.
class ReentrantHandler : public WritebackHandler {
 public:
  explicit ReentrantHandler(BufferCache* cache) : cache_(cache) {}

  Status WriteBack(std::span<CacheBlock* const> blocks) override {
    for (CacheBlock* block : blocks) {
      cache_->MarkClean(block);
    }
    for (const BlockKey& key : to_create) {
      ASSIGN_OR_RETURN(CacheRef ref, cache_->Create(key));
      ref->mutable_data()[0] = std::byte{0x77};
    }
    to_create.clear();
    return OkStatus();
  }

  std::vector<BlockKey> to_create;

 private:
  BufferCache* cache_;
};

TEST(BufferCacheTest, BlocksEvictedDuringWritebackOutliveTheBatch) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(4), &clock);
  ReentrantHandler handler(&cache);
  cache.set_writeback_handler(&handler);
  for (uint64_t index = 0; index < 4; ++index) {
    auto ref = cache.Acquire(BlockKey{1, index}, FillWith(0));
    ASSERT_TRUE(ref.ok());
    cache.MarkDirty(ref->get());
  }
  // A full, all-dirty cache: the miss flushes, and the handler's own three
  // creates evict three blocks of its batch before the batch is marked
  // clean (a use-after-free under ASan if those blocks were freed early).
  handler.to_create = {BlockKey{2, 0}, BlockKey{2, 1}, BlockKey{2, 2}};
  ASSERT_TRUE(cache.Acquire(BlockKey{1, 4}, FillWith(0)).ok());
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_TRUE(cache.DirtyBlocks().empty());
  for (uint64_t index = 0; index < 3; ++index) {
    EXPECT_TRUE(cache.AcquireIfPresent(BlockKey{2, index})) << index;
  }
}

TEST(BufferCacheTest, MissReturnsTheBlockItsOwnWritebackCached) {
  SimClock clock;
  BufferCache cache(kBlockSize, SmallPolicy(2), &clock);
  ReentrantHandler handler(&cache);
  cache.set_writeback_handler(&handler);
  for (uint64_t index = 0; index < 2; ++index) {
    auto ref = cache.Acquire(BlockKey{1, index}, FillWith(0));
    ASSERT_TRUE(ref.ok());
    cache.MarkDirty(ref->get());
  }
  // Making room for {9, 0} flushes, and the flush caches {9, 0} itself: the
  // miss must hand back that block, not fetch a second copy over it.
  handler.to_create = {BlockKey{9, 0}};
  auto ref = cache.Acquire(BlockKey{9, 0}, FillWith(0x11));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref)->data()[0], std::byte{0x77});
  ref->Release();
  // One copy only: dropping the object empties the cache (the flush left it
  // clean and the room-making eviction took the other block).
  EXPECT_EQ(cache.size(), 1u);
  cache.InvalidateObject(9);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.AcquireIfPresent(BlockKey{9, 0}));
}

// --- Differential test against a full-scan reference model ----------------

// Byte 0 of a block never written back: a function of the key.
uint8_t InitialValue(const BlockKey& key) {
  return static_cast<uint8_t>(key.object_id * 31 + key.index * 7 + 1);
}

// A device of one byte per block (byte 0 stands for the block's contents)
// behind a handler that records every batch it is handed. The cache writes
// back through it; the reference model keeps its own copy of the same state.
class ByteDisk : public WritebackHandler {
 public:
  Status WriteBack(std::span<CacheBlock* const> blocks) override {
    std::vector<BlockKey> keys;
    for (CacheBlock* block : blocks) {
      keys.push_back(block->key());
    }
    batches.push_back(std::move(keys));
    if (fail_next) {
      fail_next = false;
      return IoError("injected writeback failure");
    }
    for (CacheBlock* block : blocks) {
      bytes[{block->key().object_id, block->key().index}] =
          std::to_integer<uint8_t>(block->data()[0]);
    }
    return OkStatus();
  }

  uint8_t Read(const BlockKey& key) const {
    auto it = bytes.find({key.object_id, key.index});
    return it != bytes.end() ? it->second : InitialValue(key);
  }

  bool fail_next = false;
  std::vector<std::vector<BlockKey>> batches;
  std::map<std::pair<uint64_t, uint64_t>, uint8_t> bytes;
};

// The cache as it was specified before it kept a dirty list and an object
// index: one LRU list (front = most recently used), and every trigger
// answered by walking all of it. Write-back goes to `disk`, whose batches
// and injected failure mirror the real handler's.
class ReferenceCache {
 public:
  struct Block {
    BlockKey key;
    uint8_t value = 0;
    bool dirty = false;
    double dirty_since = 0.0;
    int pins = 0;
  };

  ReferenceCache(const CachePolicy& policy, const SimClock* clock, ByteDisk* disk)
      : policy_(policy), clock_(clock), disk_(disk) {}

  Result<Block*> Acquire(const BlockKey& key, bool fetch_fails) {
    if (Block* block = Touch(key)) {
      ++stats.hits;
      return block;
    }
    ++stats.misses;
    RETURN_IF_ERROR(EnsureCapacity());
    if (fetch_fails) {
      return IoError("injected fetch failure");
    }
    lru.push_front(Block{key, disk_->Read(key)});
    return &lru.front();
  }

  Result<Block*> Install(const BlockKey& key, uint8_t value) {
    if (Block* block = Touch(key)) {
      ++stats.hits;
      return block;
    }
    ++stats.misses;
    RETURN_IF_ERROR(EnsureCapacity());
    lru.push_front(Block{key, value});
    return &lru.front();
  }

  Block* AcquireIfPresent(const BlockKey& key) {
    Block* block = Touch(key);
    if (block != nullptr) {
      ++stats.hits;
    }
    return block;
  }

  Result<Block*> Create(const BlockKey& key) {
    if (Block* block = Touch(key)) {
      block->value = 0;
      return block;
    }
    RETURN_IF_ERROR(EnsureCapacity());
    lru.push_front(Block{key, 0});
    return &lru.front();
  }

  void MarkDirty(Block* block) {
    if (!block->dirty) {
      block->dirty = true;
      block->dirty_since = clock_->Now();
    }
  }

  Status MaybeWriteBackByAge() {
    for (Block& block : lru) {
      if (block.dirty && clock_->Now() - block.dirty_since >= policy_.writeback_age_seconds) {
        return WriteBack(AllDirty());
      }
    }
    return OkStatus();
  }

  Status FlushAll() {
    for (int round = 0; round < 16; ++round) {
      if (DirtyKeys().empty()) {
        return OkStatus();
      }
      RETURN_IF_ERROR(WriteBack(AllDirty()));
    }
    return IoError("writeback handler keeps producing dirty blocks");
  }

  void InvalidateObject(uint64_t object_id, uint64_t first_index) {
    lru.remove_if([&](const Block& block) {
      return block.key.object_id == object_id && block.key.index >= first_index;
    });
  }

  void InvalidateBlock(const BlockKey& key) {
    lru.remove_if([&](const Block& block) { return block.key == key; });
  }

  void DropClean() {
    lru.remove_if([](const Block& block) { return !block.dirty && block.pins == 0; });
  }

  Block* Find(const BlockKey& key) {
    for (Block& block : lru) {
      if (block.key == key) {
        return &block;
      }
    }
    return nullptr;
  }

  std::vector<BlockKey> DirtyKeys() const {
    std::vector<BlockKey> keys;
    for (const Block& block : lru) {
      if (block.dirty) {
        keys.push_back(block.key);
      }
    }
    return keys;
  }

  std::list<Block> lru;
  CacheStats stats;

 private:
  Block* Touch(const BlockKey& key) {
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->key == key) {
        lru.splice(lru.begin(), lru, it);
        return &lru.front();
      }
    }
    return nullptr;
  }

  std::vector<Block*> AllDirty() {
    std::vector<Block*> dirty;
    for (Block& block : lru) {
      if (block.dirty) {
        dirty.push_back(&block);
      }
    }
    return dirty;
  }

  Status WriteBack(std::vector<Block*> blocks) {
    std::sort(blocks.begin(), blocks.end(), [](const Block* a, const Block* b) {
      return a->key.object_id != b->key.object_id ? a->key.object_id < b->key.object_id
                                                  : a->key.index < b->key.index;
    });
    std::vector<BlockKey> keys;
    for (const Block* block : blocks) {
      keys.push_back(block->key);
    }
    disk_->batches.push_back(std::move(keys));
    if (disk_->fail_next) {
      disk_->fail_next = false;
      return IoError("injected writeback failure");
    }
    for (Block* block : blocks) {
      disk_->bytes[{block->key.object_id, block->key.index}] = block->value;
      block->dirty = false;
    }
    ++stats.writeback_batches;
    stats.blocks_written_back += blocks.size();
    return OkStatus();
  }

  bool EvictOne() {
    for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
      if (!it->dirty && it->pins == 0) {
        lru.erase(std::next(it).base());
        ++stats.evictions;
        return true;
      }
    }
    return false;
  }

  Status EnsureCapacity() {
    if (lru.size() < policy_.capacity_blocks || EvictOne()) {
      return OkStatus();
    }
    RETURN_IF_ERROR(FlushAll());
    return EvictOne() ? OkStatus() : BusyError("cache full of pinned blocks");
  }

  CachePolicy policy_;
  const SimClock* clock_;
  ByteDisk* disk_;
};

// Drives the cache and the model with one seeded op sequence and compares
// them after every step.
class CacheDifferential {
 public:
  explicit CacheDifferential(uint64_t seed)
      : rng_(seed), cache_(kBlockSize, Policy(), &clock_), model_(Policy(), &clock_, &model_disk_) {
    cache_.set_writeback_handler(&disk_);
  }

  static CachePolicy Policy() {
    CachePolicy policy;
    policy.capacity_blocks = 12;  // 40 distinct keys: evictions are constant.
    policy.dirty_high_watermark = 6;
    policy.writeback_age_seconds = 30.0;
    return policy;
  }

  void Run(int steps) {
    for (step_ = 0; step_ < steps && !::testing::Test::HasFailure(); ++step_) {
      Step();
      Compare();
    }
  }

 private:
  BlockKey RandomKey() { return BlockKey{1 + Next(5), Next(8)}; }
  uint64_t Next(uint64_t n) { return rng_() % n; }
  uint8_t RandomByte() { return static_cast<uint8_t>(Next(256)); }

  // Applies the same write to both sides: byte 0 changes, then MarkDirty.
  void Write(CacheBlock* block, ReferenceCache::Block* model_block) {
    const uint8_t value = RandomByte();
    block->mutable_data()[0] = std::byte{value};
    model_block->value = value;
    cache_.MarkDirty(block);
    model_.MarkDirty(model_block);
  }

  // A pinned block stays pinned across steps (up to three at a time).
  void MaybeKeepPin(CacheRef ref, const BlockKey& key) {
    if (pins_.size() < 3 && Next(4) == 0) {
      pins_.emplace_back(key, std::move(ref));
      ++model_.Find(key)->pins;
    }
  }

  void ReleasePin(size_t i) {
    --model_.Find(pins_[i].first)->pins;
    pins_.erase(pins_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void ReleaseAllPins() {
    while (!pins_.empty()) {
      ReleasePin(pins_.size() - 1);
    }
  }

  void ExpectSameOutcome(const Status& real, const Status& model) {
    EXPECT_EQ(real.ok(), model.ok())
        << "step " << step_ << ": " << real.ToString() << " vs " << model.ToString();
  }

  void ExpectSameBlock(const CacheBlock* block, const ReferenceCache::Block* model_block) {
    EXPECT_EQ(block->key(), model_block->key) << "step " << step_;
    EXPECT_EQ(std::to_integer<uint8_t>(block->data()[0]), model_block->value)
        << "step " << step_;
  }

  void Step() {
    // Injected write-back failure for whatever batch this step triggers.
    const bool fail = Next(8) == 0;
    disk_.fail_next = fail;
    model_disk_.fail_next = fail;
    const BlockKey key = RandomKey();
    switch (Next(13)) {
      case 0:
      case 1: {  // Acquire, sometimes with a failing fetch; maybe write.
        const bool fetch_fails = Next(10) == 0;
        auto ref = cache_.Acquire(key, [&](std::span<std::byte> out) {
          if (fetch_fails) {
            return IoError("injected fetch failure");
          }
          std::memset(out.data(), disk_.Read(key), out.size());
          return OkStatus();
        });
        auto model_block = model_.Acquire(key, fetch_fails);
        ExpectSameOutcome(ref.status(), model_block.status());
        if (ref.ok() && model_block.ok()) {
          ExpectSameBlock(ref->get(), *model_block);
          if (Next(2) == 0) {
            Write(ref->get(), *model_block);
          }
          MaybeKeepPin(std::move(ref).value(), key);
        }
        break;
      }
      case 2: {  // Create (file extension), usually written.
        auto ref = cache_.Create(key);
        auto model_block = model_.Create(key);
        ExpectSameOutcome(ref.status(), model_block.status());
        if (ref.ok() && model_block.ok()) {
          ExpectSameBlock(ref->get(), *model_block);
          if (Next(4) != 0) {
            Write(ref->get(), *model_block);
          }
        }
        break;
      }
      case 3: {  // Install bytes in hand.
        const uint8_t value = RandomByte();
        std::vector<std::byte> data(kBlockSize, std::byte{value});
        auto ref = cache_.Install(key, data);
        auto model_block = model_.Install(key, value);
        ExpectSameOutcome(ref.status(), model_block.status());
        if (ref.ok() && model_block.ok()) {
          ExpectSameBlock(ref->get(), *model_block);
        }
        break;
      }
      case 4:
      case 5: {  // Look up without loading; clean or re-dirty it.
        CacheRef ref = cache_.AcquireIfPresent(key);
        ReferenceCache::Block* model_block = model_.AcquireIfPresent(key);
        ASSERT_EQ(static_cast<bool>(ref), model_block != nullptr) << "step " << step_;
        if (ref) {
          ExpectSameBlock(ref.get(), model_block);
          if (Next(2) == 0) {
            cache_.MarkClean(ref.get());
            model_block->dirty = false;
          } else {
            Write(ref.get(), model_block);
          }
        }
        break;
      }
      case 6:  // Drop one block (pinned invalidation is a caller bug).
        ReleaseAllPins();
        cache_.InvalidateBlock(key);
        model_.InvalidateBlock(key);
        break;
      case 7: {  // Truncate or delete an object.
        ReleaseAllPins();
        const uint64_t first_index = Next(3) == 0 ? 0 : Next(9);
        cache_.InvalidateObject(key.object_id, first_index);
        model_.InvalidateObject(key.object_id, first_index);
        break;
      }
      case 8:
        if (Next(4) == 0) {
          cache_.DropClean();
          model_.DropClean();
        }
        break;
      case 9:
        ExpectSameOutcome(cache_.FlushAll(), model_.FlushAll());
        break;
      case 10:
        ExpectSameOutcome(cache_.MaybeWriteBackByAge(), model_.MaybeWriteBackByAge());
        break;
      case 11:
        clock_.Advance(static_cast<double>(Next(20)));
        break;
      case 12:
        if (!pins_.empty()) {
          ReleasePin(Next(pins_.size()));
        }
        break;
    }
  }

  void Compare() {
    SCOPED_TRACE("step " + std::to_string(step_));
    ASSERT_EQ(cache_.size(), model_.lru.size());
    ASSERT_LE(cache_.size(), Policy().capacity_blocks);
    ASSERT_EQ(cache_.dirty_count(), model_.DirtyKeys().size());
    const std::vector<CacheBlock*> dirty = cache_.DirtyBlocks();
    const std::vector<BlockKey> model_dirty = model_.DirtyKeys();
    ASSERT_EQ(dirty.size(), model_dirty.size());
    for (size_t i = 0; i < dirty.size(); ++i) {
      ASSERT_EQ(dirty[i]->key(), model_dirty[i]) << "DirtyBlocks()[" << i << "]";
      ASSERT_TRUE(dirty[i]->dirty());
      ExpectSameBlock(dirty[i], model_.Find(model_dirty[i]));
    }
    ASSERT_EQ(disk_.batches.size(), model_disk_.batches.size());
    for (; compared_batches_ < disk_.batches.size(); ++compared_batches_) {
      ASSERT_EQ(disk_.batches[compared_batches_], model_disk_.batches[compared_batches_])
          << "write-back batch " << compared_batches_;
    }
    EXPECT_EQ(cache_.stats().hits, model_.stats.hits);
    EXPECT_EQ(cache_.stats().misses, model_.stats.misses);
    EXPECT_EQ(cache_.stats().evictions, model_.stats.evictions);
    EXPECT_EQ(cache_.stats().writeback_batches, model_.stats.writeback_batches);
    EXPECT_EQ(cache_.stats().blocks_written_back, model_.stats.blocks_written_back);
  }

  std::mt19937_64 rng_;
  SimClock clock_;
  ByteDisk disk_;
  ByteDisk model_disk_;
  BufferCache cache_;
  ReferenceCache model_;
  std::vector<std::pair<BlockKey, CacheRef>> pins_;
  int step_ = 0;
  size_t compared_batches_ = 0;
};

TEST(BufferCacheDifferentialTest, MatchesFullScanModelStepByStep) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CacheDifferential run(seed);
    run.Run(4000);
    if (HasFailure()) {
      return;
    }
  }
}

// The cache's object index and the file system's dirty-inode set under the
// paths that drop state behind their back: unlink (ReleaseInode), re-create
// with a recycled inode number, truncation, DropCaches, and inode pruning on
// Tick — each between fsyncs, then a data-verifying check (whose quiesce
// step also requires the dirty-inode set to be empty after the sync).
TEST(BufferCacheLfsTest, UnlinkRecreateDropAndPruneBetweenFsyncs) {
  LfsParams params = LfsInstance::DefaultParams();
  params.max_inodes = 64;  // Inode numbers come round again within the run.
  LfsFileSystem::Options options;
  options.max_cached_inodes = 8;  // Tick() prunes clean inodes beyond this.
  options.cache_policy.capacity_blocks = 256;
  LfsInstance inst(131072, params, options);
  std::mt19937_64 rng(13);
  auto pattern = [&](size_t size) {
    std::vector<std::byte> bytes(size);
    const uint64_t seed = rng();
    for (size_t i = 0; i < size; ++i) {
      bytes[i] = std::byte{static_cast<uint8_t>((seed >> (i % 7 * 8)) + i)};
    }
    return bytes;
  };
  std::map<std::string, std::vector<std::byte>> live;
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 10; ++op) {
      const std::string path = "/f" + std::to_string(rng() % 24);
      auto it = live.find(path);
      if (it != live.end() && rng() % 3 == 0) {
        ASSERT_TRUE(inst.paths->Unlink(path).ok()) << path;
        live.erase(it);
      } else if (it != live.end() && rng() % 4 == 0) {
        const uint64_t keep = rng() % (it->second.size() + 1);
        auto ino = inst.paths->Resolve(path);
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(inst.fs->Truncate(*ino, keep).ok()) << path;
        it->second.resize(keep);
      } else {
        // Up to 30 blocks: past the direct blocks into the single indirect.
        std::vector<std::byte> bytes = pattern(1 + rng() % (30 * 4096));
        ASSERT_TRUE(inst.paths->WriteFile(path, bytes).ok()) << path;
        live[path] = std::move(bytes);
      }
    }
    if (round % 3 == 0) {
      ASSERT_TRUE(inst.fs->DropCaches().ok());
    }
    ASSERT_TRUE(inst.fs->Tick().ok());
    ASSERT_TRUE(inst.fs->Fsync(kRootIno).ok());
  }
  for (const auto& [path, bytes] : live) {
    auto back = inst.paths->ReadFile(path);
    ASSERT_TRUE(back.ok()) << path;
    ASSERT_EQ(*back, bytes) << path;
  }
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check(/*verify_data=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace logfs
