// BufferCache: the write-behind file cache (paper Section 4.1).
//
// LFS uses the file cache as a write buffer that accumulates many small
// changes and converts them into large sequential transfers; FFS uses the
// same cache with delayed write-back of data blocks. The cache stores
// fixed-size logical blocks keyed by (object id, block index) — logical
// identity, not disk address, because in LFS a block has no stable disk
// address until the segment writer assigns one.
//
// The cache does not know how to read or write the disk. The owning file
// system supplies a fetch callback on miss and a WritebackHandler that is
// handed batches of dirty blocks (FFS writes them in place; LFS packs them
// into segments). Dirty blocks are flushed when:
//   * their age exceeds `writeback_age_seconds` (paper: 30 s), checked by
//     the file system calling MaybeWriteBackByAge() at operation boundaries;
//   * the dirty count reaches the high watermark ("cache full" trigger);
//   * the file system syncs (FlushAll).
//
// No trigger walks the whole cache. Dirty blocks sit on their own list in
// first-dirty order, and a per-object index maps each object id to the
// indices of its cached blocks. With c cached blocks, d of them dirty and b
// belonging to the object at hand:
//   * MaybeWriteBackByAge: O(1) to decide (simulated time is monotone, so
//     the head of the dirty list is the oldest block), O(d log d) to flush;
//   * FlushAll: O(d log d) per round (the batch is sorted by key);
//   * DirtyBlocks: O(d log d) (sorted by last use);
//   * InvalidateObject: O(b log b), independent of c;
//   * eviction scans from the LRU tail to the first clean, unpinned block.
// Only DropClean, the explicit "empty the cache" step, is O(c).
#ifndef LOGFS_SRC_CACHE_BUFFER_CACHE_H_
#define LOGFS_SRC_CACHE_BUFFER_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/sim_clock.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logfs {

// Logical identity of a cached block. `object_id` is file-system assigned:
// inode numbers for file and directory data; file systems reserve high bits
// for metadata namespaces (indirect blocks, inode table blocks, bitmaps).
struct BlockKey {
  uint64_t object_id = 0;
  uint64_t index = 0;

  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  size_t operator()(const BlockKey& key) const {
    // 64-bit mix of the two fields.
    uint64_t h = key.object_id * 0x9E3779B97F4A7C15ull;
    h ^= key.index + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

class BufferCache;

// One cached block. Stable address for the lifetime of the entry.
class CacheBlock {
 public:
  const BlockKey& key() const { return key_; }
  std::span<const std::byte> data() const { return data_; }
  std::span<std::byte> mutable_data() { return data_; }
  bool dirty() const { return dirty_; }
  double dirty_since() const { return dirty_since_; }
  bool pinned() const { return pin_count_ > 0; }

 private:
  friend class BufferCache;
  BlockKey key_;
  std::vector<std::byte> data_;
  bool dirty_ = false;
  double dirty_since_ = 0.0;
  uint32_t pin_count_ = 0;
  // Stamp of the last Acquire/Install/Create that returned this block;
  // orders DirtyBlocks() exactly as the LRU list orders blocks.
  uint64_t last_use_ = 0;
  // Position on the cache's dirty list; valid only while dirty_.
  std::list<CacheBlock*>::iterator dirty_pos_;
};

// RAII pin on a cache block: the block cannot be evicted while a CacheRef
// to it is alive.
class CacheRef {
 public:
  CacheRef() = default;
  CacheRef(BufferCache* cache, CacheBlock* block);
  ~CacheRef();

  CacheRef(CacheRef&& other) noexcept;
  CacheRef& operator=(CacheRef&& other) noexcept;
  CacheRef(const CacheRef&) = delete;
  CacheRef& operator=(const CacheRef&) = delete;

  CacheBlock* get() const { return block_; }
  CacheBlock* operator->() const { return block_; }
  CacheBlock& operator*() const { return *block_; }
  explicit operator bool() const { return block_ != nullptr; }

  void Release();

 private:
  BufferCache* cache_ = nullptr;
  CacheBlock* block_ = nullptr;
};

// Receives batches of dirty blocks to make durable. After a successful
// return the cache marks the batch clean. Blocks arrive sorted by
// (object_id, index) so file systems can lay out related blocks together.
class WritebackHandler {
 public:
  virtual ~WritebackHandler() = default;
  virtual Status WriteBack(std::span<CacheBlock* const> blocks) = 0;
};

struct CachePolicy {
  size_t capacity_blocks = 3840;        // 15 MB of 4 KB blocks (paper Section 5).
  double writeback_age_seconds = 30.0;  // Paper Section 4.3.5.
  // Dirty-count trigger for the "cache full" condition. 0 = capacity / 4.
  size_t dirty_high_watermark = 0;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writeback_batches = 0;
  uint64_t blocks_written_back = 0;
};

class BufferCache {
 public:
  // `clock` may be null (age-based policies then never trigger).
  BufferCache(size_t block_size, CachePolicy policy, const SimClock* clock);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  void set_writeback_handler(WritebackHandler* handler) { writeback_ = handler; }

  size_t block_size() const { return block_size_; }
  const CachePolicy& policy() const { return policy_; }
  size_t size() const { return map_.size(); }
  size_t dirty_count() const { return dirty_.size(); }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  // Fills a freshly allocated block on a miss.
  using FetchFn = std::function<Status(std::span<std::byte> out)>;

  // Look up or load a block. On miss, `fetch` fills the new block.
  Result<CacheRef> Acquire(const BlockKey& key, const FetchFn& fetch);

  // Ensure `key` is cached given its current bytes in hand: a present block
  // is returned untouched (the cached copy may be newer than `data`), an
  // absent one is populated from `data` in a single copy. Accounting
  // (hit/miss/eviction) matches Acquire with a memcpy fetch; the
  // std::function detour is skipped. `data` must be exactly one block.
  Result<CacheRef> Install(const BlockKey& key, std::span<const std::byte> data);

  // Look up without loading; empty ref if absent.
  CacheRef AcquireIfPresent(const BlockKey& key);

  // Create a zero-filled block that must not already exist on disk (file
  // extension). The block starts clean; callers mark it dirty after writing.
  Result<CacheRef> Create(const BlockKey& key);

  // Mark dirty, stamping the dirty age on the first marking.
  void MarkDirty(CacheBlock* block);

  // Explicitly mark a block clean without a writeback round-trip (used by
  // file systems that write through, e.g. FFS synchronous metadata).
  void MarkClean(CacheBlock* block);

  // True if the "cache full" dirty trigger has been reached.
  bool NeedsWriteback() const;

  // Flush dirty blocks older than the policy age. No-op without a clock.
  Status MaybeWriteBackByAge();

  // Flush every dirty block.
  Status FlushAll();

  // Drop blocks of an object without writing them (delete/truncate). Blocks
  // with index >= first_index are dropped; pinned blocks are a caller bug.
  void InvalidateObject(uint64_t object_id, uint64_t first_index = 0);

  // Drop a single block without writing it.
  void InvalidateBlock(const BlockKey& key);

  // Drop all clean blocks (the benchmark "flush the file cache" step).
  void DropClean();

  // Enumerate dirty blocks, most recently used first.
  std::vector<CacheBlock*> DirtyBlocks() const;

 private:
  friend class CacheRef;

  struct Entry;
  using LruList = std::list<Entry>;

  struct Entry {
    CacheBlock block;
  };

  void Pin(CacheBlock* block);
  void Unpin(CacheBlock* block);
  // Moves a cached block to the LRU front and stamps its use.
  CacheBlock& Touch(LruList::iterator it);
  // Adds a new block for `key` at the LRU front; the caller fills its data.
  CacheBlock& Insert(const BlockKey& key);
  // Removes a block from every structure (dirty ones count as cleaned).
  void Erase(LruList::iterator it);
  // Evicts the least recently used clean, unpinned block, if any.
  bool EvictOne();
  // Make room for one more block; may trigger write-back of dirty blocks.
  Status EnsureCapacity();
  // EnsureCapacity for a miss on `key`. The write-back it may run can cache
  // `key` itself (LFS creating an indirect block, say): that block is then
  // returned, touched, and the caller must not insert another.
  Result<CacheBlock*> MakeRoomFor(const BlockKey& key);
  Status WriteBackBlocks(std::vector<CacheBlock*> blocks);

  size_t block_size_;
  CachePolicy policy_;
  const SimClock* clock_;
  WritebackHandler* writeback_ = nullptr;

  LruList lru_;  // Front = most recently used.
  std::unordered_map<BlockKey, LruList::iterator, BlockKeyHash> map_;
  // Dirty blocks in the order they became dirty: the front is the oldest.
  std::list<CacheBlock*> dirty_;
  // Object id -> indices of its cached blocks.
  std::unordered_map<uint64_t, std::set<uint64_t>> objects_;
  // Blocks erased while a write-back handler runs. The batch handed to it
  // may still point at them, so their storage lives until the batch has
  // been marked clean.
  LruList retired_;
  uint64_t use_clock_ = 0;
  bool in_writeback_ = false;
  CacheStats stats_;
};

}  // namespace logfs

#endif  // LOGFS_SRC_CACHE_BUFFER_CACHE_H_
