// Shared test fixture plumbing: builds a simulated disk + clock + CPU and
// formats/mounts a file system on it. Used by the FFS tests, the LFS tests,
// the sharded-router tests and the cross-FS conformance/property suites.
#ifndef LOGFS_TESTS_FS_FIXTURE_H_
#define LOGFS_TESTS_FS_FIXTURE_H_

#include <memory>

#include "src/disk/memory_disk.h"
#include "src/ffs/ffs_file_system.h"
#include "src/fsbase/path.h"
#include "src/lfs/lfs_file_system.h"
#include "src/lfs/sharded_lfs.h"
#include "src/sim/cpu_model.h"
#include "src/sim/sim_clock.h"

namespace logfs {

// A mounted FFS on a fresh simulated disk. Default ~34 MB (2 groups).
struct FfsInstance {
  explicit FfsInstance(uint64_t sectors = 70000, FfsParams params = {}) {
    clock = std::make_unique<SimClock>();
    cpu = std::make_unique<CpuModel>(clock.get(), 10.0);
    disk = std::make_unique<MemoryDisk>(sectors, clock.get());
    Status formatted = Format(disk.get(), params);
    if (!formatted.ok()) {
      std::abort();
    }
    auto mounted = FfsFileSystem::Mount(disk.get(), clock.get(), cpu.get());
    if (!mounted.ok()) {
      std::abort();
    }
    fs = std::move(mounted).value();
    paths = std::make_unique<PathFs>(fs.get());
  }

  static Status Format(BlockDevice* device, const FfsParams& params) {
    return FfsFileSystem::Format(device, params);
  }

  std::unique_ptr<SimClock> clock;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<MemoryDisk> disk;
  std::unique_ptr<FfsFileSystem> fs;
  std::unique_ptr<PathFs> paths;
};

// A mounted LFS on a fresh simulated disk. Default ~64 MB (~60 segments).
struct LfsInstance {
  explicit LfsInstance(uint64_t sectors = 131072, LfsParams params = DefaultParams(),
                       LfsFileSystem::Options options = {}) {
    clock = std::make_unique<SimClock>();
    cpu = std::make_unique<CpuModel>(clock.get(), 10.0);
    disk = std::make_unique<MemoryDisk>(sectors, clock.get());
    Status formatted = LfsFileSystem::Format(disk.get(), params);
    if (!formatted.ok()) {
      std::abort();
    }
    auto mounted = LfsFileSystem::Mount(disk.get(), clock.get(), cpu.get(), options);
    if (!mounted.ok()) {
      std::abort();
    }
    fs = std::move(mounted).value();
    paths = std::make_unique<PathFs>(fs.get());
  }

  // Modest inode table so tests mount fast.
  static LfsParams DefaultParams() {
    LfsParams params;
    params.max_inodes = 4096;
    return params;
  }

  // Unmounts (syncs) and remounts from the same disk image.
  Status Remount(LfsFileSystem::Options options = {}) {
    RETURN_IF_ERROR(fs->Sync());
    fs.reset();
    auto mounted = LfsFileSystem::Mount(disk.get(), clock.get(), cpu.get(), options);
    RETURN_IF_ERROR(mounted.status());
    fs = std::move(mounted).value();
    paths = std::make_unique<PathFs>(fs.get());
    return OkStatus();
  }

  std::unique_ptr<SimClock> clock;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<MemoryDisk> disk;
  std::unique_ptr<LfsFileSystem> fs;
  std::unique_ptr<PathFs> paths;
};

// A mounted sharded LFS (default 4 logs) on a fresh 64 MB simulated disk.
struct ShardedLfsInstance {
  explicit ShardedLfsInstance(uint32_t shards = 4) {
    clock = std::make_unique<SimClock>();
    cpu = std::make_unique<CpuModel>(clock.get(), 10.0);
    disk = std::make_unique<MemoryDisk>(131072, clock.get());
    Status formatted = ShardedLfs::Format(disk.get(), DefaultParams(), shards);
    if (!formatted.ok()) {
      std::abort();
    }
    auto mounted = ShardedLfs::Mount(disk.get(), clock.get(), cpu.get());
    if (!mounted.ok()) {
      std::abort();
    }
    fs = std::move(mounted).value();
    paths = std::make_unique<PathFs>(fs.get());
  }

  // Half-size segments, so each log's slice still holds plenty of them.
  static LfsParams DefaultParams() {
    LfsParams params;
    params.max_inodes = 4096;
    params.segment_size = 1 << 19;
    params.clean_start_segments = 3;
    params.clean_stop_segments = 5;
    params.reserved_segments = 2;
    return params;
  }

  // Unmounts (syncs) and remounts from the same disk image.
  Status Remount(ShardedLfs::Options options = {}) {
    RETURN_IF_ERROR(fs->Sync());
    fs.reset();
    auto mounted = ShardedLfs::Mount(disk.get(), clock.get(), cpu.get(), options);
    RETURN_IF_ERROR(mounted.status());
    fs = std::move(mounted).value();
    paths = std::make_unique<PathFs>(fs.get());
    return OkStatus();
  }

  std::unique_ptr<SimClock> clock;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<MemoryDisk> disk;
  std::unique_ptr<ShardedLfs> fs;
  std::unique_ptr<PathFs> paths;
};

// Deterministic payload helpers shared across FS tests.
inline std::vector<std::byte> TestBytes(size_t n, uint64_t seed) {
  std::vector<std::byte> data(n);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[i] = static_cast<std::byte>(x);
  }
  return data;
}

}  // namespace logfs

#endif  // LOGFS_TESTS_FS_FIXTURE_H_
