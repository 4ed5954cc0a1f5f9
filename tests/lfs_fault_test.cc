// Media-fault tolerance tests at the file-system level:
//   * corruption sweep: flip a bit in every live data sector of a synced
//     volume and require the damage to be detected (scrubber + checker) and
//     never served to a reader as valid data;
//   * transient sweep: run a full workload over a disk with seeded random
//     transient errors behind ResilientDisk and require zero data loss;
//   * fault matrix: re-run a standard workload once per read-request index
//     with a single injected transient read error at that index;
//   * persistent checkpoint-write failure demotes the mount to read-only
//     (writes fail with kReadOnly, reads keep working);
//   * a failing device makes Sync() propagate the device error;
//   * quarantined segments survive remount and are never picked as cleaner
//     victims.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/resilient_disk.h"
#include "src/lfs/lfs_check.h"
#include "src/lfs/lfs_segment.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

// One sector of one live data block, with enough context to read it back
// through the file system.
struct LiveSector {
  uint64_t sector = 0;
  int64_t block_index = 0;  // File block index (SummaryEntry::offset).
};

// Enumerates every sector of every live data block of inode `ino` that sits
// in a kDirty segment, by decoding the on-disk summary chains. Assumes an
// append-only history for `ino` (each kData entry written exactly once), so
// every matching entry is live.
std::vector<LiveSector> LiveDataSectors(const MemoryDisk& disk, const LfsFileSystem& fs,
                                        InodeNum ino) {
  std::vector<LiveSector> out;
  const LfsSuperblock& sb = fs.superblock();
  for (uint32_t seg = 0; seg < sb.num_segments; ++seg) {
    if (fs.usage().Get(seg).state != SegState::kDirty) {
      continue;
    }
    std::span<const std::byte> image = disk.RawImage().subspan(
        sb.SegmentBlockSector(seg, 0) * kSectorSize, sb.segment_size);
    for (SummaryChain chain(image, sb.block_size, ChainMode::kStrict); chain.Next();) {
      Result<SegmentSummary> summary = DecodeSummary(chain.summary_block(), chain.content());
      if (!summary.ok()) {
        break;
      }
      for (size_t i = 0; i < summary->entries.size(); ++i) {
        const SummaryEntry& entry = summary->entries[i];
        if (entry.kind != BlockKind::kData || entry.ino != ino) {
          continue;
        }
        const uint64_t block_sector =
            sb.SegmentBlockSector(seg, chain.offset() + 1 + static_cast<uint32_t>(i));
        for (uint32_t s = 0; s < sb.SectorsPerBlock(); ++s) {
          out.push_back({block_sector + s, entry.offset});
        }
      }
    }
  }
  return out;
}

// --- corruption sweep -------------------------------------------------------

TEST(LfsFaultTest, CorruptionSweepEveryLiveDataSectorIsDetected) {
  SimClock clock;
  MemoryDisk disk(131072, &clock);
  ASSERT_TRUE(LfsFileSystem::Format(&disk, LfsInstance::DefaultParams()).ok());
  // Append-only file spanning multiple segments, so most of it lands in
  // kDirty (scrubbable) segments.
  constexpr size_t kFileBytes = 300 * 4096;
  const std::vector<std::byte> payload = TestBytes(kFileBytes, 77);
  InodeNum ino = 0;
  std::vector<LiveSector> targets;
  {
    auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/big", payload).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
    auto resolved = paths.Resolve("/big");
    ASSERT_TRUE(resolved.ok());
    ino = *resolved;
    targets = LiveDataSectors(disk, **fs, ino);
  }
  ASSERT_GT(targets.size(), 1000u);  // Multiple dirty segments' worth.
  const std::vector<std::byte> snapshot(disk.RawImage().begin(), disk.RawImage().end());

  const uint32_t block_size = 4096;
  for (size_t idx = 0; idx < targets.size(); ++idx) {
    const LiveSector& target = targets[idx];
    std::copy(snapshot.begin(), snapshot.end(), disk.MutableRawImage().begin());
    // Vary the flipped bit and byte position across the sweep.
    const size_t byte = (idx * 131) % kSectorSize;
    disk.MutableRawImage()[target.sector * kSectorSize + byte] ^=
        static_cast<std::byte>(1u << (idx % 8));

    auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
    ASSERT_TRUE(fs.ok()) << "mount failed at sweep index " << idx;

    // The scrubber must detect the corruption and quarantine the segment.
    auto report = (*fs)->Scrub((*fs)->superblock().num_segments);
    ASSERT_TRUE(report.ok()) << "scrub failed at sweep index " << idx;
    EXPECT_GE(report->checksum_failures, 1u) << "undetected at sweep index " << idx;
    EXPECT_GE(report->segments_quarantined, 1u) << "not quarantined at sweep index " << idx;

    // The damaged block is never served as valid data: the read either
    // fails the end-to-end checksum or (impossible here, but the contract)
    // returns the exact original bytes.
    std::vector<std::byte> out(block_size);
    auto got =
        (*fs)->Read(ino, static_cast<uint64_t>(target.block_index) * block_size, out);
    if (got.ok()) {
      EXPECT_TRUE(std::equal(out.begin(), out.end(),
                             payload.begin() + target.block_index * block_size))
          << "wrong bytes served at sweep index " << idx;
    } else {
      EXPECT_EQ(got.status().code(), ErrorCode::kCorrupted)
          << "unexpected error at sweep index " << idx;
    }

    // Periodically run the full offline checker too (it is the slow path).
    if (idx % 64 == 0) {
      LfsChecker checker(fs->get());
      auto check = checker.Check(/*verify_data=*/false);
      ASSERT_TRUE(check.ok());
      EXPECT_GE(check->checksum_failures + check->quarantined_segments, 1u)
          << "checker blind at sweep index " << idx;
    }
  }
}

// --- transient sweep --------------------------------------------------------

TEST(LfsFaultTest, SeededTransientErrorsCauseZeroDataLoss) {
  SimClock clock;
  MemoryDisk inner(65536, &clock);
  FaultInjectingDisk fault(&inner);
  ResilientDisk disk(&fault, &clock);
  fault.SetTransientErrorRates(/*seed=*/20260805, /*read_p=*/0.02, /*write_p=*/0.02);

  ASSERT_TRUE(LfsFileSystem::Format(&disk, LfsInstance::DefaultParams()).ok());
  constexpr int kFiles = 8;
  constexpr size_t kBytesPerFile = 50000;
  {
    auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    for (int i = 0; i < kFiles; ++i) {
      ASSERT_TRUE(
          paths.WriteFile("/f" + std::to_string(i), TestBytes(kBytesPerFile, i)).ok());
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    // Overwrite half the files so cleaning has dead blocks to reclaim, then
    // run the cleaner under injected faults too.
    for (int i = 0; i < kFiles; i += 2) {
      ASSERT_TRUE(
          paths.WriteFile("/f" + std::to_string(i), TestBytes(kBytesPerFile, 1000 + i)).ok());
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    ASSERT_TRUE((*fs)->CleanNow(8).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
  }
  // Remount and read everything back, still under injected faults.
  auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  for (int i = 0; i < kFiles; ++i) {
    const uint64_t seed = (i % 2 == 0) ? 1000 + i : i;
    auto back = paths.ReadFile("/f" + std::to_string(i));
    ASSERT_TRUE(back.ok()) << "file " << i;
    EXPECT_EQ(*back, TestBytes(kBytesPerFile, seed)) << "file " << i;
  }
  // The fault layer really did fire, and the retry layer absorbed it all.
  EXPECT_GT(fault.transient_read_errors_injected() + fault.transient_write_errors_injected(),
            0u);
  EXPECT_GT(disk.retries(), 0u);
  EXPECT_GT(disk.recovered(), 0u);
  EXPECT_EQ(disk.exhausted(), 0u);
}

// --- fault matrix -----------------------------------------------------------

struct MatrixOutcome {
  bool ok = false;
  uint64_t reads_issued = 0;
  std::vector<std::byte> readback;  // Concatenated contents of all files.
};

// Standard workload: format, mount, write three files, sync, overwrite one
// (dead blocks for the cleaner), clean, remount, read everything back.
// Optionally injects one transient read error at request index `fail_read`,
// behind ResilientDisk.
MatrixOutcome RunStandardWorkload(std::optional<uint64_t> fail_read) {
  MatrixOutcome outcome;
  SimClock clock;
  MemoryDisk inner(65536, &clock);
  FaultInjectingDisk fault(&inner);
  ResilientDisk disk(&fault, &clock);
  if (fail_read.has_value()) {
    fault.FailNthRead(*fail_read);
  }
  if (!LfsFileSystem::Format(&disk, LfsInstance::DefaultParams()).ok()) {
    return outcome;
  }
  constexpr int kFiles = 3;
  constexpr size_t kBytesPerFile = 20000;
  {
    auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
    if (!fs.ok()) {
      return outcome;
    }
    PathFs paths(fs->get());
    for (int i = 0; i < kFiles; ++i) {
      if (!paths.WriteFile("/m" + std::to_string(i), TestBytes(kBytesPerFile, 100 + i)).ok()) {
        return outcome;
      }
    }
    if (!(*fs)->Sync().ok()) {
      return outcome;
    }
    if (!paths.WriteFile("/m0", TestBytes(kBytesPerFile, 200)).ok()) {
      return outcome;
    }
    if (!(*fs)->Sync().ok() || !(*fs)->CleanNow(4).ok() || !(*fs)->Sync().ok()) {
      return outcome;
    }
  }
  auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
  if (!fs.ok()) {
    return outcome;
  }
  PathFs paths(fs->get());
  for (int i = 0; i < kFiles; ++i) {
    auto back = paths.ReadFile("/m" + std::to_string(i));
    if (!back.ok()) {
      return outcome;
    }
    outcome.readback.insert(outcome.readback.end(), back->begin(), back->end());
  }
  outcome.reads_issued = fault.read_requests_seen();
  outcome.ok = true;
  return outcome;
}

TEST(LfsFaultTest, TransientReadFaultMatrixCompletesAtEveryIndex) {
  const MatrixOutcome clean = RunStandardWorkload(std::nullopt);
  ASSERT_TRUE(clean.ok);
  ASSERT_GT(clean.reads_issued, 0u);
  for (uint64_t i = 0; i < clean.reads_issued; ++i) {
    const MatrixOutcome faulted = RunStandardWorkload(i);
    ASSERT_TRUE(faulted.ok) << "workload failed with a read fault at index " << i;
    EXPECT_EQ(faulted.readback, clean.readback)
        << "data differs with a read fault at index " << i;
  }
}

// --- read-only demotion -----------------------------------------------------

TEST(LfsFaultTest, PersistentCheckpointWriteFailureDemotesToReadOnly) {
  SimClock clock;
  MemoryDisk inner(65536, &clock);
  FaultInjectingDisk fault(&inner);
  ASSERT_TRUE(LfsFileSystem::Format(&inner, LfsInstance::DefaultParams()).ok());
  auto fs = LfsFileSystem::Mount(&fault, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  const std::vector<std::byte> first = TestBytes(30000, 9);
  ASSERT_TRUE(paths.WriteFile("/first", first).ok());
  ASSERT_TRUE((*fs)->Sync().ok());

  // Both checkpoint regions (blocks [1, 1 + 2C)) go write-bad: the next
  // checkpoint has nowhere persistent to land.
  const LfsSuperblock& sb = (*fs)->superblock();
  const uint64_t region_start = sb.SectorsPerBlock();
  const uint64_t region_sectors =
      2ull * sb.checkpoint_region_blocks * sb.SectorsPerBlock();
  fault.MarkBadSectors(region_start, region_sectors,
                       FaultInjectingDisk::BadSectorMode::kWrite);

  ASSERT_TRUE(paths.WriteFile("/second", TestBytes(1000, 10)).ok());
  Status sync = (*fs)->Sync();
  EXPECT_EQ(sync.code(), ErrorCode::kMediaError);
  EXPECT_TRUE((*fs)->read_only());

  // Mutations now fail with the distinct read-only status...
  std::vector<std::byte> data(100);
  EXPECT_EQ((*fs)->Write(kRootIno + 1, 0, data).status().code(), ErrorCode::kReadOnly);
  EXPECT_EQ((*fs)->Create(kRootIno, "nope", FileType::kRegular).status().code(),
            ErrorCode::kReadOnly);
  EXPECT_EQ(paths.WriteFile("/third", TestBytes(100, 11)).code(), ErrorCode::kReadOnly);

  // ...but reads keep working (the read path is untouched).
  auto back = paths.ReadFile("/first");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, first);
  EXPECT_TRUE(paths.Exists("/first"));
}

// --- Sync error propagation -------------------------------------------------

TEST(LfsFaultTest, SyncPropagatesDeviceWriteFailure) {
  SimClock clock;
  MemoryDisk inner(65536, &clock);
  FaultInjectingDisk fault(&inner);
  ASSERT_TRUE(LfsFileSystem::Format(&inner, LfsInstance::DefaultParams()).ok());
  auto fs = LfsFileSystem::Mount(&fault, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  ASSERT_TRUE(paths.WriteFile("/doomed", TestBytes(20000, 12)).ok());
  // The whole segment area refuses writes: flushing the dirty data must
  // surface the device error through Sync, not swallow it.
  const LfsSuperblock& sb = (*fs)->superblock();
  fault.MarkBadSectors(sb.first_segment_sector,
                       static_cast<uint64_t>(sb.num_segments) * sb.SectorsPerSegment(),
                       FaultInjectingDisk::BadSectorMode::kWrite);
  Status sync = (*fs)->Sync();
  EXPECT_EQ(sync.code(), ErrorCode::kMediaError);
  // A log-flush failure alone does not demote the mount: the checkpoint
  // regions are still writable, so a later retry could still succeed.
  EXPECT_FALSE((*fs)->read_only());
}

// --- quarantine lifecycle ---------------------------------------------------

TEST(LfsFaultTest, QuarantinePersistsAcrossRemountAndCleanerAvoidsIt) {
  SimClock clock;
  MemoryDisk disk(131072, &clock);
  ASSERT_TRUE(LfsFileSystem::Format(&disk, LfsInstance::DefaultParams()).ok());
  constexpr size_t kFileBytes = 300 * 4096;
  const std::vector<std::byte> payload = TestBytes(kFileBytes, 21);
  uint32_t quarantined_seg = 0;
  {
    auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/big", payload).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
    auto ino = paths.Resolve("/big");
    ASSERT_TRUE(ino.ok());
    std::vector<LiveSector> targets = LiveDataSectors(disk, **fs, *ino);
    ASSERT_FALSE(targets.empty());
    disk.MutableRawImage()[targets.front().sector * kSectorSize + 7] ^= std::byte{0x10};

    auto report = (*fs)->Scrub((*fs)->superblock().num_segments);
    ASSERT_TRUE(report.ok());
    ASSERT_GE(report->segments_quarantined, 1u);
    ASSERT_EQ((*fs)->QuarantinedSegmentCount(), 1u);
    const auto& usage = (*fs)->usage();
    for (uint32_t seg = 0; seg < (*fs)->superblock().num_segments; ++seg) {
      if (usage.Get(seg).state == SegState::kQuarantined) {
        quarantined_seg = seg;
      }
    }
    ASSERT_TRUE((*fs)->Sync().ok());
  }

  // Remount: the quarantine is durable state, not an in-memory flag.
  auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ((*fs)->QuarantinedSegmentCount(), 1u);
  EXPECT_EQ((*fs)->usage().Get(quarantined_seg).state, SegState::kQuarantined);
  // The heat fields are memory-only: they ride alongside the durable state
  // in SegUsage but never reach the encoded checkpoint block, so a remount
  // reads the quarantine back with a cold heat estimate.
  EXPECT_EQ((*fs)->usage().Get(quarantined_seg).heat_interval_ewma, 0.0);
  EXPECT_EQ((*fs)->usage().Get(quarantined_seg).last_overwrite_at, 0.0);

  // The cleaner must never propose a quarantined segment as a victim.
  const auto victims = (*fs)->usage().PickVictims(
      (*fs)->superblock().num_segments, (*fs)->superblock().segment_size);
  EXPECT_EQ(std::count(victims.begin(), victims.end(), quarantined_seg), 0);
  // And an explicit cleaning pass leaves it untouched.
  auto cleaned = (*fs)->CleanNow((*fs)->superblock().num_segments);
  ASSERT_TRUE(cleaned.ok());
  EXPECT_EQ((*fs)->usage().Get(quarantined_seg).state, SegState::kQuarantined);
}

}  // namespace
}  // namespace logfs
