// Unit tests for the simulated block-device stack: MemoryDisk timing,
// stats and residency, OverlayDisk copy-on-write, FaultInjectingDisk crash
// semantics, RecordingDisk records.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/overlay_disk.h"
#include "src/disk/recording_disk.h"
#include "src/disk/striped_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/lfs_check.h"
#include "src/lfs/lfs_file_system.h"
#include "src/sim/disk_model.h"
#include "src/sim/sim_clock.h"

namespace logfs {
namespace {

std::vector<std::byte> Pattern(size_t bytes, uint8_t seed) {
  std::vector<std::byte> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>(seed + i);
  }
  return data;
}

TEST(DiskModelTest, SequentialAccessHasNoPositioningCost) {
  DiskModel model(DiskModelParams{}, 1 << 20);
  EXPECT_DOUBLE_EQ(model.PositioningSeconds(100, 100), 0.0);
  EXPECT_GT(model.PositioningSeconds(101, 100), 0.0);
}

TEST(DiskModelTest, LongerSeeksCostMore) {
  DiskModel model(DiskModelParams{}, 1 << 20);
  const double near = model.PositioningSeconds(1000, 0);
  const double far = model.PositioningSeconds(900000, 0);
  EXPECT_LT(near, far);
}

TEST(DiskModelTest, TransferScalesWithSize) {
  DiskModel model(DiskModelParams{}, 1 << 20);
  EXPECT_DOUBLE_EQ(model.TransferSeconds(8), 4.0 * model.TransferSeconds(2));
}

TEST(DiskModelTest, BandwidthMatchesWrenIv) {
  DiskModel model(DiskModelParams{}, 1 << 20);
  // 1 MB transfer at 1.3 MB/s takes ~0.79 s.
  const double t = model.TransferSeconds((1 << 20) / kSectorSize);
  EXPECT_NEAR(t, (1 << 20) / 1.3e6, 1e-6);
}

TEST(MemoryDiskTest, ReadBackWritten) {
  SimClock clock;
  MemoryDisk disk(1024, &clock);
  auto data = Pattern(3 * kSectorSize, 7);
  ASSERT_TRUE(disk.WriteSectors(10, data).ok());
  std::vector<std::byte> out(3 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(10, out).ok());
  EXPECT_EQ(out, data);
}

TEST(MemoryDiskTest, UnwrittenSectorsReadZero) {
  SimClock clock;
  MemoryDisk disk(64, &clock);
  std::vector<std::byte> out(kSectorSize, std::byte{0xEE});
  ASSERT_TRUE(disk.ReadSectors(5, out).ok());
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
}

// Resident bytes of this process, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  uint64_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Writes one megabyte at `mb` megabytes into `disk`, then reads the whole
// disk back a megabyte at a time: that megabyte holds the pattern, every
// other one reads zero. The buffers are allocated once, so the resident
// set measures the disks, not freed buffers an allocator keeps around.
void WriteOneMegabyteAndReadBack(MemoryDisk& disk, uint64_t mb) {
  constexpr size_t kMb = 1 << 20;
  constexpr uint64_t kSectorsPerMb = kMb / kSectorSize;
  static const std::vector<std::byte> pattern = Pattern(kMb, 3);
  static const std::vector<std::byte> zeros(kMb);
  static std::vector<std::byte> out(kMb);
  ASSERT_TRUE(disk.WriteSectors(mb * kSectorsPerMb, pattern).ok());
  for (uint64_t i = 0; i < disk.sector_count() / kSectorsPerMb; ++i) {
    ASSERT_TRUE(disk.ReadSectors(i * kSectorsPerMb, out).ok());
    const std::vector<std::byte>& expected = i == mb ? pattern : zeros;
    ASSERT_EQ(std::memcmp(out.data(), expected.data(), kMb), 0) << "megabyte " << i;
  }
}

// A disk is resident only where it was written: 1 MB written to a 1 GB disk
// costs about 1 MB, and the rest still reads zero.
TEST(MemoryDiskTest, HoldsOnlyWhatWasWritten) {
  const uint64_t before = ResidentBytes();
  MemoryDisk disk((1ull << 30) / kSectorSize, /*clock=*/nullptr);
  WriteOneMegabyteAndReadBack(disk, 700);
  EXPECT_LT(ResidentBytes(), before + (64ull << 20));
}

// Disks of one size, re-created while earlier ones stay alive, each hold
// only what was written. Once glibc frees a chunk that size it raises its
// mmap threshold, so a calloc'd image would reuse the freed heap chunk and
// memset it: the ten live disks would then cost most of 240 MB.
TEST(MemoryDiskTest, RecreatedDisksStaySparse) {
  constexpr uint64_t kSectors = (24ull << 20) / kSectorSize;
  const uint64_t before = ResidentBytes();
  std::vector<std::unique_ptr<MemoryDisk>> kept;
  for (uint64_t i = 0; i < 10; ++i) {
    kept.push_back(std::make_unique<MemoryDisk>(kSectors, /*clock=*/nullptr));
    WriteOneMegabyteAndReadBack(*kept.back(), i);
    MemoryDisk destroyed(kSectors, /*clock=*/nullptr);
    WriteOneMegabyteAndReadBack(destroyed, 23 - i);
  }
  EXPECT_LT(ResidentBytes(), before + (64ull << 20));
}

TEST(MemoryDiskTest, RejectsBadExtents) {
  SimClock clock;
  MemoryDisk disk(16, &clock);
  std::vector<std::byte> buffer(kSectorSize);
  EXPECT_EQ(disk.ReadSectors(16, buffer).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(disk.WriteSectors(15, Pattern(2 * kSectorSize, 1)).code(), ErrorCode::kOutOfRange);
  std::vector<std::byte> odd(100);
  EXPECT_EQ(disk.ReadSectors(0, odd).code(), ErrorCode::kInvalidArgument);
  std::vector<std::byte> empty;
  EXPECT_EQ(disk.ReadSectors(0, empty).code(), ErrorCode::kInvalidArgument);
}

TEST(MemoryDiskTest, ClockAdvancesWithIo) {
  SimClock clock;
  MemoryDisk disk(1 << 16, &clock);
  ASSERT_TRUE(disk.WriteSectors(1000, Pattern(kSectorSize, 0)).ok());
  const double after_random = clock.Now();
  EXPECT_GT(after_random, 0.0);
  // Sequential continuation is much cheaper than the seek was.
  ASSERT_TRUE(disk.WriteSectors(1001, Pattern(kSectorSize, 0)).ok());
  const double sequential_cost = clock.Now() - after_random;
  EXPECT_LT(sequential_cost, after_random / 10);
}

TEST(MemoryDiskTest, StatsTrackOpsAndSeeks) {
  SimClock clock;
  MemoryDisk disk(1 << 16, &clock);
  ASSERT_TRUE(disk.WriteSectors(100, Pattern(2 * kSectorSize, 0),
                                IoOptions{.synchronous = true}).ok());
  ASSERT_TRUE(disk.WriteSectors(102, Pattern(kSectorSize, 0)).ok());
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(5000, out).ok());
  const DiskStats& stats = disk.stats();
  EXPECT_EQ(stats.write_ops, 2u);
  EXPECT_EQ(stats.read_ops, 1u);
  EXPECT_EQ(stats.sync_writes, 1u);
  EXPECT_EQ(stats.sectors_written, 3u);
  EXPECT_EQ(stats.sectors_read, 1u);
  EXPECT_EQ(stats.seeks, 2u);           // First write and the read.
  EXPECT_EQ(stats.sequential_ops, 1u);  // Second write continued at head.
  disk.ResetStats();
  EXPECT_EQ(disk.stats().write_ops, 0u);
}

TEST(MemoryDiskTest, LargeSequentialBeatsSmallRandomByOrderOfMagnitude) {
  // The core premise of the paper (Section 2.3): sequential I/O uses the
  // disk an order of magnitude more efficiently than small random I/O.
  SimClock clock;
  MemoryDisk disk(1 << 20, &clock);
  const size_t total_bytes = 1 << 20;

  // 1 MB as one sequential transfer.
  const double t0 = clock.Now();
  ASSERT_TRUE(disk.WriteSectors(0, Pattern(total_bytes, 0)).ok());
  const double seq_time = clock.Now() - t0;

  // 1 MB as 256 scattered 4 KB writes.
  const double t1 = clock.Now();
  auto chunk = Pattern(4096, 0);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(disk.WriteSectors(((i * 2654435761u) % 100000) * 8, chunk).ok());
  }
  const double random_time = clock.Now() - t1;
  EXPECT_GT(random_time, 8 * seq_time);
}

// --- OverlayDisk ---------------------------------------------------------

TEST(OverlayDiskTest, ReadsFallThroughAndWritesStayPrivate) {
  const std::vector<std::byte> base = Pattern(16 * kSectorSize, 1);
  OverlayDisk overlay(base);
  EXPECT_EQ(overlay.sector_count(), 16u);
  std::vector<std::byte> out(16 * kSectorSize);
  ASSERT_TRUE(overlay.ReadSectors(0, out).ok());
  EXPECT_EQ(out, base);

  const std::vector<std::byte> written = Pattern(2 * kSectorSize, 77);
  ASSERT_TRUE(overlay.WriteSectors(5, written).ok());
  EXPECT_EQ(overlay.private_sectors(), 2u);
  ASSERT_TRUE(overlay.ReadSectors(0, out).ok());
  std::vector<std::byte> expected = base;
  std::copy(written.begin(), written.end(), expected.begin() + 5 * kSectorSize);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(base, Pattern(16 * kSectorSize, 1));  // The base never changes.

  // A fork starts with the private sectors and diverges on its own.
  OverlayDisk fork = overlay;
  ASSERT_TRUE(fork.WriteSectors(5, Pattern(kSectorSize, 200)).ok());
  ASSERT_TRUE(overlay.ReadSectors(0, out).ok());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(overlay.private_sectors(), 2u);

  EXPECT_EQ(overlay.ReadSectors(15, std::span<std::byte>(out).first(2 * kSectorSize)).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(overlay.WriteSectors(0, std::span<const std::byte>(written).first(100)).code(),
            ErrorCode::kInvalidArgument);
}

// A mount, a write and a full check on the overlay leave the image under it
// byte-for-byte unchanged; the new file lives only in that overlay.
TEST(OverlayDiskTest, MountAndCheckLeaveTheBaseUnchanged) {
  MemoryDisk disk(49152, /*clock=*/nullptr);
  LfsParams params;
  params.max_inodes = 2048;
  ASSERT_TRUE(LfsFileSystem::Format(&disk, params).ok());
  {
    auto fs = LfsFileSystem::Mount(&disk, /*clock=*/nullptr, /*cpu=*/nullptr);
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(PathFs(fs->get()).WriteFile("/kept", Pattern(20000, 3)).ok());
  }
  const std::vector<std::byte> before(disk.RawImage().begin(), disk.RawImage().end());

  OverlayDisk overlay(disk.RawImage());
  {
    auto fs = LfsFileSystem::Mount(&overlay, /*clock=*/nullptr, /*cpu=*/nullptr);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/overlay-only", Pattern(9000, 5)).ok());
    auto report = LfsChecker(fs->get()).Check(/*verify_data=*/true);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->Summary();
  }
  EXPECT_GT(overlay.private_sectors(), 0u);
  EXPECT_EQ(std::memcmp(disk.RawImage().data(), before.data(), before.size()), 0);

  auto fs = LfsFileSystem::Mount(&disk, /*clock=*/nullptr, /*cpu=*/nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  EXPECT_TRUE(paths.Stat("/kept").ok());
  EXPECT_EQ(paths.Stat("/overlay-only").status().code(), ErrorCode::kNotFound);
}

TEST(FaultDiskTest, CrashAfterNWrites) {
  SimClock clock;
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  disk.CrashAfterWrites(2);
  ASSERT_TRUE(disk.WriteSectors(0, Pattern(kSectorSize, 1)).ok());
  ASSERT_TRUE(disk.WriteSectors(1, Pattern(kSectorSize, 2)).ok());
  EXPECT_EQ(disk.WriteSectors(2, Pattern(kSectorSize, 3)).code(), ErrorCode::kCrashed);
  EXPECT_TRUE(disk.crashed());
  std::vector<std::byte> out(kSectorSize);
  EXPECT_EQ(disk.ReadSectors(0, out).code(), ErrorCode::kCrashed);
  // Reboot: data written before the crash survives.
  disk.Reset();
  ASSERT_TRUE(disk.ReadSectors(1, out).ok());
  EXPECT_EQ(out, Pattern(kSectorSize, 2));
  // The crashed write never reached the medium.
  ASSERT_TRUE(disk.ReadSectors(2, out).ok());
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(FaultDiskTest, TornWriteKeepsPrefix) {
  SimClock clock;
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  disk.CrashAfterWrites(0, /*torn_sectors=*/2);
  auto data = Pattern(4 * kSectorSize, 9);
  EXPECT_EQ(disk.WriteSectors(0, data).code(), ErrorCode::kCrashed);
  disk.Reset();
  std::vector<std::byte> out(4 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());
  // First two sectors made it; the rest did not.
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2 * kSectorSize, data.begin()));
  for (size_t i = 2 * kSectorSize; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::byte{0});
  }
}

TEST(FaultDiskTest, CrashAfterSectorsTearsMidWrite) {
  SimClock clock;
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  disk.CrashAfterSectors(3, /*torn=*/true);
  // 2 sectors fit the budget; the next 4-sector write tears after 1 more.
  auto first = Pattern(2 * kSectorSize, 1);
  auto second = Pattern(4 * kSectorSize, 7);
  ASSERT_TRUE(disk.WriteSectors(0, first).ok());
  EXPECT_EQ(disk.WriteSectors(10, second).code(), ErrorCode::kCrashed);
  EXPECT_TRUE(disk.crashed());
  disk.Reset();
  std::vector<std::byte> out(2 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());
  EXPECT_EQ(out, first);
  out.resize(4 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(10, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + kSectorSize, second.begin()));
  for (size_t i = kSectorSize; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::byte{0});
  }
}

TEST(FaultDiskTest, CrashAfterSectorsUntornDropsWholeRequest) {
  SimClock clock;
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  disk.CrashAfterSectors(1, /*torn=*/false);
  auto data = Pattern(2 * kSectorSize, 3);
  EXPECT_EQ(disk.WriteSectors(0, data).code(), ErrorCode::kCrashed);
  disk.Reset();
  std::vector<std::byte> out(2 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(FaultDiskTest, CrashAfterSectorsExactBudgetCompletesTheWrite) {
  SimClock clock;
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  disk.CrashAfterSectors(2, /*torn=*/true);
  auto data = Pattern(2 * kSectorSize, 5);
  ASSERT_TRUE(disk.WriteSectors(0, data).ok());  // Lands exactly on the budget.
  EXPECT_EQ(disk.WriteSectors(2, Pattern(kSectorSize, 6)).code(), ErrorCode::kCrashed);
  disk.Reset();
  std::vector<std::byte> out(2 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());
  EXPECT_EQ(out, data);
  out.resize(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(2, out).ok());
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(FaultDiskTest, CrashNowStopsEverything) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk disk(&inner);
  disk.CrashNow();
  EXPECT_EQ(disk.Flush().code(), ErrorCode::kCrashed);
}

// --- media-fault modes: each read behavior pinned per the fault_disk.h
// contract (crashed -> kCrashed; transient -> kIoError once, retry succeeds
// with correct data; bad sector -> kMediaError every attempt; silent
// corruption -> kOk with wrong bytes).

TEST(FaultDiskTest, BadSectorsFailPersistentlyWithMediaError) {
  SimClock clock;
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  auto data = Pattern(4 * kSectorSize, 3);
  ASSERT_TRUE(disk.WriteSectors(0, data).ok());
  disk.MarkBadSectors(2, 1);
  std::vector<std::byte> out(4 * kSectorSize);
  // Every attempt fails — retrying a persistent fault cannot help.
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(disk.ReadSectors(0, out).code(), ErrorCode::kMediaError);
  }
  EXPECT_EQ(disk.WriteSectors(2, Pattern(kSectorSize, 4)).code(), ErrorCode::kMediaError);
  EXPECT_EQ(disk.media_errors_injected(), 4u);
  // Requests not touching the bad sector are unaffected.
  out.resize(2 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
  // The damage survives a reboot but can be explicitly cleared.
  disk.Reset();
  out.resize(4 * kSectorSize);
  EXPECT_EQ(disk.ReadSectors(0, out).code(), ErrorCode::kMediaError);
  disk.ClearBadSectors();
  EXPECT_TRUE(disk.ReadSectors(0, out).ok());
}

TEST(FaultDiskTest, BadSectorModeSeparatesReadsFromWrites) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk disk(&inner);
  disk.MarkBadSectors(0, 1, FaultInjectingDisk::BadSectorMode::kWrite);
  std::vector<std::byte> out(kSectorSize);
  EXPECT_TRUE(disk.ReadSectors(0, out).ok());
  EXPECT_EQ(disk.WriteSectors(0, Pattern(kSectorSize, 1)).code(), ErrorCode::kMediaError);
  disk.ClearBadSectors();
  disk.MarkBadSectors(1, 1, FaultInjectingDisk::BadSectorMode::kRead);
  EXPECT_TRUE(disk.WriteSectors(1, Pattern(kSectorSize, 2)).ok());
  EXPECT_EQ(disk.ReadSectors(1, out).code(), ErrorCode::kMediaError);
}

TEST(FaultDiskTest, OneShotTransientReadFailsOnceThenRetrySucceeds) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk disk(&inner);
  auto data = Pattern(kSectorSize, 8);
  ASSERT_TRUE(disk.WriteSectors(5, data).ok());
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(5, out).ok());  // Read request #0.
  disk.FailNthRead(disk.read_requests_seen());  // Fail the next read.
  EXPECT_EQ(disk.ReadSectors(5, out).code(), ErrorCode::kIoError);
  // The retry of the exact same request succeeds with correct data.
  ASSERT_TRUE(disk.ReadSectors(5, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.transient_read_errors_injected(), 1u);
}

TEST(FaultDiskTest, OneShotTransientWriteFailsOnceWithoutTransferring) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk disk(&inner);
  auto data = Pattern(kSectorSize, 9);
  disk.FailNthWrite(disk.write_requests_seen());
  EXPECT_EQ(disk.WriteSectors(7, data).code(), ErrorCode::kIoError);
  // The failed request transferred nothing...
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(7, out).ok());
  for (std::byte b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
  // ...but still counted as a request, and the retry lands.
  EXPECT_EQ(disk.write_requests_seen(), 1u);
  ASSERT_TRUE(disk.WriteSectors(7, data).ok());
  ASSERT_TRUE(disk.ReadSectors(7, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.transient_write_errors_injected(), 1u);
}

TEST(FaultDiskTest, SeededTransientRatesAreDeterministic) {
  SimClock clock;
  auto run = [&clock](uint64_t seed) {
    MemoryDisk inner(1024, &clock);
    FaultInjectingDisk disk(&inner);
    disk.SetTransientErrorRates(seed, 0.3, 0.0);
    std::vector<std::byte> out(kSectorSize);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(disk.ReadSectors(0, out).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(42), run(42));         // Same seed, same fault schedule.
  EXPECT_NE(run(42), run(43));         // Different seed, different schedule.
  MemoryDisk inner(1024, &clock);
  FaultInjectingDisk disk(&inner);
  disk.SetTransientErrorRates(7, 0.5, 0.0);
  std::vector<std::byte> out(kSectorSize);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    failures += disk.ReadSectors(0, out).ok() ? 0 : 1;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 200);
  EXPECT_EQ(static_cast<uint64_t>(failures), disk.transient_read_errors_injected());
}

TEST(FaultDiskTest, SilentCorruptionReturnsOkWithWrongBytes) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk disk(&inner);
  auto data = Pattern(2 * kSectorSize, 5);
  ASSERT_TRUE(disk.WriteSectors(4, data).ok());
  disk.CorruptSector(5, /*byte_offset=*/17, /*xor_mask=*/0x40);
  std::vector<std::byte> out(2 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(4, out).ok());  // Reports success...
  auto expected = data;
  expected[kSectorSize + 17] ^= std::byte{0x40};  // ...with flipped bytes.
  EXPECT_EQ(out, expected);
  EXPECT_EQ(disk.corruptions_applied(), 1u);
  // The inner medium is untouched: clearing the fault restores the truth.
  disk.ClearCorruption();
  ASSERT_TRUE(disk.ReadSectors(4, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FaultDiskTest, VectoredReadsSeeTheSameFaults) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk disk(&inner);
  auto data = Pattern(2 * kSectorSize, 6);
  ASSERT_TRUE(disk.WriteSectors(0, data).ok());
  std::vector<std::byte> a(kSectorSize);
  std::vector<std::byte> b(kSectorSize);
  std::vector<std::span<std::byte>> bufs = {a, b};
  // Corruption lands in whichever buffer holds the affected sector.
  disk.CorruptSector(1, 3, 0xFF);
  ASSERT_TRUE(disk.ReadSectorsV(0, bufs).ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), data.begin()));
  EXPECT_EQ(b[3], data[kSectorSize + 3] ^ std::byte{0xFF});
  // Bad sectors fail the whole vectored request atomically.
  disk.MarkBadSectors(1, 1);
  EXPECT_EQ(disk.ReadSectorsV(0, bufs).code(), ErrorCode::kMediaError);
  // Crashed beats everything.
  disk.CrashNow();
  EXPECT_EQ(disk.ReadSectorsV(0, bufs).code(), ErrorCode::kCrashed);
}

TEST(RecordingDiskTest, RecordsRequests) {
  SimClock clock;
  MemoryDisk inner(4096, &clock);
  RecordingDisk disk(&inner, &clock);
  std::vector<double> returned;
  ASSERT_TRUE(disk.WriteSectors(0, Pattern(2 * kSectorSize, 0),
                                IoOptions{.synchronous = true}).ok());
  returned.push_back(clock.Now());
  ASSERT_TRUE(disk.WriteSectors(2, Pattern(kSectorSize, 0)).ok());
  returned.push_back(clock.Now());
  ASSERT_TRUE(disk.WriteSectors(100, Pattern(kSectorSize, 0)).ok());
  returned.push_back(clock.Now());
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());

  // Three writes journaled; the read is not.
  const std::vector<WriteRecord>& writes = disk.writes();
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(std::count_if(writes.begin(), writes.end(),
                          [](const WriteRecord& w) { return w.synchronous; }),
            1);
  // Second write continued at sector 2 (sequential); writes 1 and 3 did not.
  EXPECT_EQ(std::count_if(writes.begin(), writes.end(),
                          [](const WriteRecord& w) { return !w.sequential; }),
            2);
  EXPECT_TRUE(writes[1].sequential);
  EXPECT_FALSE(writes[2].sequential);
  // Each write is stamped with the simulated time its request returned.
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(writes[i].time_seconds, returned[i]);
  }
  EXPECT_GT(writes[0].time_seconds, 0.0);
  EXPECT_LT(writes[0].time_seconds, writes[2].time_seconds);
}

TEST(RecordingDiskTest, SequentialityCountsReadsAndEarlierRequests) {
  MemoryDisk inner(1024, nullptr);
  RecordingDisk disk(&inner);  // No clock: every time stamp is 0.
  std::vector<std::byte> sector(kSectorSize);
  ASSERT_TRUE(disk.WriteSectors(0, sector).ok());
  // A reader of one phase starts at the journal's current length.
  const size_t start = disk.write_count();
  ASSERT_TRUE(disk.WriteSectors(1, sector).ok());  // Continues the write before `start`.
  ASSERT_TRUE(disk.ReadSectors(6, sector).ok());
  ASSERT_TRUE(disk.WriteSectors(7, sector).ok());  // Continues the read.
  const std::span<std::byte> halves[] = {std::span(sector).first(256),
                                         std::span(sector).subspan(256)};
  ASSERT_TRUE(disk.ReadSectorsV(20, halves).ok());
  ASSERT_TRUE(disk.WriteSectors(21, sector).ok());  // Continues the vectored read.
  ASSERT_TRUE(disk.WriteSectors(40, sector).ok());

  ASSERT_EQ(disk.write_count() - start, 4u);
  EXPECT_FALSE(disk.writes()[0].sequential);  // Nothing came before it.
  EXPECT_TRUE(disk.writes()[start].sequential);
  EXPECT_TRUE(disk.writes()[start + 1].sequential);
  EXPECT_TRUE(disk.writes()[start + 2].sequential);
  EXPECT_FALSE(disk.writes()[start + 3].sequential);
  for (const WriteRecord& w : disk.writes()) {
    EXPECT_EQ(w.time_seconds, 0.0);
  }
}

TEST(StripedDiskTest, ReadBackAcrossStripeBoundaries) {
  SimClock clock;
  StripedDisk array(4, 1024, /*stripe_sectors=*/8, &clock);
  EXPECT_EQ(array.sector_count(), 4096u);
  // A write spanning several stripes round-trips bit-exactly.
  auto data = Pattern(40 * kSectorSize, 3);
  ASSERT_TRUE(array.WriteSectors(5, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(array.ReadSectors(5, out).ok());
  EXPECT_EQ(out, data);
  // Unwritten regions read zero.
  std::vector<std::byte> hole(kSectorSize);
  ASSERT_TRUE(array.ReadSectors(2000, hole).ok());
  for (std::byte b : hole) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(StripedDiskTest, RejectsBadExtents) {
  SimClock clock;
  StripedDisk array(2, 64, 8, &clock);
  std::vector<std::byte> buffer(kSectorSize);
  EXPECT_EQ(array.ReadSectors(128, buffer).code(), ErrorCode::kOutOfRange);
  std::vector<std::byte> odd(100);
  EXPECT_EQ(array.ReadSectors(0, odd).code(), ErrorCode::kInvalidArgument);
}

TEST(StripedDiskTest, SequentialBandwidthScalesWithMembers) {
  // The paper's Section 2.1 asymmetry: arrays raise bandwidth, not access
  // time. A large transfer must finish ~N times faster on N members.
  auto time_large_write = [](uint32_t members) {
    SimClock clock;
    StripedDisk array(members, 1 << 16, /*stripe_sectors=*/128, &clock);
    std::vector<std::byte> data(4 << 20, std::byte{0x11});
    (void)array.WriteSectors(0, data);
    return clock.Now();
  };
  const double one = time_large_write(1);
  const double four = time_large_write(4);
  EXPECT_GT(one / four, 3.0);
  EXPECT_LT(one / four, 5.0);
}

TEST(StripedDiskTest, SmallAccessLatencyDoesNotImprove) {
  auto time_small_random_ops = [](uint32_t members) {
    SimClock clock;
    StripedDisk array(members, 1 << 16, /*stripe_sectors=*/128, &clock);
    std::vector<std::byte> sector(kSectorSize, std::byte{0x22});
    for (int i = 0; i < 50; ++i) {
      (void)array.WriteSectors((i * 7919) % (1 << 15), sector);
    }
    return clock.Now();
  };
  const double one = time_small_random_ops(1);
  const double four = time_small_random_ops(4);
  // Small scattered accesses gain little from the array (each op still pays
  // a full positioning delay on some member).
  EXPECT_GT(four, one * 0.5);
}

TEST(StripedDiskTest, LfsRunsOnAnArray) {
  // The whole file system stack works unchanged on RAID-0, and its large
  // sequential segment writes are what actually harvests the array's
  // bandwidth.
  SimClock clock;
  StripedDisk array(4, 32768, /*stripe_sectors=*/256, &clock);
  LfsParams params;
  params.max_inodes = 2048;
  ASSERT_TRUE(LfsFileSystem::Format(&array, params).ok());
  auto fs = LfsFileSystem::Mount(&array, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  auto data = Pattern(1 << 20, 9);
  ASSERT_TRUE(paths.WriteFile("/striped", data).ok());
  ASSERT_TRUE((*fs)->Sync().ok());
  ASSERT_TRUE((*fs)->DropCaches().ok());
  auto back = paths.ReadFile("/striped");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

}  // namespace
}  // namespace logfs
