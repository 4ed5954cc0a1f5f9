// Unit tests for ResilientDisk: bounded retry of transient kIoError results
// with exponential simulated-time backoff, pass-through of persistent
// failures, and reclassification of an exhausted retry budget to kMediaError.
#include <gtest/gtest.h>

#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/resilient_disk.h"
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

TEST(ResilientDiskTest, RecoversFromSingleTransientReadError) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, &clock);
  auto data = Pattern(kSectorSize, 1);
  ASSERT_TRUE(disk.WriteSectors(3, data).ok());
  faulty.FailNthRead(faulty.read_requests_seen());
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(3, out).ok());  // Retried internally.
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.retries(), 1u);
  EXPECT_EQ(disk.recovered(), 1u);
  EXPECT_EQ(disk.exhausted(), 0u);
  EXPECT_EQ(faulty.transient_read_errors_injected(), 1u);
}

TEST(ResilientDiskTest, BackoffAdvancesSimulatedClockExponentially) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, &clock);
  static_assert(ResilientDisk::kMaxAttempts == 4);
  static_assert(ResilientDisk::kInitialBackoffSeconds == 0.001);
  static_assert(ResilientDisk::kBackoffMultiplier == 2.0);
  // Fail the next three read requests; the fourth attempt succeeds.
  const uint64_t base = faulty.read_requests_seen();
  faulty.FailNthRead(base);
  faulty.FailNthRead(base + 1);
  faulty.FailNthRead(base + 2);
  const double before = clock.Now();
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(0, out).ok());
  // Three backoffs: 0.001 + 0.002 + 0.004 (plus the device's own transfer
  // time, which is nonnegative), so at least 0.007 simulated seconds passed.
  EXPECT_GE(clock.Now() - before, 0.007);
  EXPECT_EQ(disk.retries(), 3u);
  EXPECT_EQ(disk.recovered(), 1u);
}

TEST(ResilientDiskTest, ExhaustedBudgetReclassifiesToMediaError) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, &clock);
  const uint64_t base = faulty.read_requests_seen();
  for (uint64_t i = 0; i < ResilientDisk::kMaxAttempts; ++i) {
    faulty.FailNthRead(base + i);
  }
  std::vector<std::byte> out(kSectorSize);
  EXPECT_EQ(disk.ReadSectors(0, out).code(), ErrorCode::kMediaError);
  // kMaxAttempts includes the first attempt.
  EXPECT_EQ(disk.retries(), ResilientDisk::kMaxAttempts - 1);
  EXPECT_EQ(disk.recovered(), 0u);
  EXPECT_EQ(disk.exhausted(), 1u);
  EXPECT_EQ(disk.media_errors(), 1u);
}

TEST(ResilientDiskTest, MediaErrorPassesThroughWithoutRetry) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, &clock);
  faulty.MarkBadSectors(0, 1);
  std::vector<std::byte> out(kSectorSize);
  EXPECT_EQ(disk.ReadSectors(0, out).code(), ErrorCode::kMediaError);
  // Exactly one attempt reached the device: persistent faults are not retried.
  EXPECT_EQ(faulty.read_requests_seen(), 1u);
  EXPECT_EQ(disk.retries(), 0u);
  EXPECT_EQ(disk.exhausted(), 0u);
  EXPECT_EQ(disk.media_errors(), 1u);
}

TEST(ResilientDiskTest, CrashedPassesThroughWithoutRetry) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, &clock);
  faulty.CrashNow();
  std::vector<std::byte> out(kSectorSize);
  EXPECT_EQ(disk.ReadSectors(0, out).code(), ErrorCode::kCrashed);
  EXPECT_EQ(disk.WriteSectors(0, Pattern(kSectorSize, 1)).code(), ErrorCode::kCrashed);
  EXPECT_EQ(disk.retries(), 0u);
  EXPECT_EQ(disk.media_errors(), 0u);
}

TEST(ResilientDiskTest, NullClockRetriesWithoutDelay) {
  MemoryDisk inner(64, nullptr);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, /*clock=*/nullptr);
  auto data = Pattern(kSectorSize, 2);
  ASSERT_TRUE(disk.WriteSectors(1, data).ok());
  faulty.FailNthRead(faulty.read_requests_seen());
  std::vector<std::byte> out(kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(1, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.retries(), 1u);
  EXPECT_EQ(disk.recovered(), 1u);
}

TEST(ResilientDiskTest, TransientWriteIsRetriedAndDataLands) {
  SimClock clock;
  MemoryDisk inner(64, &clock);
  FaultInjectingDisk faulty(&inner);
  ResilientDisk disk(&faulty, &clock);
  auto data = Pattern(2 * kSectorSize, 7);
  faulty.FailNthWrite(faulty.write_requests_seen());
  ASSERT_TRUE(disk.WriteSectors(4, data).ok());
  std::vector<std::byte> out(2 * kSectorSize);
  ASSERT_TRUE(disk.ReadSectors(4, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.retries(), 1u);
  EXPECT_EQ(disk.recovered(), 1u);
  EXPECT_EQ(faulty.transient_write_errors_injected(), 1u);
}

}  // namespace
}  // namespace logfs
