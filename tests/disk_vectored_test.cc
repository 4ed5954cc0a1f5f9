// Conformance suite for the vectored (scatter-gather) BlockDevice API,
// run against every implementation: MemoryDisk (native), StripedDisk
// (stripe-boundary splitting), FaultInjectingDisk / RecordingDisk
// (decorators), and the base-class bounce-buffer fallback. The contract
// under test: a vectored request behaves exactly like the scalar request on
// the coalesced buffer — same bytes, same single-operation stats and
// timing, same journal/fault accounting — for any carve-up of the payload,
// sector-aligned or not.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/recording_disk.h"
#include "src/disk/striped_disk.h"
#include "src/sim/sim_clock.h"

namespace logfs {
namespace {

constexpr uint64_t kSectors = 4096;

std::vector<std::byte> Pattern(size_t bytes, uint8_t seed) {
  std::vector<std::byte> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>(seed + 3 * i);
  }
  return data;
}

// Splits `data` into spans at the given byte offsets (may include empty
// pieces and pieces that are not sector multiples).
std::vector<std::span<const std::byte>> Carve(std::span<const std::byte> data,
                                              const std::vector<size_t>& cuts) {
  std::vector<std::span<const std::byte>> parts;
  size_t prev = 0;
  for (size_t cut : cuts) {
    parts.push_back(data.subspan(prev, cut - prev));
    prev = cut;
  }
  parts.push_back(data.subspan(prev));
  return parts;
}

std::vector<std::span<std::byte>> CarveMutable(std::span<std::byte> data,
                                               const std::vector<size_t>& cuts) {
  std::vector<std::span<std::byte>> parts;
  size_t prev = 0;
  for (size_t cut : cuts) {
    parts.push_back(data.subspan(prev, cut - prev));
    prev = cut;
  }
  parts.push_back(data.subspan(prev));
  return parts;
}

// Decorator that deliberately does NOT override the vectored entry points,
// so the base-class bounce-buffer fallback is what gets exercised.
class ForwardingDisk : public BlockDevice {
 public:
  explicit ForwardingDisk(BlockDevice* inner) : inner_(inner) {}
  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override {
    return inner_->ReadSectors(first, out, options);
  }
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override {
    return inner_->WriteSectors(first, data, options);
  }
  Status Flush() override { return inner_->Flush(); }
  uint64_t sector_count() const override { return inner_->sector_count(); }
  const DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  BlockDevice* inner_;
};

enum class Impl {
  kMemory,
  kStriped,
  kFault,
  kRecording,
  kDefaultFallback,
};

// One assembled device stack. Members the given Impl does not need stay
// null; `dut` points at the device under test.
struct Stack {
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<MemoryDisk> base;
  std::unique_ptr<StripedDisk> striped;
  std::unique_ptr<FaultInjectingDisk> fault;
  std::unique_ptr<RecordingDisk> recording;
  std::unique_ptr<ForwardingDisk> forwarding;
  BlockDevice* dut = nullptr;
};

Stack MakeStack(Impl impl) {
  Stack s;
  s.clock = std::make_unique<SimClock>();
  switch (impl) {
    case Impl::kMemory:
      s.base = std::make_unique<MemoryDisk>(kSectors, s.clock.get());
      s.dut = s.base.get();
      break;
    case Impl::kStriped:
      s.striped = std::make_unique<StripedDisk>(4, kSectors / 4, /*stripe_sectors=*/8,
                                                s.clock.get());
      s.dut = s.striped.get();
      break;
    case Impl::kFault:
      s.base = std::make_unique<MemoryDisk>(kSectors, s.clock.get());
      s.fault = std::make_unique<FaultInjectingDisk>(s.base.get());
      s.dut = s.fault.get();
      break;
    case Impl::kRecording:
      s.base = std::make_unique<MemoryDisk>(kSectors, s.clock.get());
      s.recording = std::make_unique<RecordingDisk>(s.base.get());
      s.dut = s.recording.get();
      break;
    case Impl::kDefaultFallback:
      s.base = std::make_unique<MemoryDisk>(kSectors, s.clock.get());
      s.forwarding = std::make_unique<ForwardingDisk>(s.base.get());
      s.dut = s.forwarding.get();
      break;
  }
  return s;
}

const char* ImplName(Impl impl) {
  switch (impl) {
    case Impl::kMemory: return "MemoryDisk";
    case Impl::kStriped: return "StripedDisk";
    case Impl::kFault: return "FaultInjectingDisk";
    case Impl::kRecording: return "RecordingDisk";
    case Impl::kDefaultFallback: return "DefaultFallback";
  }
  return "?";
}

class VectoredIoTest : public testing::TestWithParam<Impl> {};

// Irregular carve-up: unaligned cuts, an empty middle piece.
const std::vector<size_t> kCuts = {1, 700, 700, 2048, 6143};

TEST_P(VectoredIoTest, GatherWriteScatterReadRoundTrip) {
  Stack s = MakeStack(GetParam());
  const auto data = Pattern(16 * kSectorSize, 11);
  ASSERT_TRUE(s.dut->WriteSectorsV(32, Carve(data, kCuts)).ok());

  // Scalar read sees the coalesced bytes.
  std::vector<std::byte> flat(data.size());
  ASSERT_TRUE(s.dut->ReadSectors(32, flat).ok());
  EXPECT_EQ(flat, data);

  // Scatter read through a different carve-up reassembles them too.
  std::vector<std::byte> scattered(data.size());
  ASSERT_TRUE(s.dut->ReadSectorsV(32, CarveMutable(scattered, {300, 4096, 5000})).ok());
  EXPECT_EQ(scattered, data);
}

TEST_P(VectoredIoTest, StatsAndTimingMatchScalarPath) {
  Stack vectored = MakeStack(GetParam());
  Stack scalar = MakeStack(GetParam());
  const auto a = Pattern(16 * kSectorSize, 3);
  const auto b = Pattern(8 * kSectorSize, 5);

  ASSERT_TRUE(vectored.dut->WriteSectorsV(0, Carve(a, kCuts)).ok());
  ASSERT_TRUE(vectored.dut->WriteSectorsV(64, Carve(b, {513})).ok());
  std::vector<std::byte> out(a.size());
  ASSERT_TRUE(vectored.dut->ReadSectorsV(0, CarveMutable(out, {97})).ok());

  ASSERT_TRUE(scalar.dut->WriteSectors(0, a).ok());
  ASSERT_TRUE(scalar.dut->WriteSectors(64, b).ok());
  ASSERT_TRUE(scalar.dut->ReadSectors(0, out).ok());

  // One operation per request, identical sector counts, identical simulated
  // service time — vectoring must be invisible to the simulation.
  EXPECT_EQ(vectored.dut->stats().ToString(), scalar.dut->stats().ToString());
  EXPECT_DOUBLE_EQ(vectored.clock->Now(), scalar.clock->Now());
  EXPECT_EQ(vectored.dut->stats().write_ops, 2u);
  EXPECT_EQ(vectored.dut->stats().read_ops, 1u);
}

TEST_P(VectoredIoTest, RejectsBadExtents) {
  Stack s = MakeStack(GetParam());
  std::vector<std::byte> sector(kSectorSize);
  std::vector<std::byte> partial(100);

  // Total not a multiple of the sector size.
  const std::span<const std::byte> ragged[] = {sector, partial};
  EXPECT_FALSE(s.dut->WriteSectorsV(0, ragged).ok());

  // Empty vector (zero total).
  EXPECT_FALSE(s.dut->WriteSectorsV(0, {}).ok());

  // Extent past the end of the device.
  const std::span<const std::byte> one[] = {sector};
  EXPECT_FALSE(s.dut->WriteSectorsV(s.dut->sector_count(), one).ok());

  std::vector<std::byte> out(kSectorSize);
  const std::span<std::byte> mut[] = {out};
  EXPECT_FALSE(s.dut->ReadSectorsV(s.dut->sector_count(), mut).ok());
}

INSTANTIATE_TEST_SUITE_P(AllImpls, VectoredIoTest,
                         testing::Values(Impl::kMemory, Impl::kStriped, Impl::kFault,
                                         Impl::kRecording, Impl::kDefaultFallback),
                         [](const testing::TestParamInfo<Impl>& param_info) {
                           return ImplName(param_info.param);
                         });

TEST(StripedVectoredTest, BuffersStraddlingStripeBoundariesLandCorrectly) {
  // stripe_sectors = 8 → a 24-sector write starting at sector 4 crosses
  // three stripe boundaries; carve it so no buffer edge coincides with one.
  SimClock clock;
  StripedDisk striped(4, kSectors / 4, 8, &clock);
  const auto data = Pattern(24 * kSectorSize, 9);
  ASSERT_TRUE(striped.WriteSectorsV(4, Carve(data, {3000, 3000, 9000, 12287})).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(striped.ReadSectors(4, out).ok());
  EXPECT_EQ(out, data);

  // Per-member accounting matches the scalar path run by run (the reference
  // stack replays the same write + verification read).
  SimClock clock2;
  StripedDisk reference(4, kSectors / 4, 8, &clock2);
  ASSERT_TRUE(reference.WriteSectors(4, data).ok());
  ASSERT_TRUE(reference.ReadSectors(4, out).ok());
  for (uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(striped.member(m).stats().ToString(), reference.member(m).stats().ToString())
        << "member " << m;
  }
}

TEST(FaultVectoredTest, CrashAfterSectorsTearsMidBuffer) {
  SimClock clock;
  MemoryDisk base(kSectors, &clock);
  FaultInjectingDisk fault(&base);
  const auto data = Pattern(8 * kSectorSize, 21);

  // Budget of 3 sectors lands inside the second buffer of the vector.
  fault.CrashAfterSectors(3, /*torn=*/true);
  const auto parts = Carve(data, {kSectorSize, 5 * kSectorSize});
  EXPECT_FALSE(fault.WriteSectorsV(0, parts).ok());
  EXPECT_TRUE(fault.crashed());
  EXPECT_EQ(fault.sectors_written_seen(), 3u);

  // Exactly the first 3 sectors persisted; the rest of the medium is
  // untouched (zero).
  std::vector<std::byte> out(8 * kSectorSize);
  ASSERT_TRUE(base.ReadSectors(0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 3 * kSectorSize, data.begin()));
  for (size_t i = 3 * kSectorSize; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << "byte " << i << " leaked past the torn prefix";
  }
}

TEST(FaultVectoredTest, CrashAfterSectorsRequestAtomicDropsWholeVector) {
  SimClock clock;
  MemoryDisk base(kSectors, &clock);
  FaultInjectingDisk fault(&base);
  const auto data = Pattern(8 * kSectorSize, 33);

  fault.CrashAfterSectors(3, /*torn=*/false);
  EXPECT_FALSE(fault.WriteSectorsV(0, Carve(data, {600})).ok());
  EXPECT_TRUE(fault.crashed());
  std::vector<std::byte> out(8 * kSectorSize);
  ASSERT_TRUE(base.ReadSectors(0, out).ok());
  for (std::byte b : out) {
    ASSERT_EQ(b, std::byte{0});
  }
}

TEST(FaultVectoredTest, CrashAfterWritesTearsVectoredRequest) {
  SimClock clock;
  MemoryDisk base(kSectors, &clock);
  FaultInjectingDisk fault(&base);
  const auto data = Pattern(4 * kSectorSize, 40);

  fault.CrashAfterWrites(1, /*torn_sectors=*/2);
  ASSERT_TRUE(fault.WriteSectorsV(100, Carve(data, {700})).ok());  // Survives.
  EXPECT_FALSE(fault.WriteSectorsV(0, Carve(data, {700})).ok());   // Torn at 2 sectors.
  EXPECT_TRUE(fault.crashed());

  std::vector<std::byte> out(4 * kSectorSize);
  ASSERT_TRUE(base.ReadSectors(0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2 * kSectorSize, data.begin()));
  for (size_t i = 2 * kSectorSize; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::byte{0});
  }
  // Every subsequent request fails: the device is off.
  EXPECT_FALSE(fault.ReadSectorsV(0, CarveMutable(out, {512})).ok());
}

TEST(RecordingVectoredTest, JournalsVectorAsOneRecord) {
  SimClock clock;
  MemoryDisk base(kSectors, &clock);
  RecordingDisk recording(&base);
  const auto data = Pattern(6 * kSectorSize, 55);

  ASSERT_TRUE(recording.WriteSectorsV(10, Carve(data, {100, 3000}), {}).ok());
  ASSERT_EQ(recording.write_count(), 1u);
  EXPECT_EQ(recording.writes()[0].first, 10u);
  EXPECT_EQ(recording.writes()[0].data, data);
  EXPECT_EQ(recording.writes()[0].SectorCount(), 6u);
  EXPECT_EQ(recording.writes()[0].epoch, 0u);

  // A synchronous vectored write still barriers into its own epoch.
  ASSERT_TRUE(recording
                  .WriteSectorsV(20, Carve(data, {3072}), IoOptions{.synchronous = true})
                  .ok());
  ASSERT_EQ(recording.write_count(), 2u);
  EXPECT_EQ(recording.writes()[1].epoch, 1u);
  EXPECT_TRUE(recording.writes()[1].synchronous);
  // The barrier closes its epoch behind it: the next write opens epoch 2.
  ASSERT_TRUE(recording.WriteSectorsV(30, Carve(data, {3072}), {}).ok());
  ASSERT_EQ(recording.write_count(), 3u);
  EXPECT_EQ(recording.writes()[2].epoch, 2u);
}

}  // namespace
}  // namespace logfs
