// Space-observatory tests: the exact-sum attribution invariant (every
// acknowledged device write is attributed to exactly one provenance class,
// so the per-source counters sum to the device's own write totals) across
// single-shard, multi-shard, crash-recovery, and fault-injection runs; a
// concurrent-attribution run for TSan; scrubber salvage charged to the cleaner
// class; segment lifecycle/age/heat telemetry;
// the utilization-distribution gauges; and the SegmentUsageTable edge cases
// (heat EWMA folding, memory-only heat across encode/decode, and the
// live-bytes underflow clamp).
#include <gtest/gtest.h>

#include <thread>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/resilient_disk.h"
#include "src/lfs/lfs_seg_usage.h"
#include "src/lfs/sharded_lfs.h"
#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/workload/concurrent_driver.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

// The attribution counters are process-wide; every test starts them (and the
// rest of the registry) from zero so device stats and counters line up.
class SpaceObservatoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
    obs::Registry().ResetAll();
  }
};

uint64_t Bytes(const obs::IoAttribution& attr, obs::IoSource source) {
  return attr.bytes[static_cast<size_t>(source)];
}

// The invariant itself: per-source counters are internally consistent and
// sum exactly to what the device acknowledged.
void ExpectExactSum(const DiskStats& stats) {
  const obs::IoAttribution attr = obs::AttributionSnapshot();
  uint64_t sum_writes = 0;
  uint64_t sum_bytes = 0;
  for (size_t s = 0; s < obs::kIoSourceCount; ++s) {
    sum_writes += attr.writes[s];
    sum_bytes += attr.bytes[s];
  }
  EXPECT_EQ(sum_writes, attr.total_writes);
  EXPECT_EQ(sum_bytes, attr.total_bytes);
  EXPECT_EQ(attr.total_writes, stats.write_ops);
  EXPECT_EQ(attr.total_bytes, stats.sectors_written * kSectorSize);
}

// --- exact-sum invariant ----------------------------------------------------

// Small segments so a modest workload spans several of them; the victims the
// cleaner picks are then half-live and force relocation traffic.
LfsParams SmallSegmentParams() {
  LfsParams params = LfsInstance::DefaultParams();
  params.segment_size = 1 << 19;
  return params;
}

TEST_F(SpaceObservatoryTest, ExactSumSeededSingleShard) {
  // Format + mount are attributed too (the registry starts fresh).
  LfsInstance inst(131072, SmallSegmentParams());
  constexpr int kFiles = 16;
  constexpr size_t kBytesPerFile = 40000;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(
        inst.paths->WriteFile("/f" + std::to_string(i), TestBytes(kBytesPerFile, i)).ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  // Overwrites give the cleaner dead blocks, so a cleaning pass relocates
  // live data and the kCleaner class sees traffic.
  for (int i = 0; i < kFiles; i += 2) {
    ASSERT_TRUE(
        inst.paths->WriteFile("/f" + std::to_string(i), TestBytes(kBytesPerFile, 100 + i)).ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->CleanNow(8).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 1; i < kFiles; i += 2) {
    ASSERT_TRUE(inst.paths->Unlink("/f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());

  ExpectExactSum(inst.disk->stats());
  const obs::IoAttribution attr = obs::AttributionSnapshot();
  EXPECT_GT(Bytes(attr, obs::IoSource::kForegroundData), 0u);
  EXPECT_GT(Bytes(attr, obs::IoSource::kCheckpoint), 0u);
  EXPECT_GT(Bytes(attr, obs::IoSource::kCleaner), 0u);
  EXPECT_GE(attr.write_amplification, 1.0);
}

TEST_F(SpaceObservatoryTest, ExactSumMultiShard) {
  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  MemoryDisk disk(131072, &clock);
  ASSERT_TRUE(ShardedLfs::Format(&disk, LfsInstance::DefaultParams(), 4).ok());
  auto mounted = ShardedLfs::Mount(&disk, &clock, &cpu);
  ASSERT_TRUE(mounted.ok());
  auto& fs = *mounted;

  std::vector<InodeNum> dirs;
  for (int d = 0; d < 4; ++d) {
    auto dir = fs->Create(kRootIno, "vol" + std::to_string(d), FileType::kDirectory);
    ASSERT_TRUE(dir.ok());
    dirs.push_back(*dir);
    for (int i = 0; i < 6; ++i) {
      auto ino = fs->Create(*dir, "f" + std::to_string(i), FileType::kRegular);
      ASSERT_TRUE(ino.ok());
      const std::vector<std::byte> payload = TestBytes(12000, d * 100 + i);
      ASSERT_TRUE(fs->Write(*ino, 0, payload).ok());
      ASSERT_TRUE(fs->Fsync(*ino).ok());
    }
  }
  // Cross-shard renames exercise the intent log (kIntent attribution).
  ASSERT_TRUE(fs->Rename(dirs[0], "f0", dirs[1], "moved0").ok());
  ASSERT_TRUE(fs->Rename(dirs[2], "f1", dirs[3], "moved1").ok());
  ASSERT_TRUE(fs->Sync().ok());

  ExpectExactSum(disk.stats());
  const obs::IoAttribution attr = obs::AttributionSnapshot();
  EXPECT_GT(Bytes(attr, obs::IoSource::kForegroundData), 0u);
  EXPECT_GT(Bytes(attr, obs::IoSource::kIntent), 0u);
}

// Racing shard front-ends all attribute concurrently; after the barrier
// (join + sync) the relaxed counters must still sum exactly. This is also
// the TSan target for the attribution seam (label: concurrent).
TEST_F(SpaceObservatoryTest, ExactSumConcurrentShardFrontEnds) {
  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  MemoryDisk disk(131072, &clock);
  LfsParams params = LfsInstance::DefaultParams();
  params.segment_size = 1 << 19;
  ASSERT_TRUE(ShardedLfs::Format(&disk, params, 4).ok());
  auto mounted = ShardedLfs::Mount(&disk, &clock, &cpu);
  ASSERT_TRUE(mounted.ok());

  ConcurrentLoadOptions options;
  options.threads = 4;
  options.ops_per_thread = 150;
  options.fsync_interval = 6;
  auto report = RunConcurrentLoad(mounted->get(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << (report->problems.empty() ? "unexpected errors"
                                                         : report->problems.front());
  ASSERT_TRUE((*mounted)->Sync().ok());

  ExpectExactSum(disk.stats());
}

TEST_F(SpaceObservatoryTest, ExactSumAcrossCrashRecovery) {
  SimClock clock;
  MemoryDisk inner(131072, &clock);
  FaultInjectingDisk fault(&inner);
  ASSERT_TRUE(LfsFileSystem::Format(&inner, LfsInstance::DefaultParams()).ok());
  {
    auto fs = LfsFileSystem::Mount(&fault, &clock, nullptr);
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/durable", TestBytes(30000, 1)).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
    ASSERT_TRUE(paths.WriteFile("/after", TestBytes(9000, 2)).ok());
    auto ino = paths.Resolve("/after");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*fs)->Fsync(*ino).ok());
    // Power off with nothing in flight: every write the device acknowledged
    // was attributed, everything refused after this transfers no bytes.
    fault.CrashNow();
  }
  // Reboot on the surviving image; roll-forward replays the log tail.
  auto fs = LfsFileSystem::Mount(&inner, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  EXPECT_GT((*fs)->rolled_forward_partials(), 0u);
  PathFs paths(fs->get());
  ASSERT_TRUE(paths.WriteFile("/post", TestBytes(5000, 3)).ok());
  ASSERT_TRUE((*fs)->Sync().ok());

  // The invariant spans the whole history: format, first mount's writes,
  // recovery's own writes, and the post-recovery workload.
  ExpectExactSum(inner.stats());
}

TEST_F(SpaceObservatoryTest, ExactSumUnderInjectedTransientFaults) {
  SimClock clock;
  MemoryDisk inner(65536, &clock);
  FaultInjectingDisk fault(&inner);
  ResilientDisk disk(&fault, &clock);
  // Few dozen (vectored) write requests in this run: a high seeded rate so
  // the injection deterministically fires several times.
  fault.SetTransientErrorRates(/*seed=*/20260808, /*read_p=*/0.05, /*write_p=*/0.25);

  ASSERT_TRUE(LfsFileSystem::Format(&disk, LfsInstance::DefaultParams()).ok());
  auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(paths.WriteFile("/f" + std::to_string(i), TestBytes(40000, i)).ok());
  }
  ASSERT_TRUE((*fs)->Sync().ok());
  for (int i = 0; i < 8; i += 2) {
    ASSERT_TRUE(paths.WriteFile("/f" + std::to_string(i), TestBytes(40000, 50 + i)).ok());
  }
  ASSERT_TRUE((*fs)->Sync().ok());
  ASSERT_TRUE((*fs)->CleanNow(8).ok());
  ASSERT_TRUE((*fs)->Sync().ok());

  // The retry layer really absorbed injected write failures: a failed
  // attempt transfers nothing and is attributed nowhere; only the successful
  // retry reaches the inner medium and the counters.
  EXPECT_GT(fault.transient_write_errors_injected(), 0u);
  ExpectExactSum(inner.stats());
}

TEST_F(SpaceObservatoryTest, ScrubSalvageIsCleanerTraffic) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/big", TestBytes(300 * 4096, 11)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  auto ino = inst.paths->Resolve("/big");
  ASSERT_TRUE(ino.ok());
  // A data block of /big in a sealed segment; the file was written once, so
  // every logged copy is live.
  const LfsSuperblock& sb = inst.fs->superblock();
  DiskAddr victim = kNoAddr;
  for (uint32_t seg = 0; seg < sb.num_segments && victim == kNoAddr; ++seg) {
    if (inst.fs->usage().Get(seg).state != SegState::kDirty) {
      continue;
    }
    for (SummaryChain chain(inst.disk.get(), sb, seg, ChainMode::kStrict);
         victim == kNoAddr && chain.Next();) {
      auto summary = DecodeSummaryUnchecked(chain.summary_block());
      ASSERT_TRUE(summary.ok());
      for (size_t i = 0; i < summary->entries.size() && victim == kNoAddr; ++i) {
        if (summary->entries[i].kind == BlockKind::kData && summary->entries[i].ino == *ino) {
          victim = sb.SegmentBlockSector(seg, chain.offset() + 1 + static_cast<uint32_t>(i));
        }
      }
    }
  }
  ASSERT_NE(victim, kNoAddr);
  const uint32_t victim_seg = sb.SegmentOfSector(victim);
  const double last_overwrite = inst.fs->usage().Get(victim_seg).last_overwrite_at;
  inst.disk->MutableRawImage()[victim * kSectorSize + 100] ^= std::byte{0xFF};

  const obs::IoAttribution before = obs::AttributionSnapshot();
  auto report = inst.fs->Scrub(sb.num_segments);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->segments_quarantined, 1u);
  ASSERT_GT(report->blocks_salvaged, 0u);
  const obs::IoAttribution after = obs::AttributionSnapshot();

  // Every byte the salvage wrote is cleaner relocation, none foreground.
  const uint64_t written = after.total_bytes - before.total_bytes;
  EXPECT_GE(written, report->blocks_salvaged * sb.block_size);
  EXPECT_EQ(Bytes(after, obs::IoSource::kCleaner) - Bytes(before, obs::IoSource::kCleaner),
            written);
  EXPECT_EQ(Bytes(after, obs::IoSource::kForegroundData),
            Bytes(before, obs::IoSource::kForegroundData));
  EXPECT_EQ(Bytes(after, obs::IoSource::kForegroundMeta),
            Bytes(before, obs::IoSource::kForegroundMeta));
  ExpectExactSum(inst.disk->stats());
  // Moving blocks out is not the workload overwriting them: no heat.
  EXPECT_EQ(inst.fs->usage().Get(victim_seg).state, SegState::kQuarantined);
  EXPECT_EQ(inst.fs->usage().Get(victim_seg).last_overwrite_at, last_overwrite);
}

// --- lifecycle, age, and heat telemetry -------------------------------------

TEST_F(SpaceObservatoryTest, LifecycleCountersAndAgeHeatHistograms) {
  LfsInstance inst(131072, SmallSegmentParams());
  PathFs& paths = *inst.paths;
  // Many small files co-resident in one segment, then overwrite them one
  // sync apart: each overwrite kills a block in the *original* segment at a
  // later sim time, so its overwrite-interval EWMA seeds and folds.
  constexpr int kFiles = 8;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(paths.WriteFile("/s" + std::to_string(i), TestBytes(4096, i)).ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(paths.WriteFile("/s" + std::to_string(i), TestBytes(4096, 40 + i)).ok());
    ASSERT_TRUE(inst.fs->Sync().ok());
  }
  // Bulk data to seal a few more segments (512 KB each here).
  ASSERT_TRUE(paths.WriteFile("/bulk", TestBytes(1500000, 99)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());

  const auto& usage = inst.fs->usage();
  const LfsSuperblock& sb = inst.fs->superblock();
  bool heated = false;
  for (uint32_t seg = 0; seg < sb.num_segments && !heated; ++seg) {
    heated = usage.Get(seg).heat_interval_ewma > 0.0;
  }
  EXPECT_TRUE(heated) << "no segment ever folded an overwrite interval";

  ASSERT_TRUE(inst.fs->CleanNow(8).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());

  auto counter = [](const char* name) {
    const obs::Counter* c = obs::Registry().FindCounter(name);
    return c == nullptr ? 0u : c->Value();
  };
  EXPECT_GT(counter("logfs.seg.lifecycle.allocated"), 0u);
  EXPECT_GT(counter("logfs.seg.lifecycle.sealed"), 0u);
  EXPECT_GT(counter("logfs.seg.lifecycle.cleaned"), 0u);
  EXPECT_EQ(counter("logfs.seg.lifecycle.quarantined"), 0u);

  const obs::Histogram* age = obs::Registry().FindHistogram("logfs.seg.age_us");
  ASSERT_NE(age, nullptr);
  EXPECT_GT(age->Count(), 0u);
  const obs::Histogram* heat = obs::Registry().FindHistogram("logfs.seg.heat");
  ASSERT_NE(heat, nullptr);
  EXPECT_GT(heat->Count(), 0u);
}

TEST_F(SpaceObservatoryTest, UtilizationDistributionGauges) {
  LfsInstance inst;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(inst.paths->WriteFile("/u" + std::to_string(i), TestBytes(50000, i)).ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->Tick().ok());  // Tick republishes the distribution.

  std::vector<double> utils;
  inst.fs->CollectSegmentUtilization(&utils);
  ASSERT_FALSE(utils.empty());

  const obs::Gauge* segments = obs::Registry().FindGauge("logfs.seg.util.segments");
  ASSERT_NE(segments, nullptr);
  EXPECT_EQ(static_cast<size_t>(segments->Value()), utils.size());

  double bucket_total = 0.0;
  for (size_t b = 0; b < obs::kUtilBuckets; ++b) {
    const obs::Gauge* bucket =
        obs::Registry().FindGauge("logfs.seg.util.bucket" + std::to_string(b));
    ASSERT_NE(bucket, nullptr) << "bucket " << b;
    EXPECT_GE(bucket->Value(), 0.0);
    bucket_total += bucket->Value();
  }
  EXPECT_DOUBLE_EQ(bucket_total, static_cast<double>(utils.size()));

  const obs::Gauge* mean = obs::Registry().FindGauge("logfs.seg.util.mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_GE(mean->Value(), 0.0);
  EXPECT_LE(mean->Value(), 1.0);
}

// --- SegmentUsageTable edge cases -------------------------------------------

TEST(SegUsageEdgeTest, AddLiveUnderflowClampsToZero) {
  obs::Registry().ResetAll();
  SegmentUsageTable table(8, 4096);
  table.AddLive(2, 1000);
  EXPECT_EQ(table.Get(2).live_bytes, 1000u);
  // A double-decrement (the same block death accounted twice) must clamp,
  // not wrap the unsigned estimate to ~4 GB.
  table.AddLive(2, -1600);
  EXPECT_EQ(table.Get(2).live_bytes, 0u);
  table.AddLive(2, -5);
  EXPECT_EQ(table.Get(2).live_bytes, 0u);
  if (obs::kMetricsEnabled) {
    const obs::Counter* clamps = obs::Registry().FindCounter("logfs.usage.underflow_clamps");
    ASSERT_NE(clamps, nullptr);
    EXPECT_EQ(clamps->Value(), 2u);
  }
  // Recovery after a clamp: the estimate keeps tracking new live data.
  table.AddLive(2, 300);
  EXPECT_EQ(table.Get(2).live_bytes, 300u);
  // The clamp is remembered (the cleaner will not trust a zero from this
  // segment) until the segment is allocated afresh.
  EXPECT_TRUE(table.Get(2).live_clamped);
  EXPECT_FALSE(table.Get(3).live_clamped);
  table.NoteAllocated(2, 1.0);
  EXPECT_FALSE(table.Get(2).live_clamped);
}

TEST(SegUsageEdgeTest, HeatEwmaSeedsThenFolds) {
  SegmentUsageTable table(4, 4096);
  table.NoteAllocated(1, 10.0);
  EXPECT_EQ(table.Get(1).heat_interval_ewma, 0.0);
  // First overwrite only establishes the reference time.
  table.RecordOverwrite(1, 12.0);
  EXPECT_EQ(table.Get(1).heat_interval_ewma, 0.0);
  // Second overwrite seeds the EWMA with the first observed interval.
  table.RecordOverwrite(1, 13.0);
  EXPECT_DOUBLE_EQ(table.Get(1).heat_interval_ewma, 1.0);
  // Then it folds: alpha * interval + (1 - alpha) * previous.
  table.RecordOverwrite(1, 17.0);
  EXPECT_DOUBLE_EQ(table.Get(1).heat_interval_ewma,
                   SegmentUsageTable::kHeatAlpha * 4.0 +
                       (1.0 - SegmentUsageTable::kHeatAlpha) * 1.0);
  // Reallocation (segment recycled by the log) restarts the estimate.
  table.NoteAllocated(1, 20.0);
  EXPECT_EQ(table.Get(1).heat_interval_ewma, 0.0);
  EXPECT_EQ(table.Get(1).last_overwrite_at, 0.0);
  EXPECT_EQ(table.Get(1).allocated_at, 20.0);
}

// The checkpoint/remount seam for usage state is EncodeBlock/DecodeBlock:
// durable fields (state, live bytes, write seq) round-trip — including
// kQuarantined — while the memory-only heat fields come back zeroed, because
// the 16-byte encoded entry layout never grew to carry them.
TEST(SegUsageEdgeTest, EncodeDecodeRoundTripsQuarantineZeroesHeat) {
  SegmentUsageTable table(16, 4096);
  table.SetLive(5, 4321);
  table.SetState(5, SegState::kQuarantined);
  table.SetWriteSeq(5, 99);
  table.NoteAllocated(5, 1.0);
  table.RecordOverwrite(5, 2.0);
  table.RecordOverwrite(5, 3.5);
  ASSERT_GT(table.Get(5).heat_interval_ewma, 0.0);

  std::vector<std::byte> block(4096);
  ASSERT_TRUE(table.EncodeBlock(0, block).ok());

  SegmentUsageTable remounted(16, 4096);
  ASSERT_TRUE(remounted.DecodeBlock(0, block).ok());
  const SegUsage& back = remounted.Get(5);
  EXPECT_EQ(back.state, SegState::kQuarantined);
  EXPECT_EQ(back.live_bytes, 4321u);
  EXPECT_EQ(back.last_write_seq, 99u);
  EXPECT_EQ(back.allocated_at, 0.0);
  EXPECT_EQ(back.last_overwrite_at, 0.0);
  EXPECT_EQ(back.heat_interval_ewma, 0.0);
}

}  // namespace
}  // namespace logfs
