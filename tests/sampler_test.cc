// Flight-recorder tests: sampler cadence and delta/ring semantics, quantile
// estimation, the TelemetryRing wire codec (round-trip, corruption
// rejection, fold-to-fit budgets), the black-box trailer codec, the
// compiled-out no-op contract, the write-cost clamp regression, the
// end-to-end on-disk black box of a live LFS, and the per-op latency
// breakdown of a live LFS: the op histograms and, under a trace context,
// the op span's disk and cleaner children.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/resilient_disk.h"
#include "src/lfs/lfs_blackbox.h"
#include "src/lfs/lfs_cleaner.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/sampler.h"
#include "src/obs/trace_context.h"
#include "src/obs/tracer.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Registry().ResetAll(); }
};

// --- sampler cadence and ring semantics ------------------------------------------

TEST_F(SamplerTest, CadenceFiresFirstCallThenPerInterval) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry registry;
  obs::TelemetrySampler sampler({.interval_seconds = 1.0, .capacity = 16}, &registry);
  EXPECT_TRUE(sampler.MaybeSample(0.0));   // First call always fires.
  EXPECT_FALSE(sampler.MaybeSample(0.5));  // Before the deadline.
  EXPECT_FALSE(sampler.MaybeSample(0.99));
  EXPECT_TRUE(sampler.MaybeSample(1.0));  // On the deadline.
  // A large jump fires once, not once per elapsed interval.
  EXPECT_TRUE(sampler.MaybeSample(100.0));
  EXPECT_FALSE(sampler.MaybeSample(100.5));
  EXPECT_EQ(sampler.size(), 3u);
  EXPECT_EQ(sampler.total_samples(), 3u);
}

TEST_F(SamplerTest, DeltasRatesAndAbsoluteValues) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("t.ops");
  obs::TelemetrySampler sampler({.interval_seconds = 1.0, .capacity = 16}, &registry);

  c.Increment(10);
  sampler.SampleNow(1.0);
  c.Increment(30);
  sampler.SampleNow(2.0);
  c.Increment(5);
  sampler.SampleNow(4.0);

  const obs::TelemetryRing ring = sampler.Ring();
  ASSERT_EQ(ring.counter_names.size(), 1u);
  EXPECT_EQ(ring.counter_names[0], "t.ops");
  ASSERT_EQ(ring.samples.size(), 3u);
  EXPECT_EQ(ring.samples[0].counter_deltas[0], 10u);
  EXPECT_EQ(ring.samples[1].counter_deltas[0], 30u);
  EXPECT_EQ(ring.samples[2].counter_deltas[0], 5u);
  EXPECT_EQ(ring.CounterAt(0, 0), 10u);
  EXPECT_EQ(ring.CounterAt(1, 0), 40u);
  EXPECT_EQ(ring.CounterAt(2, 0), 45u);
  // Rates: delta over the interval to the previous retained sample.
  EXPECT_DOUBLE_EQ(ring.RateAt(1, 0), 30.0);       // 30 ops in 1 s.
  EXPECT_DOUBLE_EQ(ring.RateAt(2, 0), 2.5);        // 5 ops in 2 s.
}

TEST_F(SamplerTest, EvictionFoldsOldestIntoBaseKeepingAbsolutesExact) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("t.ops");
  obs::TelemetrySampler sampler({.interval_seconds = 1.0, .capacity = 4}, &registry);
  for (int i = 1; i <= 10; ++i) {
    c.Increment(static_cast<uint64_t>(i));  // Absolute value = i*(i+1)/2.
    sampler.SampleNow(static_cast<double>(i));
  }
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.total_samples(), 10u);
  const obs::TelemetryRing ring = sampler.Ring();
  ASSERT_EQ(ring.samples.size(), 4u);
  // Samples 1..6 were folded into the base; absolutes must still be exact.
  EXPECT_EQ(ring.base_counters[0], 21u);  // 1+2+...+6
  EXPECT_DOUBLE_EQ(ring.base_time, 6.0);  // Time of the last evicted sample.
  EXPECT_EQ(ring.CounterAt(3, 0), 55u);   // 1+2+...+10
  EXPECT_DOUBLE_EQ(ring.RateAt(0, 0), 7.0);  // First retained: vs base_time.
}

TEST_F(SamplerTest, CounterResetBetweenPhasesRecordsZeroDeltaNotUnderflow) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("t.ops");
  obs::TelemetrySampler sampler({.interval_seconds = 1.0, .capacity = 8}, &registry);
  c.Increment(100);
  sampler.SampleNow(1.0);
  registry.ResetAll();  // A bench phase boundary.
  c.Increment(3);
  sampler.SampleNow(2.0);
  const obs::TelemetryRing ring = sampler.Ring();
  ASSERT_EQ(ring.samples.size(), 2u);
  EXPECT_EQ(ring.samples[1].counter_deltas[0], 0u);  // Not ~2^64.
}

// --- quantile estimation ---------------------------------------------------------

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  obs::MetricsSnapshot::HistogramValue hv;
  hv.bounds = {10.0, 20.0, 40.0};
  hv.buckets = {10, 10, 0, 0};  // 20 observations, none in overflow.
  hv.count = 20;
  // Rank 10 (p50) sits exactly at the top of bucket 0.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 0.50), 10.0);
  // p75 -> rank 15, halfway through bucket 1 (10, 20].
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 0.75), 15.0);
  // p100 -> top of the last occupied bucket.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 1.0), 20.0);
  // p25 -> rank 5, halfway through bucket 0 [0, 10].
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 0.25), 5.0);
}

TEST(HistogramQuantileTest, OverflowBucketClampsToLastFiniteBound) {
  obs::MetricsSnapshot::HistogramValue hv;
  hv.bounds = {1.0, 2.0};
  hv.buckets = {1, 1, 8};  // Most mass above every bound.
  hv.count = 10;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 0.99), 2.0);
}

TEST(HistogramQuantileTest, EmptyAndClampedInputs) {
  obs::MetricsSnapshot::HistogramValue hv;
  hv.bounds = {1.0};
  hv.buckets = {0, 0};
  hv.count = 0;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 0.5), 0.0);
  hv.buckets = {4, 0};
  hv.count = 4;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, -1.0), obs::HistogramQuantile(hv, 0.0));
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(hv, 2.0), obs::HistogramQuantile(hv, 1.0));
}

TEST_F(SamplerTest, SamplesCarryHistogramQuantiles) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry registry;
  const double bounds[] = {1.0, 10.0};
  obs::Histogram& h = registry.GetHistogram("t.lat", bounds);
  for (int i = 0; i < 10; ++i) {
    h.Observe(0.5);
  }
  obs::TelemetrySampler sampler({}, &registry);
  sampler.SampleNow(1.0);
  const obs::TelemetryRing ring = sampler.Ring();
  ASSERT_EQ(ring.hist_names.size(), 1u);
  ASSERT_EQ(ring.samples.size(), 1u);
  const obs::TelemetrySample::HistState& hs = ring.samples[0].hists[0];
  EXPECT_EQ(hs.count, 10u);
  EXPECT_DOUBLE_EQ(hs.sum, 5.0);
  EXPECT_DOUBLE_EQ(hs.p50, 0.5);  // All mass in [0, 1]: rank 5 of 10 -> 0.5.
  EXPECT_GT(hs.p99, hs.p50 - 1e-12);
}

// --- wire codec ------------------------------------------------------------------

// A hand-built ring exercises the codec without the registry, so these run
// in both metrics configurations.
obs::TelemetryRing MakeRing() {
  obs::TelemetryRing ring;
  ring.seq = 7;
  ring.base_time = 0.5;
  ring.counter_names = {"a.ops", "b.bytes"};
  ring.gauge_names = {"g.util"};
  ring.hist_names = {"h.lat"};
  ring.base_counters = {100, 5000};
  for (int i = 0; i < 3; ++i) {
    obs::TelemetrySample s;
    s.t = 1.0 + i;
    s.counter_deltas = {static_cast<uint64_t>(10 + i), static_cast<uint64_t>(1000 * i)};
    s.gauges = {0.25 * i};
    s.hists = {{static_cast<uint64_t>(5 * i), 2.5 * i, 0.1, 0.2, 0.3}};
    ring.samples.push_back(std::move(s));
  }
  return ring;
}

TEST(TelemetryRingCodecTest, EncodeDecodeRoundTrip) {
  const obs::TelemetryRing ring = MakeRing();
  const std::vector<std::byte> blob = ring.Encode(64 * 1024);
  ASSERT_FALSE(blob.empty());
  auto decoded = obs::TelemetryRing::Decode(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, ring.seq);
  EXPECT_DOUBLE_EQ(decoded->base_time, ring.base_time);
  EXPECT_EQ(decoded->counter_names, ring.counter_names);
  EXPECT_EQ(decoded->gauge_names, ring.gauge_names);
  EXPECT_EQ(decoded->hist_names, ring.hist_names);
  EXPECT_EQ(decoded->base_counters, ring.base_counters);
  ASSERT_EQ(decoded->samples.size(), ring.samples.size());
  for (size_t i = 0; i < ring.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(decoded->samples[i].t, ring.samples[i].t);
    EXPECT_EQ(decoded->samples[i].counter_deltas, ring.samples[i].counter_deltas);
    ASSERT_EQ(decoded->samples[i].hists.size(), 1u);
    EXPECT_EQ(decoded->samples[i].hists[0].count, ring.samples[i].hists[0].count);
    EXPECT_DOUBLE_EQ(decoded->samples[i].hists[0].p99, ring.samples[i].hists[0].p99);
  }
  // Absolute reconstruction across the boundary.
  EXPECT_EQ(decoded->CounterAt(2, 0), 100u + 10 + 11 + 12);
}

TEST(TelemetryRingCodecTest, DecodeRejectsCorruption) {
  const obs::TelemetryRing ring = MakeRing();
  std::vector<std::byte> blob = ring.Encode(64 * 1024);
  ASSERT_FALSE(blob.empty());

  // Any flipped byte must trip the CRC (or the magic check).
  for (size_t victim : {size_t{0}, size_t{16}, blob.size() - 1}) {
    std::vector<std::byte> bad = blob;
    bad[victim] ^= std::byte{0x01};
    EXPECT_FALSE(obs::TelemetryRing::Decode(bad).ok()) << "victim byte " << victim;
  }
  // Truncation must fail cleanly, not read out of bounds.
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, blob.size() - 1}) {
    EXPECT_FALSE(
        obs::TelemetryRing::Decode(std::span<const std::byte>(blob).subspan(0, len)).ok())
        << "truncated to " << len;
  }
}

TEST(TelemetryRingCodecTest, EncodeFoldsOldestSamplesToFitBudget) {
  const obs::TelemetryRing ring = MakeRing();
  const std::vector<std::byte> full = ring.Encode(64 * 1024);
  ASSERT_FALSE(full.empty());

  // A budget below the full size forces folding; the result must still be a
  // valid ring whose final absolute values are unchanged.
  const std::vector<std::byte> squeezed = ring.Encode(full.size() - 1);
  ASSERT_FALSE(squeezed.empty());
  ASSERT_LT(squeezed.size(), full.size());
  auto decoded = obs::TelemetryRing::Decode(squeezed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_LT(decoded->samples.size(), ring.samples.size());
  const size_t last = decoded->samples.size() - 1;
  EXPECT_EQ(decoded->CounterAt(last, 0), ring.CounterAt(ring.samples.size() - 1, 0));
  EXPECT_EQ(decoded->CounterAt(last, 1), ring.CounterAt(ring.samples.size() - 1, 1));

  // A budget too small for even the name tables degrades to a bare header...
  const std::vector<std::byte> bare = ring.Encode(48);
  ASSERT_FALSE(bare.empty());
  auto bare_ring = obs::TelemetryRing::Decode(bare);
  ASSERT_TRUE(bare_ring.ok()) << bare_ring.status().ToString();
  EXPECT_EQ(bare_ring->seq, ring.seq);
  EXPECT_TRUE(bare_ring->samples.empty());
  // ...and a budget below even that returns empty (caller skips embedding).
  EXPECT_TRUE(ring.Encode(8).empty());
}

TEST_F(SamplerTest, SerializeRingBumpsSequence) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::MetricsRegistry registry;
  registry.GetCounter("t.ops").Increment();
  obs::TelemetrySampler sampler({}, &registry);
  sampler.SampleNow(1.0);
  const std::vector<std::byte> first = sampler.SerializeRing(64 * 1024);
  const std::vector<std::byte> second = sampler.SerializeRing(64 * 1024);
  auto a = obs::TelemetryRing::Decode(first);
  auto b = obs::TelemetryRing::Decode(second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->seq, a->seq + 1);  // Freshest ring wins at recovery.
}

// --- compiled-out contract -------------------------------------------------------

TEST(SamplerOffTest, CompiledOutSamplerIsANoOp) {
  if (obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled in";
  obs::TelemetrySampler sampler({.interval_seconds = 0.001, .capacity = 4});
  EXPECT_FALSE(sampler.MaybeSample(0.0));
  sampler.SampleNow(1.0);
  EXPECT_EQ(sampler.size(), 0u);
  EXPECT_EQ(sampler.total_samples(), 0u);
  EXPECT_TRUE(sampler.SerializeRing(64 * 1024).empty());  // Nothing embedded.
}

// --- black-box trailer codec -----------------------------------------------------

TEST(BlackBoxTest, CapacityAccountsForPayloadAndFooter) {
  EXPECT_EQ(BlackBoxCapacity(4096, 100), 4096u - 100 - kBlackBoxFooterBytes);
  EXPECT_EQ(BlackBoxCapacity(100, 100), 0u);  // No room for even the footer.
  EXPECT_EQ(BlackBoxCapacity(100, 90), 0u);
  EXPECT_EQ(BlackBoxCapacity(116, 100), 0u);  // Footer fits, blob space is 0.
}

TEST(BlackBoxTest, EmbedExtractRoundTrip) {
  std::vector<std::byte> region(4096, std::byte{0xAA});  // Dirty slack is fine.
  const obs::TelemetryRing ring = MakeRing();
  const std::vector<std::byte> blob = ring.Encode(BlackBoxCapacity(region.size(), 200));
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(EmbedBlackBox(region, 200, blob).ok());

  auto extracted = ExtractBlackBox(region);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  ASSERT_EQ(extracted->size(), blob.size());
  EXPECT_EQ(std::memcmp(extracted->data(), blob.data(), blob.size()), 0);
  // And the blob itself still decodes.
  EXPECT_TRUE(obs::TelemetryRing::Decode(*extracted).ok());
  // The checkpoint payload prefix was not touched.
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(region[i], std::byte{0xAA});
  }
}

TEST(BlackBoxTest, ExtractRejectsDamage) {
  std::vector<std::byte> region(4096, std::byte{0});
  const std::vector<std::byte> blob = MakeRing().Encode(1024);
  ASSERT_TRUE(EmbedBlackBox(region, 0, blob).ok());

  {
    std::vector<std::byte> bad = region;
    bad[bad.size() - 1] ^= std::byte{0x01};  // Magic.
    EXPECT_FALSE(ExtractBlackBox(bad).ok());
  }
  {
    std::vector<std::byte> bad = region;
    bad[bad.size() - kBlackBoxFooterBytes - 1] ^= std::byte{0x01};  // Blob body.
    EXPECT_FALSE(ExtractBlackBox(bad).ok());
  }
  {
    std::vector<std::byte> no_trailer(4096, std::byte{0});
    EXPECT_FALSE(ExtractBlackBox(no_trailer).ok());
  }
}

TEST(BlackBoxTest, EmbedRejectsBlobCollidingWithPayload) {
  std::vector<std::byte> region(256, std::byte{0});
  std::vector<std::byte> blob(300);  // Bigger than the region.
  EXPECT_FALSE(EmbedBlackBox(region, 0, blob).ok());
  std::vector<std::byte> blob2(region.size() - kBlackBoxFooterBytes - 10 + 1);
  EXPECT_FALSE(EmbedBlackBox(region, 10, blob2).ok());  // One byte too many.
  std::vector<std::byte> blob3(region.size() - kBlackBoxFooterBytes - 10);
  EXPECT_TRUE(EmbedBlackBox(region, 10, blob3).ok());  // Exact fit.
}

// --- write-cost clamp regression -------------------------------------------------

TEST(WriteCostClampTest, FiniteAtFullUtilizationIdentityBelowCap) {
  // The raw formula diverges at u=1; the clamp must keep the gauge (and any
  // JSON it lands in) finite.
  EXPECT_TRUE(std::isfinite(PaperWriteCost(1.0)));
  EXPECT_TRUE(std::isfinite(PaperWriteCost(1.5)));  // Defensive: u > 1.
  EXPECT_GT(PaperWriteCost(1.0), 1e6);              // Still "enormous".
  // Below the cap the clamp is exact identity with the paper formula.
  for (double u : {0.1, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(PaperWriteCost(u), 1.0 + u / (1.0 - u) + 1.0 / (1.0 - u));
  }
  EXPECT_DOUBLE_EQ(PaperWriteCost(0.0), 2.0);
  EXPECT_DOUBLE_EQ(PaperWriteCost(-1.0), 2.0);
  EXPECT_DOUBLE_EQ(PaperWriteCost(std::nan("")), 2.0);
}

TEST_F(SamplerTest, ExportersEmitQuantilesAndFiniteJson) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const double bounds[] = {1.0, 10.0};
  obs::Histogram& h = obs::Registry().GetHistogram("t.export.lat", bounds);
  for (int i = 0; i < 100; ++i) {
    h.Observe(0.5);
  }
  const std::string json = obs::Registry().ToJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string text = obs::Registry().ToText();
  EXPECT_NE(text.find("t.export.lat.p50"), std::string::npos);
  EXPECT_NE(text.find("t.export.lat.p99"), std::string::npos);

  // Regression: a non-finite gauge must export as JSON null, never inf/nan.
  obs::Registry().GetGauge("t.export.bad").Set(INFINITY);
  const std::string with_inf = obs::Registry().ToJson();
  EXPECT_EQ(with_inf.find("inf"), std::string::npos);
  EXPECT_NE(with_inf.find("\"t.export.bad\": null"), std::string::npos);
}

// --- end-to-end: live LFS ---------------------------------------------------------

TEST_F(SamplerTest, BlackBoxPersistsAcrossCheckpointsAndRecoversFromRawImage) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/a", TestBytes(8192, 1)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());

  auto first = RecoverBlackBoxFromImage(inst.disk->RawImage());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GE(first->region, 0);
  EXPECT_LE(first->region, 1);

  ASSERT_TRUE(inst.paths->WriteFile("/b", TestBytes(8192, 2)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  auto second = RecoverBlackBoxFromImage(inst.disk->RawImage());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->ring.seq, first->ring.seq);  // Freshest write wins.
  EXPECT_FALSE(second->ring.samples.empty());    // Checkpoint sampled first.

  // The device-based recovery agrees with the image-based one.
  auto via_device = RecoverBlackBox(inst.disk.get());
  ASSERT_TRUE(via_device.ok());
  EXPECT_EQ(via_device->ring.seq, second->ring.seq);
}

// The recorder rides through a phased workload sampled on a fine cadence:
// create burst, overwrite churn, delete + clean, read-back. After a final
// checkpoint the ring decodes from the raw volume image (the path
// `lfs_inspect blackbox` uses), and its newest sample is from that last
// checkpoint. With metrics compiled out no ring is embedded at all.
TEST_F(SamplerTest, BlackBoxRoundTripsFromRawImageAfterPhasedWorkload) {
  LfsFileSystem::Options options;
  options.telemetry_interval_seconds = 0.01;
  options.telemetry_capacity = 128;
  LfsInstance inst(131072, LfsInstance::DefaultParams(), options);
  const int files = 60;
  ASSERT_TRUE(inst.paths->MkdirAll("/bench").ok());
  for (int i = 0; i < files; ++i) {
    ASSERT_TRUE(inst.paths->WriteFile("/bench/f" + std::to_string(i), TestBytes(8192, i)).ok());
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 0; i < files; i += 2) {
    ASSERT_TRUE(
        inst.paths->WriteFile("/bench/f" + std::to_string(i), TestBytes(8192, files + i)).ok());
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 1; i < files; i += 2) {
    ASSERT_TRUE(inst.paths->Unlink("/bench/f" + std::to_string(i)).ok());
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->CleanNow(8).ok());
  for (int i = 0; i < files; i += 2) {
    auto back = inst.paths->ReadFile("/bench/f" + std::to_string(i));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(8192, files + i));
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  const double readback_done = inst.clock->Now();
  ASSERT_TRUE(inst.fs->Sync().ok());

  auto recovered = RecoverBlackBoxFromImage(inst.disk->RawImage());
  if (!obs::kMetricsEnabled) {
    EXPECT_FALSE(recovered.ok()) << "a ring was embedded with metrics compiled out";
    return;
  }
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const obs::TelemetryRing& ring = recovered->ring;
  ASSERT_GT(ring.samples.size(), 4u);
  EXPECT_GE(ring.samples.back().t, readback_done);
}

// --- per-op latency breakdown --------------------------------------------------

// Runs `body` as one traced request rooted at a "test" span and returns the
// trace trees the ring then holds (exactly one when nothing leaked).
template <typename Body>
std::vector<obs::TraceTree> TraceOneRequest(const SimClock* clock, Body&& body) {
  obs::Tracer().Clear();
  {
    obs::TraceRoot root(clock, "test", "request");
    body();
  }
  return obs::AssembleTraceTrees(obs::Tracer().Events());
}

// The single child of the request root: the LFS op's span.
const obs::TraceNode& OpNode(const obs::TraceTree& tree) {
  const obs::TraceNode& root = tree.nodes[tree.root];
  EXPECT_EQ(root.children.size(), 1u);
  return tree.nodes[root.children.at(0)];
}

double ClassSeconds(const obs::Breakdown& b, obs::PathClass c) {
  return b.seconds[static_cast<size_t>(c)];
}

TEST_F(SamplerTest, TracedFsyncHangsItsDeviceTimeUnderTheOpSpan) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::SetTracingEnabled(true);
  LfsInstance inst;
  auto ino = inst.fs->Create(kRootIno, "f", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Write(*ino, 0, TestBytes(64 * 1024, 1)).ok());

  const std::vector<obs::TraceTree> trees =
      TraceOneRequest(inst.clock.get(), [&] { ASSERT_TRUE(inst.fs->Fsync(*ino).ok()); });
  ASSERT_EQ(trees.size(), 1u);
  const obs::TraceTree& tree = trees[0];
  const obs::TraceNode& op = OpNode(tree);
  EXPECT_EQ(op.event.category, "op");
  EXPECT_EQ(op.event.name, "fsync");
  ASSERT_FALSE(op.children.empty());
  double device_seconds = 0.0;
  for (size_t c : op.children) {
    const obs::TraceEvent& ev = tree.nodes[c].event;
    EXPECT_TRUE(ev.category == "segwriter" || ev.category == "disk") << ev.category;
    device_seconds += ev.duration_seconds;
  }

  const obs::Breakdown b = obs::AnalyzeCriticalPath(tree);
  EXPECT_GT(ClassSeconds(b, obs::PathClass::kDisk), 0.0);
  EXPECT_NEAR(ClassSeconds(b, obs::PathClass::kDisk), device_seconds, 1e-9);
  EXPECT_NEAR(b.Sum(), b.total_seconds, 1e-9);
}

TEST_F(SamplerTest, TracedWriteCountsForegroundCleaningAsCleanerTime) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::SetTracingEnabled(true);
  LfsFileSystem::Options options;
  options.auto_clean = false;  // Only a write short of clean space cleans.
  LfsInstance inst(32 * 2048 + 4096, LfsInstance::DefaultParams(), options);
  std::vector<InodeNum> files;
  for (int f = 0; f < 8; ++f) {
    auto ino = inst.fs->Create(kRootIno, "churn" + std::to_string(f), FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    files.push_back(*ino);
  }
  // Overwrite until one write has to clean to make room for itself.
  std::vector<obs::TraceTree> trees;
  uint64_t checkpoints_before = 0;
  bool cleaned = false;
  for (int round = 0; round < 64 && !cleaned; ++round) {
    for (size_t f = 0; f < files.size() && !cleaned; ++f) {
      const uint64_t passes_before = inst.fs->cleaner_stats().passes;
      checkpoints_before = inst.fs->checkpoint_count();
      trees = TraceOneRequest(inst.clock.get(), [&] {
        ASSERT_TRUE(
            inst.fs->Write(files[f], 0, TestBytes(256 * 1024, round * 10 + f)).ok());
      });
      cleaned = inst.fs->cleaner_stats().passes > passes_before;
      ASSERT_TRUE(inst.fs->Fsync(files[f]).ok());  // Overwrites reach the log.
    }
  }
  ASSERT_TRUE(cleaned) << "no write ever cleaned";
  // The pass read victims, rewrote their live blocks and checkpointed.
  EXPECT_GT(inst.fs->checkpoint_count(), checkpoints_before);

  ASSERT_EQ(trees.size(), 1u);
  const obs::TraceTree& tree = trees[0];
  const obs::TraceNode& op = OpNode(tree);
  EXPECT_EQ(op.event.name, "write");
  double pass_seconds = 0.0;
  std::vector<std::pair<double, double>> pass_intervals;
  for (size_t c : op.children) {
    const obs::TraceNode& child = tree.nodes[c];
    if (child.event.category != "cleaner") continue;
    // None of the pass's reads, segment writes or its checkpoint is a span
    // of its own in the tree: all of it is the pass's (cleaner) time.
    EXPECT_TRUE(child.children.empty());
    pass_seconds += child.event.duration_seconds;
    pass_intervals.emplace_back(child.event.start_seconds,
                                child.event.start_seconds + child.event.duration_seconds);
  }
  ASSERT_GT(pass_seconds, 0.0);
  for (const obs::TraceNode& node : tree.nodes) {
    if (node.event.category != "disk" && node.event.category != "segwriter") continue;
    for (const auto& [start, end] : pass_intervals) {
      EXPECT_TRUE(node.event.start_seconds >= end ||
                  node.event.start_seconds + node.event.duration_seconds <= start)
          << "device span inside a cleaning pass";
    }
  }

  const obs::Breakdown b = obs::AnalyzeCriticalPath(tree);
  EXPECT_NEAR(ClassSeconds(b, obs::PathClass::kCleaner), pass_seconds, 1e-9);
  EXPECT_NEAR(b.Sum(), b.total_seconds, 1e-9);
}

TEST_F(SamplerTest, TracedReadCountsRetryBackoffAsDisk) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::SetTracingEnabled(true);
  SimClock clock;
  CpuModel cpu(&clock, 10.0);
  MemoryDisk memory(131072, &clock);
  FaultInjectingDisk faults(&memory);
  ResilientDisk disk(&faults, &clock);
  ASSERT_TRUE(LfsFileSystem::Format(&disk, LfsInstance::DefaultParams()).ok());
  auto mounted = LfsFileSystem::Mount(&disk, &clock, &cpu);
  ASSERT_TRUE(mounted.ok());
  LfsFileSystem& fs = **mounted;
  auto ino = fs.Create(kRootIno, "f", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs.Write(*ino, 0, TestBytes(4096, 3)).ok());
  ASSERT_TRUE(fs.Sync().ok());
  ASSERT_TRUE(fs.DropCaches().ok());

  // The read's first device request fails once and is retried after one
  // backoff.
  faults.FailNthRead(faults.read_requests_seen());
  const obs::Counter& backoff_us = obs::Registry().GetCounter("logfs.resilient.backoff_us");
  const uint64_t backoff_before = backoff_us.Value();
  std::vector<std::byte> out(4096);
  const std::vector<obs::TraceTree> trees = TraceOneRequest(&clock, [&] {
    auto n = fs.Read(*ino, 0, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, out.size());
  });
  const double backoff = static_cast<double>(backoff_us.Value() - backoff_before) / 1e6;
  ASSERT_GT(backoff, 0.0);
  EXPECT_EQ(out, TestBytes(4096, 3));

  ASSERT_EQ(trees.size(), 1u);
  const obs::TraceTree& tree = trees[0];
  const obs::TraceNode& op = OpNode(tree);
  EXPECT_EQ(op.event.name, "read");
  double longest_read = 0.0;
  for (size_t c : op.children) {
    const obs::TraceEvent& ev = tree.nodes[c].event;
    if (ev.category == "disk") longest_read = std::max(longest_read, ev.duration_seconds);
  }
  EXPECT_GE(longest_read, backoff);  // The retried request's span holds its backoff.
  const obs::Breakdown b = obs::AnalyzeCriticalPath(tree);
  EXPECT_GE(ClassSeconds(b, obs::PathClass::kDisk), backoff);
  EXPECT_NEAR(b.Sum(), b.total_seconds, 1e-9);
}

TEST_F(SamplerTest, UntracedOpsObserveLatencyButRecordNoSpans) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::SetTracingEnabled(true);
  LfsInstance inst;
  obs::Registry().ResetAll();  // Drop the ops Format ran.
  obs::Tracer().Clear();
  std::vector<InodeNum> files;
  for (int i = 0; i < 3; ++i) {
    auto ino = inst.fs->Create(kRootIno, "f" + std::to_string(i), FileType::kRegular);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(inst.fs->Write(*ino, 0, TestBytes(8192, i)).ok());
    files.push_back(*ino);
  }
  ASSERT_TRUE(inst.fs->Fsync(files[0]).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  std::vector<std::byte> out(8192);
  ASSERT_TRUE(inst.fs->Read(files[1], 0, out).ok());
  ASSERT_TRUE(inst.fs->Read(files[2], 0, out).ok());

  // Device work happened and tracing was on, yet no op left a span: only
  // the untraced segment-writer flushes.
  bool saw_flush = false;
  for (const obs::TraceEvent& ev : obs::Tracer().Events()) {
    EXPECT_NE(ev.category, "op");
    EXPECT_NE(ev.category, "disk");
    EXPECT_EQ(ev.trace_id, 0u);
    saw_flush = saw_flush || ev.category == "segwriter";
  }
  EXPECT_TRUE(saw_flush);

  // One latency sample per call, in one histogram per op.
  const std::pair<const char*, uint64_t> expected[] = {
      {"create", 3}, {"write", 3}, {"fsync", 1}, {"sync", 1}, {"read", 2}};
  for (const auto& [op, calls] : expected) {
    const obs::Histogram* h =
        obs::Registry().FindHistogram(std::string("logfs.op.") + op + ".seconds");
    ASSERT_NE(h, nullptr) << op;
    EXPECT_EQ(h->Count(), calls) << op;
  }
  for (const auto& [name, value] : obs::Registry().Snapshot().counters) {
    EXPECT_NE(name.rfind("logfs.op.", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace logfs
