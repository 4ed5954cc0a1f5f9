// Observability-layer tests: registry semantics (bucketing, reset,
// concurrent increments), tracer ring behaviour, decorator stats views,
// byte-identical snapshots across identical seeded runs, and the cleaner's
// derived write cost against the paper formula hand-computed from the same
// raw counters.
#include <gtest/gtest.h>

#include <thread>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/disk/striped_disk.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"
#include "src/obs/tracer.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

// Every test starts from zeroed instruments and an empty ring: the registry
// and tracer are process-wide, and earlier tests leave values behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry().ResetAll();
    obs::Tracer().Clear();
  }
  void TearDown() override { obs::SetTracingEnabled(true); }
};

TEST_F(ObsTest, CounterAndGaugeBasics) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Counter& c = obs::Registry().GetCounter("logfs.test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  // Same name, same instrument.
  EXPECT_EQ(&obs::Registry().GetCounter("logfs.test.counter"), &c);

  obs::Gauge& g = obs::Registry().GetGauge("logfs.test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
}

TEST_F(ObsTest, HistogramBucketing) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const double bounds[] = {1.0, 10.0, 100.0};
  obs::Histogram& h = obs::Registry().GetHistogram("logfs.test.hist", bounds);
  h.Observe(0.5);    // bucket 0: <= 1
  h.Observe(1.0);    // bucket 0: exactly on the bound
  h.Observe(5.0);    // bucket 1: (1, 10]
  h.Observe(10.0);   // bucket 1
  h.Observe(50.0);   // bucket 2: (10, 100]
  h.Observe(1000.0); // bucket 3: overflow
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 5.0 + 10.0 + 50.0 + 1000.0);

  // Re-registration with different bounds returns the existing histogram.
  const double other[] = {7.0};
  EXPECT_EQ(&obs::Registry().GetHistogram("logfs.test.hist", other), &h);
  EXPECT_EQ(h.bounds().size(), 3u);
}

TEST_F(ObsTest, ResetAllZeroesButKeepsRegistration) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Counter& c = obs::Registry().GetCounter("logfs.test.reset_me");
  c.Increment(7);
  const double bounds[] = {1.0};
  obs::Histogram& h = obs::Registry().GetHistogram("logfs.test.reset_hist", bounds);
  h.Observe(0.5);
  obs::Registry().ResetAll();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  // Still the same registered instruments.
  EXPECT_EQ(&obs::Registry().GetCounter("logfs.test.reset_me"), &c);
  EXPECT_NE(obs::Registry().FindCounter("logfs.test.reset_me"), nullptr);
}

TEST_F(ObsTest, ConcurrentIncrementsAreLossFree) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Counter& c = obs::Registry().GetCounter("logfs.test.concurrent");
  const double bounds[] = {0.5};
  obs::Histogram& h = obs::Registry().GetHistogram("logfs.test.concurrent_hist", bounds);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.BucketCount(1), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.Sum(), static_cast<double>(kThreads) * kPerThread);
}

TEST_F(ObsTest, TracerRingDropsOldestAndCounts) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::StructuredTracer& tracer = obs::Tracer();
  const size_t old_capacity = tracer.capacity();
  tracer.SetCapacity(4);
  for (int i = 0; i < 10; ++i) {
    tracer.RecordInstant("test", "event" + std::to_string(i), static_cast<double>(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The survivors are the newest four, in order.
  std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "event6");
  EXPECT_EQ(events.back().name, "event9");
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.SetCapacity(old_capacity);
}

TEST_F(ObsTest, TracerExportFormats) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Tracer().RecordSpan("cat", "work", 1.0, 1.5, {{"k", "v"}});
  obs::Tracer().RecordInstant("cat", "ping", 2.0);
  const std::string json = obs::Tracer().ToJson();
  EXPECT_NE(json.find("\"kind\": \"span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"work\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": \"v\""), std::string::npos);
  const std::string chrome = obs::Tracer().ToChromeTrace();
  // Spans are complete events at sim-time microseconds.
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ts\": 1000000.0"), std::string::npos);
  EXPECT_NE(chrome.find("\"dur\": 500000.0"), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonIsSortedAndStable) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Registry().GetCounter("logfs.test.zz").Increment(2);
  obs::Registry().GetCounter("logfs.test.aa").Increment(1);
  const std::string json = obs::Registry().ToJson();
  EXPECT_LT(json.find("logfs.test.aa"), json.find("logfs.test.zz"));
  EXPECT_EQ(json, obs::Registry().ToJson());
}

// --- Decorator stats views (satellite) -----------------------------------------

TEST(InnerStatsTest, FaultDiskForwardsInnerStats) {
  MemoryDisk inner(1024, nullptr);
  FaultInjectingDisk disk(&inner);
  std::vector<std::byte> sector(kSectorSize);
  ASSERT_TRUE(disk.WriteSectors(0, sector).ok());
  ASSERT_TRUE(disk.ReadSectors(0, sector).ok());
  // No stats of its own: stats() is the inner device's object.
  EXPECT_EQ(&disk.stats(), &inner.stats());
  EXPECT_EQ(disk.stats().write_ops, 1u);
  EXPECT_EQ(disk.stats().read_ops, 1u);
}

TEST(InnerStatsTest, StripedDiskSumsMemberStats) {
  SimClock clock;
  // 4 members, striped at 8 sectors: a 64-sector write touches every member
  // twice but is ONE logical array request.
  StripedDisk disk(4, 256, 8, &clock);
  std::vector<std::byte> data(64 * kSectorSize);
  ASSERT_TRUE(disk.WriteSectors(0, data).ok());

  EXPECT_EQ(disk.stats().write_ops, 1u);  // Array-level view.
  uint64_t member_ops = 0;
  uint64_t member_sectors = 0;
  for (uint32_t m = 0; m < disk.member_count(); ++m) {
    member_ops += disk.member(m).stats().write_ops;
    member_sectors += disk.member(m).stats().sectors_written;
  }
  EXPECT_GT(member_ops, disk.stats().write_ops);  // The array view counts requests.
  // No sector lost or double-counted between the two views.
  EXPECT_EQ(member_sectors, disk.stats().sectors_written);

  disk.ResetStats();
  EXPECT_EQ(disk.stats().write_ops, 0u);
  for (uint32_t m = 0; m < disk.member_count(); ++m) {
    EXPECT_EQ(disk.member(m).stats().write_ops, 0u);
  }
}

// --- Determinism (satellite) ----------------------------------------------------

// The workload every determinism assertion runs: seeded small files, a
// partial delete, a cleaning pass, a final sync.
void RunSeededWorkload(uint64_t seed) {
  LfsInstance inst;
  PathFs& paths = *inst.paths;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(paths.WriteFile("/f" + std::to_string(i),
                                TestBytes(2048, seed + static_cast<uint64_t>(i)))
                    .ok());
    if (i % 64 == 63) {
      ASSERT_TRUE(inst.fs->Sync().ok());
    }
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 0; i < 300; i += 2) {
    ASSERT_TRUE(paths.Unlink("/f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->CleanNow(8).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
}

TEST_F(ObsTest, IdenticalSeedRunsYieldByteIdenticalSnapshots) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  RunSeededWorkload(7);
  const std::string metrics_run1 = obs::Registry().ToJson();
  const std::string trace_run1 = obs::Tracer().ToJson();

  obs::Registry().ResetAll();
  obs::Tracer().Clear();
  RunSeededWorkload(7);
  const std::string metrics_run2 = obs::Registry().ToJson();
  const std::string trace_run2 = obs::Tracer().ToJson();

  EXPECT_EQ(metrics_run1, metrics_run2);
  EXPECT_EQ(trace_run1, trace_run2);
  // And the snapshot is not trivially empty.
  EXPECT_NE(metrics_run1.find("logfs.segwriter.partials_flushed"), std::string::npos);
  EXPECT_NE(metrics_run1.find("logfs.cleaner.passes"), std::string::npos);
  EXPECT_NE(trace_run1.find("\"cleaner\""), std::string::npos);
}

// --- Write cost vs the paper formula (acceptance criterion) ---------------------

TEST_F(ObsTest, CleanerWriteCostMatchesHandComputedPaperFormula) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LfsInstance inst;
  // Fragment: 1 KB files, delete two thirds, clean.
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(
        inst.paths->WriteFile("/frag" + std::to_string(i), TestBytes(1024, i)).ok());
    if (i % 64 == 63) {
      ASSERT_TRUE(inst.fs->Sync().ok());
    }
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  for (int i = 0; i < 1200; ++i) {
    if (i % 3 != 0) {
      ASSERT_TRUE(inst.paths->Unlink("/frag" + std::to_string(i)).ok());
    }
  }
  ASSERT_TRUE(inst.fs->Sync().ok());
  auto cleaned = inst.fs->CleanNow(16);
  ASSERT_TRUE(cleaned.ok());
  ASSERT_GT(*cleaned, 0u);

  const obs::Counter* examined =
      obs::Registry().FindCounter("logfs.cleaner.blocks_examined");
  const obs::Counter* copied =
      obs::Registry().FindCounter("logfs.cleaner.live_blocks_copied");
  const obs::Gauge* utilization = obs::Registry().FindGauge("logfs.cleaner.utilization");
  const obs::Gauge* write_cost = obs::Registry().FindGauge("logfs.cleaner.write_cost");
  ASSERT_NE(examined, nullptr);
  ASSERT_NE(copied, nullptr);
  ASSERT_NE(utilization, nullptr);
  ASSERT_NE(write_cost, nullptr);
  ASSERT_GT(examined->Value(), 0u);
  ASSERT_GT(copied->Value(), 0u);  // Survivors were really copied.

  // Hand-compute the paper's cost from the same raw counters the gauge was
  // derived from: u = live blocks copied / blocks examined, and
  //   write cost = 1 + u/(1-u) + 1/(1-u)
  // (one new-data segment write, u/(1-u) live-copy writes, 1/(1-u) cleaner
  // segment reads per segment of new data; Section 3 of the paper).
  const double u = static_cast<double>(copied->Value()) /
                   static_cast<double>(examined->Value());
  ASSERT_GT(u, 0.0);
  ASSERT_LT(u, 1.0);
  const double expected_cost = 1.0 + u / (1.0 - u) + 1.0 / (1.0 - u);
  EXPECT_DOUBLE_EQ(utilization->Value(), u);
  EXPECT_DOUBLE_EQ(write_cost->Value(), expected_cost);
  EXPECT_GT(write_cost->Value(), 1.0);

  // And the raw counters mirror the per-instance CleanerStats exactly.
  EXPECT_EQ(examined->Value(), inst.fs->cleaner_stats().blocks_examined);
  EXPECT_EQ(copied->Value(), inst.fs->cleaner_stats().live_blocks_copied);
}

// --- causal identity in the ring and the exporters ------------------------

TEST_F(ObsTest, SpanIdsAppearInExportsOnlyWhenTraced) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  // One untraced span and one traced span with a link to another trace.
  obs::Tracer().RecordSpan("plain", "work", 1.0, 2.0);
  obs::Tracer().RecordSpanIds("traced", "child", 2.0, 3.0,
                              /*trace_id=*/7, /*span_id=*/8, /*parent_id=*/0,
                              /*links=*/{42});

  const std::string json = obs::Tracer().ToJson();
  // The untraced event carries no id fields at all — the exact property
  // that keeps pre-tracing golden snapshots byte-identical.
  const size_t plain_at = json.find("\"plain\"");
  const size_t traced_at = json.find("\"traced\"");
  ASSERT_NE(plain_at, std::string::npos);
  ASSERT_NE(traced_at, std::string::npos);
  const std::string plain_obj = json.substr(plain_at, traced_at - plain_at);
  EXPECT_EQ(plain_obj.find("\"trace\":"), std::string::npos);
  EXPECT_EQ(plain_obj.find("\"span\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\": 7, \"span\": 8, \"parent\": 0"),
            std::string::npos);
  EXPECT_NE(json.find("\"links\": [42]"), std::string::npos);

  const std::string chrome = obs::Tracer().ToChromeTrace();
  // Parentless traced span opens a flow; its link closes a flow step.
  EXPECT_NE(chrome.find("\"ph\": \"s\", \"id\": 7"), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"f\", \"bp\": \"e\", \"id\": 42"),
            std::string::npos);
  // The untraced span produces no flow events and no id args.
  const size_t plain_chrome = chrome.find("\"plain\"");
  ASSERT_NE(plain_chrome, std::string::npos);
  EXPECT_EQ(chrome.substr(0, plain_chrome).find("\"ph\": \"s\""),
            std::string::npos);
}

TEST_F(ObsTest, TraceIdsResetWithClear) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const uint64_t first = obs::Tracer().NextId();
  EXPECT_EQ(first, 1u);  // SetUp cleared the ring, so ids restart at 1.
  EXPECT_EQ(obs::Tracer().NextId(), 2u);
  obs::Tracer().Clear();
  EXPECT_EQ(obs::Tracer().NextId(), 1u);

  // MintTrace draws from the same counter and respects the runtime gate.
  obs::Tracer().Clear();
  obs::SetTracingEnabled(false);
  EXPECT_FALSE(obs::MintTrace().active());
  obs::SetTracingEnabled(true);
  const obs::TraceContext ctx = obs::MintTrace();
  EXPECT_EQ(ctx.trace_id, 1u);
  EXPECT_EQ(ctx.span_id, 2u);
}

TEST_F(ObsTest, DisabledTracingKeepsOnlyTracedEvents) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  LfsInstance inst;
  obs::Tracer().Clear();
  obs::SetTracingEnabled(false);
  obs::Tracer().RecordSpan("plain", "span", 1.0, 2.0, {{"k", "v"}});
  obs::Tracer().RecordInstant("plain", "instant", 3.0);
  { obs::SpanTimer timer(inst.clock.get(), "plain", "timer"); }
  // An LFS write that reaches the device would record an untraced
  // segwriter/flush span.
  ASSERT_TRUE(inst.paths->WriteFile("/f", std::vector<std::byte>(8192)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_EQ(obs::Tracer().size(), 0u);
  EXPECT_EQ(obs::Tracer().dropped(), 0u);

  // An event that carries a trace id still lands.
  obs::Tracer().RecordSpanIds("traced", "child", 4.0, 5.0, /*trace_id=*/7,
                              /*span_id=*/8, /*parent_id=*/0);
  obs::SetTracingEnabled(true);
  const std::vector<obs::TraceEvent> events = obs::Tracer().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 7u);
}

TEST_F(ObsTest, TraceContextScopeNestsAndRestores) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  EXPECT_FALSE(obs::CurrentTraceContext().active());
  const obs::TraceContext outer = obs::MintTrace();
  {
    obs::TraceContextScope outer_scope(outer);
    EXPECT_EQ(obs::CurrentTraceContext().span_id, outer.span_id);
    const obs::TraceContext inner{outer.trace_id, obs::MintSpanId(outer)};
    {
      obs::TraceContextScope inner_scope(inner);
      EXPECT_EQ(obs::CurrentTraceContext().span_id, inner.span_id);
    }
    EXPECT_EQ(obs::CurrentTraceContext().span_id, outer.span_id);
    // Installing an inactive context is a no-op, not a reset.
    {
      obs::TraceContextScope inert(obs::TraceContext{});
      EXPECT_EQ(obs::CurrentTraceContext().span_id, outer.span_id);
    }
  }
  EXPECT_FALSE(obs::CurrentTraceContext().active());
}

}  // namespace
}  // namespace logfs
