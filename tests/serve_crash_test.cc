// Crash-facing tests for the multi-client file service: server crash +
// restart with lease reclaim and dirty-block replay, client crash with
// expiry-based lease reclamation, and the recorded crash-image sweep that
// proves zero stale reads across enumerated server-crash states.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/serve/cluster.h"
#include "src/serve/driver.h"
#include "src/serve/oracle.h"
#include "src/workload/serve_load.h"

namespace logfs::serve {
namespace {

std::vector<std::byte> Bytes(size_t n, uint64_t seed) {
  std::vector<std::byte> data(n);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    data[i] = static_cast<std::byte>((x * 0x2545F4914F6CDD1Dull) >> 56);
  }
  return data;
}

Result<uint64_t> OpenSync(ServeCluster& cluster, Client* client, const std::string& path) {
  std::optional<Result<uint64_t>> got;
  client->Open(path, [&](Result<uint64_t> r) { got = std::move(r); });
  RETURN_IF_ERROR(cluster.Settle());
  if (!got.has_value()) {
    return IoError("open never completed");
  }
  return std::move(*got);
}

Result<std::vector<std::byte>> ReadSync(ServeCluster& cluster, Client* client,
                                        uint64_t handle, uint64_t offset, uint64_t length) {
  std::optional<Result<std::vector<std::byte>>> got;
  client->Read(handle, offset, length, [&](Result<std::vector<std::byte>> r) {
    got = std::move(r);
  });
  RETURN_IF_ERROR(cluster.Settle());
  if (!got.has_value()) {
    return IoError("read never completed");
  }
  return std::move(*got);
}

Status WriteSync(ServeCluster& cluster, Client* client, uint64_t handle, uint64_t offset,
                 std::vector<std::byte> data) {
  std::optional<Status> got;
  client->Write(handle, offset, std::move(data), [&](Status st) { got = st; });
  RETURN_IF_ERROR(cluster.Settle());
  if (!got.has_value()) {
    return IoError("write never completed");
  }
  return *got;
}

Status CommitSync(ServeCluster& cluster, Client* client) {
  std::optional<Status> got;
  client->Commit([&](Status st) { got = st; });
  RETURN_IF_ERROR(cluster.Settle());
  if (!got.has_value()) {
    return IoError("commit never completed");
  }
  return *got;
}

TEST(ServeCrashTest, DirtyBlocksReplayAcrossServerRestart) {
  ServeClusterParams params;
  params.clients = 2;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ServeCluster& c = **cluster;
  Client* a = c.client(0);
  Client* b = c.client(1);

  auto ha = OpenSync(c, a, "/f");
  ASSERT_TRUE(ha.ok()) << ha.status().ToString();
  const auto payload = Bytes(12000, 21);
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, payload).ok());

  // The server dies with A's writes existing nowhere but A's cache (dirty)
  // — its lease table and sessions are gone; the disk is frozen as-is.
  c.CrashServer();
  ASSERT_TRUE(c.RestartServer().ok());

  // A's lease is still time-valid, so its cached read keeps serving right
  // through the outage — availability is the whole point of leases. The
  // client has no way (and no need) to know the server died yet.
  auto back = ReadSync(c, a, *ha, 0, payload.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
  EXPECT_EQ(a->server_epoch(), 1u);

  // The commit is A's first server contact: it discovers the new epoch,
  // re-opens, reclaims its still-valid write lease through the grace fence,
  // and replays the dirty blocks before making them durable.
  ASSERT_TRUE(CommitSync(c, a).ok());
  EXPECT_EQ(a->server_epoch(), 2u);
  EXPECT_GE(a->cache_stats().replays, 1u);
  auto hb = OpenSync(c, b, "/f");
  ASSERT_TRUE(hb.ok()) << hb.status().ToString();
  auto seen = ReadSync(c, b, *hb, 0, payload.size());
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(*seen, payload);
  EXPECT_EQ(c.shadow().violation_count(), 0u) << c.shadow().violations()[0];
}

TEST(ServeCrashTest, CommittedDataSurvivesServerCrashByRollForward) {
  ServeClusterParams params;
  params.clients = 1;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);

  auto ha = OpenSync(c, a, "/durable");
  ASSERT_TRUE(ha.ok());
  const auto payload = Bytes(20000, 33);
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, payload).ok());
  ASSERT_TRUE(CommitSync(c, a).ok());

  c.CrashServer();
  ASSERT_TRUE(c.RestartServer().ok());

  // A fresh client (no cache, no lease history) reads what roll-forward
  // recovered. It parks behind the grace fence first — expiry does the rest.
  Client* fresh = c.AddClient();
  auto hf = OpenSync(c, fresh, "/durable");
  ASSERT_TRUE(hf.ok()) << hf.status().ToString();
  auto seen = ReadSync(c, fresh, *hf, 0, payload.size());
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(*seen, payload);
  EXPECT_EQ(c.shadow().violation_count(), 0u) << c.shadow().violations()[0];
}

TEST(ServeCrashTest, ClientCrashFreesWriteLeaseByExpiry) {
  ServeClusterParams params;
  params.clients = 2;
  params.lease_seconds = 5.0;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);
  Client* b = c.client(1);

  auto ha = OpenSync(c, a, "/f");
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, Bytes(4096, 1)).ok());
  const double crashed_at = c.clock()->Now();
  c.CrashClient(0);

  // B wants the write lease. The revoke to dead A is blackholed, so B can
  // proceed only when A's lease expires on the server's clock.
  auto hb = OpenSync(c, b, "/f");
  ASSERT_TRUE(hb.ok());
  const auto winner = Bytes(4096, 2);
  ASSERT_TRUE(WriteSync(c, b, *hb, 0, winner).ok());
  EXPECT_GE(c.clock()->Now(), crashed_at + params.lease_seconds)
      << "B acquired the write lease before A's could have expired";

  ASSERT_TRUE(CommitSync(c, b).ok());
  auto seen = ReadSync(c, b, *hb, 0, winner.size());
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, winner);
  EXPECT_EQ(c.shadow().violation_count(), 0u) << c.shadow().violations()[0];
}

// The acceptance sweep: enumerate server-crash disk images from a recorded
// multi-client run and prove every one recovers with no stale (lost-durable)
// or corrupt state.
TEST(ServeCrashTest, CrashImageSweepFindsNoStaleReads) {
  ServeCrashSweepParams params;
  params.load.clients = 4;
  params.load.files = 6;
  params.load.ops_per_client = 25;
  params.load.write_fraction = 0.4;
  params.load.commit_probability = 0.2;
  params.load.mean_think_seconds = 0.005;
  params.load.file_size = 32 * 1024;
  params.budget.max_boundaries = 0;  // Every boundary.
  params.budget.torn_variants = {1, 8};

  auto report = ExploreServeCrashStates(params);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->crash.states_checked, 0u);
  EXPECT_GT(report->online_reads_checked, 0u);
  std::string detail;
  for (const std::string& e : report->online_errors) {
    detail += "\n  " + e;
  }
  EXPECT_TRUE(report->ok()) << report->Summary() << detail << "\n"
                            << report->crash.Violations();
}

}  // namespace
}  // namespace logfs::serve
