// Tests for the multi-client file service (src/serve/): protocol basics,
// lease sharing/revocation, cache consistency under the online shadow
// referee, retry/dedup under a lossy transport, lease-clock edge cases, and
// the group-commit coalescing seam.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/obs/metrics.h"
#include "src/serve/cluster.h"
#include "src/serve/driver.h"
#include "src/serve/lease.h"
#include "src/serve/server.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_clock.h"
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

// Synchronous wrappers: issue the async op, then run the cluster until every
// client is idle again.
Result<uint64_t> OpenSync(ServeCluster& cluster, Client* client, const std::string& path) {
  std::optional<Result<uint64_t>> got;
  client->Open(path, [&](Result<uint64_t> r) { got = std::move(r); });
  Status settled = cluster.Settle();
  if (!settled.ok()) {
    return settled;
  }
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
  Status settled = cluster.Settle();
  if (!settled.ok()) {
    return settled;
  }
  if (!got.has_value()) {
    return IoError("read never completed");
  }
  return std::move(*got);
}

Status WriteSync(ServeCluster& cluster, Client* client, uint64_t handle, uint64_t offset,
                 std::vector<std::byte> data) {
  std::optional<Status> got;
  client->Write(handle, offset, std::move(data), [&](Status st) { got = st; });
  Status settled = cluster.Settle();
  if (!settled.ok()) {
    return settled;
  }
  if (!got.has_value()) {
    return IoError("write never completed");
  }
  return *got;
}

Status CommitSync(ServeCluster& cluster, Client* client) {
  std::optional<Status> got;
  client->Commit([&](Status st) { got = st; });
  Status settled = cluster.Settle();
  if (!settled.ok()) {
    return settled;
  }
  if (!got.has_value()) {
    return IoError("commit never completed");
  }
  return *got;
}

Status CloseSync(ServeCluster& cluster, Client* client, uint64_t handle) {
  std::optional<Status> got;
  client->Close(handle, [&](Status st) { got = st; });
  Status settled = cluster.Settle();
  if (!settled.ok()) {
    return settled;
  }
  if (!got.has_value()) {
    return IoError("close never completed");
  }
  return *got;
}

TEST(ServeTest, SingleClientOpenWriteReadCommitClose) {
  auto cluster = ServeCluster::Create();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ServeCluster& c = **cluster;
  Client* a = c.client(0);

  auto h = OpenSync(c, a, "/f");
  ASSERT_TRUE(h.ok()) << h.status().ToString();

  const auto payload = Bytes(10000, 42);
  ASSERT_TRUE(WriteSync(c, a, *h, 0, payload).ok());

  auto back = ReadSync(c, a, *h, 0, payload.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);

  ASSERT_TRUE(CommitSync(c, a).ok());
  ASSERT_TRUE(CloseSync(c, a, *h).ok());

  EXPECT_EQ(c.shadow().violation_count(), 0u) << c.shadow().violations()[0];
  EXPECT_GT(c.shadow().reads_checked(), 0u);
}

TEST(ServeTest, CachedReadsServeLocallyUnderLease) {
  auto cluster = ServeCluster::Create();
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);

  auto h = OpenSync(c, a, "/f");
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(WriteSync(c, a, *h, 0, Bytes(4096, 7)).ok());

  // First read may populate; the second must be a pure cache hit with no
  // extra transport traffic.
  ASSERT_TRUE(ReadSync(c, a, *h, 0, 4096).ok());
  const uint64_t sent_before = c.transport()->sent();
  auto again = ReadSync(c, a, *h, 0, 4096);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(c.transport()->sent(), sent_before) << "cached read hit the wire";
  EXPECT_GT(a->cache_stats().hits, 0u);
  EXPECT_EQ(c.shadow().violation_count(), 0u);
}

TEST(ServeTest, WriteSharingRevokesAndWritesBack) {
  ServeClusterParams params;
  params.clients = 2;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);
  Client* b = c.client(1);

  auto ha = OpenSync(c, a, "/shared");
  ASSERT_TRUE(ha.ok());
  const auto payload = Bytes(8192, 3);
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, payload).ok());
  EXPECT_GT(a->cache_stats().dirty_blocks, 0u);

  // B's read must revoke A's write lease, forcing A's dirty blocks back to
  // the server first — then B sees exactly A's bytes.
  auto hb = OpenSync(c, b, "/shared");
  ASSERT_TRUE(hb.ok());
  auto read = ReadSync(c, b, *hb, 0, payload.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);

  EXPECT_GE(c.server()->revokes_sent(), 1u);
  EXPECT_GT(a->cache_stats().writebacks, 0u);
  EXPECT_EQ(c.server()->stale_writebacks(), 0u);
  EXPECT_EQ(c.shadow().violation_count(), 0u)
      << c.shadow().violations()[0];

  // And the reverse: B writes, A reads back the new bytes.
  const auto second = Bytes(8192, 4);
  ASSERT_TRUE(WriteSync(c, b, *hb, 0, second).ok());
  auto reread = ReadSync(c, a, *ha, 0, second.size());
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(*reread, second);
  EXPECT_EQ(c.shadow().violation_count(), 0u);
}

TEST(ServeTest, LossyTransportCostsLatencyNeverCorrectness) {
  ServeClusterParams params;
  params.clients = 3;
  params.transport.drop_probability = 0.15;
  params.transport.jitter_seconds = 300e-6;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;

  ServeLoadParams lp;
  lp.clients = 3;
  lp.files = 4;
  lp.ops_per_client = 25;
  lp.write_fraction = 0.4;
  lp.mean_think_seconds = 0.005;
  ServeLoad load = MakeSharedLoad(lp);
  auto stats = DriveSharedLoad(c, load);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->errors, 0u)
      << (stats->first_errors.empty() ? "" : stats->first_errors[0]);
  EXPECT_GT(c.transport()->dropped(), 0u) << "fault mode never fired";
  EXPECT_GT(c.server()->duplicates_suppressed(), 0u)
      << "drops without retransmission hitting the dedup cache";
  EXPECT_EQ(c.shadow().violation_count(), 0u)
      << c.shadow().violations()[0];
}

TEST(ServeTest, SameSeedSameRun) {
  auto run = [](uint64_t seed) {
    ServeClusterParams params;
    params.clients = 3;
    params.transport.drop_probability = 0.1;
    params.transport.jitter_seconds = 200e-6;
    params.transport.seed = seed;
    auto cluster = ServeCluster::Create(params);
    EXPECT_TRUE(cluster.ok());
    ServeLoadParams lp;
    lp.clients = 3;
    lp.files = 3;
    lp.ops_per_client = 15;
    lp.write_fraction = 0.5;
    lp.seed = seed;
    auto stats = DriveSharedLoad(**cluster, MakeSharedLoad(lp));
    EXPECT_TRUE(stats.ok());
    struct Fingerprint {
      uint64_t sent, delivered, dropped, ops;
      double now;
    };
    return Fingerprint{(*cluster)->transport()->sent(), (*cluster)->transport()->delivered(),
                       (*cluster)->transport()->dropped(), stats->ops_completed,
                       (*cluster)->clock()->Now()};
  };
  auto first = run(99);
  auto second = run(99);
  EXPECT_EQ(first.sent, second.sent);
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.ops, second.ops);
  EXPECT_EQ(first.now, second.now);
  auto third = run(100);
  EXPECT_NE(first.sent, third.sent);
}

TEST(ServeTest, WriteSharingStormStaysConsistent) {
  ServeClusterParams params;
  params.clients = 8;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;

  ServeLoadParams lp;
  lp.clients = 8;
  lp.files = 3;  // Heavy write sharing: everyone fights over 3 files.
  lp.ops_per_client = 30;
  lp.write_fraction = 0.7;
  lp.commit_probability = 0.1;
  lp.mean_think_seconds = 0.002;
  auto stats = DriveSharedLoad(c, MakeSharedLoad(lp));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->errors, 0u)
      << (stats->first_errors.empty() ? "" : stats->first_errors[0]);
  EXPECT_GE(c.server()->revokes_sent(), 1u) << "storm produced no lease conflicts";
  EXPECT_EQ(c.server()->stale_writebacks(), 0u);
  EXPECT_EQ(c.shadow().violation_count(), 0u)
      << c.shadow().violations()[0];
}

TEST(ServeTest, GroupCommitCoalescesRedundantSyncs) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "metrics disabled";
  } else {
    auto& coalesced = obs::Registry().GetCounter("logfs.sync.coalesced");
    const uint64_t before = coalesced.Value();

    ServeClusterParams params;
    params.clients = 2;
    auto cluster = ServeCluster::Create(params);
    ASSERT_TRUE(cluster.ok());
    ServeCluster& c = **cluster;
    Client* a = c.client(0);
    Client* b = c.client(1);

    auto ha = OpenSync(c, a, "/f");
    ASSERT_TRUE(ha.ok());
    ASSERT_TRUE(WriteSync(c, a, *ha, 0, Bytes(4096, 1)).ok());
    ASSERT_TRUE(CommitSync(c, a).ok());
    // Second commit of the same horizon: nothing new to flush — the seam
    // must absorb it instead of checkpointing again.
    ASSERT_TRUE(CommitSync(c, a).ok());
    // A read grant over the already-durable file coalesces its pre-grant
    // sync too.
    auto hb = OpenSync(c, b, "/f");
    ASSERT_TRUE(hb.ok());
    ASSERT_TRUE(ReadSync(c, b, *hb, 0, 4096).ok());

    EXPECT_GT(coalesced.Value(), before)
        << "redundant syncs were not coalesced";
  }
}

// --- lease-clock edge cases -------------------------------------------------

TEST(ServeTest, RenewalExactlyAtExpiryTickIsTooLate) {
  LeaseManager leases(30.0);
  auto grant = leases.Acquire(/*fh=*/7, /*client=*/1, LeaseKind::kWrite, /*now=*/0.0);
  ASSERT_TRUE(grant.granted);
  EXPECT_EQ(grant.expires_at, 30.0);

  double expires = 0.0;
  // One tick before the boundary: still valid, renewable.
  EXPECT_TRUE(leases.Renew(7, 1, 29.999, &expires));
  EXPECT_EQ(expires, 29.999 + 30.0);
  // Exactly at the (renewed) expiry: dead. now < expires_at is strict.
  EXPECT_FALSE(leases.Renew(7, 1, expires, &expires));
  EXPECT_EQ(leases.Held(7, 1, expires), LeaseKind::kNone);
  // The file is grantable to someone else at that same instant.
  auto regrant = leases.Acquire(7, 2, LeaseKind::kWrite, 59.999);
  EXPECT_TRUE(regrant.granted);
}

TEST(ServeTest, WritebackAfterLeaseExpiryIsRejectedStale) {
  ServeClusterParams params;
  params.clients = 2;
  params.lease_seconds = 5.0;
  params.strict_shadow = false;  // A's write is deliberately lost to expiry.
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);
  Client* b = c.client(1);

  auto ha = OpenSync(c, a, "/f");
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, Bytes(4096, 1)).ok());

  // A goes idle past its lease term; the dirty block stays local.
  c.RunFor(params.lease_seconds + 2.0);

  // B takes the write lease (A's has expired server-side) and commits.
  auto hb = OpenSync(c, b, "/f");
  ASSERT_TRUE(hb.ok());
  const auto winner = Bytes(4096, 2);
  ASSERT_TRUE(WriteSync(c, b, *hb, 0, winner).ok());
  ASSERT_TRUE(CommitSync(c, b).ok());

  // A's belated write-back must be rejected as stale, not applied over B's.
  Status commit = CommitSync(c, a);
  EXPECT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), ErrorCode::kBusy) << commit.ToString();
  EXPECT_GE(c.server()->stale_writebacks(), 1u);

  // B's data survived.
  auto read = ReadSync(c, b, *hb, 0, winner.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, winner);
}

// A commit's write-back is lost, and a recall arrives before its RTO fires:
// the recall flush re-sends the still-dirty block, commits it and acks, and
// the server revokes the lease. The commit's retransmitted copy then comes
// back refused as a stale write-back, yet its block is already committed,
// so the commit must still succeed.
TEST(ServeTest, RefusedLateCopyOfARecallFlushedBlockIsNotACommitError) {
  ServeClusterParams params;
  params.clients = 2;
  bool synced = false;
  params.server_sync_hook = [&synced](uint64_t) { synced = true; };
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);
  Client* b = c.client(1);

  auto ha = OpenSync(c, a, "/f");
  auto hb = OpenSync(c, b, "/f");
  ASSERT_TRUE(ha.ok() && hb.ok());
  const auto payload = Bytes(4096, 7);
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, payload).ok());

  // The commit sends its one write-back at once; the transport loses it.
  const uint64_t stale_before = c.server()->stale_writebacks();
  std::optional<Status> committed;
  c.transport()->set_drop_probability(1.0);
  a->Commit([&](Status st) { committed = st; });
  c.transport()->set_drop_probability(0.0);

  // B's read recalls A's lease. The recall flush re-sends the block and
  // commits it, and that sync holds the clock past the copy's RTO, so its
  // retransmission is due at once, ahead of the answer to A's commit. Lose
  // what is due then, and A acks the recall before the copy is sent again.
  std::optional<Result<std::vector<std::byte>>> read;
  synced = false;
  b->Read(*hb, 0, payload.size(),
          [&](Result<std::vector<std::byte>> r) { read = std::move(r); });
  while (!synced) {
    ASSERT_TRUE(c.events()->RunOne());
  }
  const double answered = c.clock()->Now();
  c.transport()->set_drop_probability(1.0);
  c.events()->RunUntil(answered);
  c.transport()->set_drop_probability(0.0);
  ASSERT_TRUE(c.Settle().ok());

  EXPECT_GT(c.server()->stale_writebacks(), stale_before) << "the late copy was never refused";
  ASSERT_TRUE(committed.has_value());
  EXPECT_TRUE(committed->ok()) << committed->ToString();
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->ok()) << read->status().ToString();
  EXPECT_EQ(**read, payload);
  EXPECT_EQ(c.shadow().violation_count(), 0u);
}

TEST(ServeTest, WriteOnReadOnlyDemotedServerFailsCleanly) {
  // Hand-built rig so a FaultInjectingDisk sits under the LFS: both
  // checkpoint regions go write-bad, the next sync demotes the mount, and a
  // write-lease grant (whose pre-grant durability sync can no longer
  // succeed) surfaces kReadOnly to the client.
  SimClock clock;
  MemoryDisk inner(49152, &clock);
  FaultInjectingDisk fault(&inner);
  LfsParams lfs_params;
  lfs_params.max_inodes = 2048;
  lfs_params.clean_start_segments = 4;
  lfs_params.clean_stop_segments = 6;
  lfs_params.reserved_segments = 3;
  ASSERT_TRUE(LfsFileSystem::Format(&inner, lfs_params).ok());
  LfsFileSystem::Options mount_options;
  mount_options.roll_forward = true;
  auto fs = LfsFileSystem::Mount(&fault, &clock, nullptr, mount_options);
  ASSERT_TRUE(fs.ok());
  EventQueue events(&clock);
  SimTransport transport(&clock, &events, {});
  FileServer server(fs->get(), &clock, &events, &transport, {});
  Client client(&clock, &events, &transport, server.node());

  std::optional<Result<uint64_t>> opened;
  client.Open("/f", [&](Result<uint64_t> r) { opened = std::move(r); });
  std::optional<Status> wrote;
  while (!opened.has_value() || !wrote.has_value()) {
    ASSERT_FALSE(events.empty());
    events.RunOne();
    if (opened.has_value() && opened->ok() && !wrote.has_value() && !client.busy()) {
      // File exists and is durable; now demote, then try to write.
      ASSERT_TRUE((*fs)->Sync().ok());
      const LfsSuperblock& sb = (*fs)->superblock();
      fault.MarkBadSectors(sb.SectorsPerBlock(),
                           2ull * sb.checkpoint_region_blocks * sb.SectorsPerBlock(),
                           FaultInjectingDisk::BadSectorMode::kWrite);
      // Dirty the log so the demotion sync has something to fail on.
      ASSERT_TRUE((*fs)->Create(kRootIno, "dirt", FileType::kRegular).ok());
      Status sync = (*fs)->Sync();
      ASSERT_EQ(sync.code(), ErrorCode::kMediaError) << sync.ToString();
      ASSERT_TRUE((*fs)->read_only());
      client.Write(**opened, 0, Bytes(4096, 5), [&](Status st) { wrote = st; });
    }
  }
  ASSERT_TRUE(opened->ok()) << opened->status().ToString();
  EXPECT_EQ(wrote->code(), ErrorCode::kReadOnly) << wrote->ToString();
}

TEST(ServeTest, ThousandClientZipfSmoke) {
  ServeClusterParams params;
  params.clients = 1000;
  params.client.cache_blocks = 16;  // Keep the footprint sane.
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;

  ServeLoadParams lp;
  lp.clients = 1000;
  lp.files = 64;
  lp.ops_per_client = 4;
  lp.write_fraction = 0.2;
  lp.file_size = 16 * 1024;
  lp.mean_think_seconds = 0.1;
  auto stats = DriveSharedLoad(c, MakeSharedLoad(lp));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->errors, 0u)
      << (stats->first_errors.empty() ? "" : stats->first_errors[0]);
  EXPECT_GE(stats->ops_completed, 4000u);
  EXPECT_EQ(c.shadow().violation_count(), 0u)
      << c.shadow().violations()[0];
}

// The Zipf(0.9) shared-file load across a client sweep: 160 ops split over
// 4 and then 16 clients, 30% writes, 64 KB files, 32-block client caches.
// Every op completes without a drive error and the shadow referee sees no
// stale read.
TEST(ServeTest, ZipfClientSweepHasNoErrorsOrStaleReads) {
  for (size_t n : {4u, 16u}) {
    ServeClusterParams params;
    params.clients = n;
    params.client.cache_blocks = 32;
    auto cluster = ServeCluster::Create(params);
    ASSERT_TRUE(cluster.ok());
    ServeCluster& c = **cluster;

    ServeLoadParams lp;
    lp.clients = n;
    lp.files = 64;
    lp.zipf_s = 0.9;
    lp.ops_per_client = 160 / n;
    lp.write_fraction = 0.3;
    lp.file_size = 64 * 1024;
    lp.mean_think_seconds = 0.05;
    lp.seed = 17;
    auto stats = DriveSharedLoad(c, MakeSharedLoad(lp));
    ASSERT_TRUE(stats.ok()) << n << " clients: " << stats.status().ToString();
    EXPECT_EQ(stats->errors, 0u)
        << n << " clients: " << (stats->first_errors.empty() ? "" : stats->first_errors[0]);
    EXPECT_GE(stats->ops_completed, 160u) << n << " clients";
    EXPECT_GT(c.shadow().reads_checked(), 0u) << n << " clients";
    EXPECT_EQ(c.shadow().violation_count(), 0u)
        << n << " clients: " << c.shadow().violations()[0];
  }
}

// Inspection surfaces used by `lfs_inspect serve`.
TEST(ServeTest, IntrospectionSurfacesReportLiveState) {
  ServeClusterParams params;
  params.clients = 2;
  auto cluster = ServeCluster::Create(params);
  ASSERT_TRUE(cluster.ok());
  ServeCluster& c = **cluster;
  Client* a = c.client(0);

  auto ha = OpenSync(c, a, "/f");
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(WriteSync(c, a, *ha, 0, Bytes(4096, 1)).ok());

  auto table = c.server()->leases().Dump(c.clock()->Now());
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(table[0].record.kind, LeaseKind::kWrite);

  auto handles = a->DumpHandles();
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_EQ(handles[0].path, "/f");
  EXPECT_GT(handles[0].dirty, 0u);

  auto sessions = c.server()->DumpSessions();
  ASSERT_FALSE(sessions.empty());
  EXPECT_GT(sessions[0].max_request_id, 0u);
}

}  // namespace
}  // namespace logfs::serve
