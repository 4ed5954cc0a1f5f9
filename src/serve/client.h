// Client: a simulated file-service client with a private, lease-consistent
// block cache.
//
// The availability/consistency story (Gray & Cheriton):
//   * Reads are served from the private cache whenever the client holds a
//     valid (read or write) lease on the file and the blocks are resident —
//     no server round trip, and the lease guarantees freshness: any writer
//     must first revoke this lease, and the revoke completes only after the
//     holder's dirty blocks are written back, committed, and acked.
//   * Writes are write-back: they require a valid write lease and land only
//     in the private cache. Dirty blocks reach the server on revoke,
//     release, close, commit, or eviction pressure — then are committed
//     (group-committed server-side) before anyone else may see the file.
//   * Every RPC is retransmitted on timeout with exponential backoff and
//     deduplicated server-side, so the drop/reorder transport fault mode
//     costs latency, never correctness.
//
// Crash handling, both directions:
//   * Client crash: Crash() drops all state. The server's recalls go
//     unanswered; its leases expire on the sim clock; writers parked on the
//     dead client's lease proceed at expiry. Unwritten dirty data is lost —
//     that is the contract of a volatile client cache.
//   * Server crash: leases remain time-valid through the outage, so cached
//     reads keep working. On the first response from the new incarnation
//     (higher epoch) — or a kNotFound for a handle the old one knew — the
//     client re-opens the path, *reclaims* its still-valid write lease
//     through the grace fence, replays every non-durable block, commits,
//     and only then continues. Blocks already covered by a durable commit
//     are never replayed (the durable_seq piggyback retires them).
#ifndef LOGFS_SRC_SERVE_CLIENT_H_
#define LOGFS_SRC_SERVE_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/serve/message.h"
#include "src/serve/transport.h"
#include "src/sim/event_queue.h"
#include "src/util/result.h"

namespace logfs::serve {

struct ClientOptions {
  uint32_t block_size = 4096;
  // Clean-block cache capacity (dirty and not-yet-durable blocks are pinned
  // on top of this; they are the client's replay state).
  size_t cache_blocks = 256;
  // Consistency-model hooks (cluster.h): local write application (the
  // serialization point under the exclusive lease) and read observation.
  std::function<void(const std::string& path, uint64_t offset,
                     std::span<const std::byte> data)>
      write_hook;
  std::function<void(const std::string& path, uint64_t offset,
                     std::span<const std::byte> data, bool from_cache)>
      read_hook;
};

class Client {
 public:
  // Registers on the transport; the returned node id is the client_id used
  // on the wire. `server` is the server's node.
  Client(SimClock* clock, EventQueue* events, SimTransport* transport, NodeId server,
         ClientOptions options = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  uint64_t id() const { return node_; }

  using StatusCb = std::function<void(Status)>;
  using OpenCb = std::function<void(Result<uint64_t>)>;
  using ReadCb = std::function<void(Result<std::vector<std::byte>>)>;

  // All operations are asynchronous; completions fire from the event queue.
  // Ops queue per client and run one at a time, in order, like a
  // single-threaded application process.
  void Open(const std::string& path, OpenCb cb);
  void Read(uint64_t handle, uint64_t offset, uint64_t length, ReadCb cb);
  void Write(uint64_t handle, uint64_t offset, std::vector<std::byte> data, StatusCb cb);
  // Flushes every dirty block and makes all of this client's writes durable.
  void Commit(StatusCb cb);
  void Close(uint64_t handle, StatusCb cb);

  // Dies abruptly: drops every lease, cached block, and pending op without
  // telling anyone. The transport blackholes future traffic to this node.
  void Crash();
  bool crashed() const { return crashed_; }

  // Last server epoch observed; exposed for restart tests.
  uint64_t server_epoch() const { return server_epoch_; }
  // True while a user op (or its recovery work) is in flight or queued.
  bool busy() const { return busy_ || !op_queue_.empty(); }

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t writebacks = 0;   // Dirty blocks pushed to the server.
    uint64_t replays = 0;      // Blocks replayed after a server restart.
    uint64_t discards = 0;     // Non-durable blocks lost with a dead lease.
    uint64_t evictions = 0;
    size_t cached_blocks = 0;  // Live totals.
    size_t dirty_blocks = 0;
    size_t unstable_blocks = 0;
  };
  CacheStats cache_stats() const;

  struct OpLatency {
    uint64_t count = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
  };
  // Client-observed latency per op kind ("open", "read", ...).
  const std::map<std::string, OpLatency>& latencies() const { return latencies_; }

  struct HandleInfo {
    uint64_t handle = 0;
    std::string path;
    LeaseKind lease = LeaseKind::kNone;
    double lease_expiry = 0.0;
    size_t cached = 0;
    size_t dirty = 0;
  };
  std::vector<HandleInfo> DumpHandles() const;

 private:
  struct CachedBlock {
    std::vector<std::byte> data;   // Always block_size long (zero-padded).
    bool dirty = false;      // Local write not yet at the server.
    bool unstable = false;   // At the server but not yet durable.
    uint64_t server_seq = 0; // Server mutation seq of the last write-back.
    uint64_t seq_epoch = 0;  // Server epoch server_seq belongs to.
    uint64_t lru = 0;
  };
  struct Handle {
    std::string path;
    uint64_t fh = 0;
    uint64_t epoch = 0;      // Server epoch the fh was obtained from.
    bool open = false;
    LeaseKind lease = LeaseKind::kNone;
    double lease_expiry = 0.0;
    double lease_term = 0.0;  // Term length observed at grant (drives renewal).
    uint64_t size = 0;
    std::map<uint64_t, CachedBlock> blocks;
    bool renew_inflight = false;
    // A recall for this file's write lease is being serviced out-of-band
    // (dirty blocks flushing, commit, then ack). While set, new local writes
    // and lease acquires for the file wait — a write slipped in mid-flush
    // would be discarded with the surrendered lease.
    bool recalled = false;
    // Action number of the last revoke processed for this file. A lease
    // grant carried by a response to a request sent before that action is
    // void: we already promised the server the lease was gone, and the
    // delayed (or dedup-cache-replayed) grant reflects a pre-revoke world.
    uint64_t last_revoke_action = 0;
    // Dirty blocks InvalidateFile dropped unwritten, so far. A write-back
    // whose block has left the cache by its refusal left it clean iff this
    // has not moved since the send.
    uint64_t dirty_discards = 0;
  };
  struct Outstanding {
    Request request;
    std::function<void(Response&&)> cb;
    uint64_t timer = 0;
    double rto = 0.0;
    // Tracing (inert when ctx is inactive): the whole exchange becomes a
    // "serve.rpc" span under `ctx`, with one "serve.attempt" child per send.
    // The response names the attempt that won; the rest were wasted.
    obs::TraceContext ctx;   // parent context (usually the op root span)
    uint64_t rpc_span = 0;   // pre-minted "serve.rpc" span id
    double call_time = 0.0;
    std::vector<std::pair<double, uint64_t>> attempts;  // (send time, span id)
  };

  double Now() const;
  Handle* Find(uint64_t handle);

  // --- RPC layer ---
  // `ctx` overrides the trace parent for this exchange; nullptr means the
  // ambient foreground op (op_ctx_). Out-of-band work (revoke flushes) runs
  // under its own root trace and must pass it explicitly.
  void Call(Request request, std::function<void(Response&&)> cb,
            const obs::TraceContext* ctx = nullptr);
  void Retransmit(uint64_t request_id);
  void OnMessage(Message&& message);
  void OnResponse(Response&& response);
  // Emits the serve.rpc span and its serve.attempt children for a completed
  // exchange; `response.attempt` names the winner exactly.
  void RecordRpcSpans(const Outstanding& out, const Response& response);
  void OnRevoke(const Revoke& revoke);
  // Services a write-lease recall immediately, concurrent with whatever op
  // is in flight: flush dirty blocks, commit, invalidate, ack. Running this
  // out-of-band (not behind the op queue) is what keeps a client whose
  // foreground op is parked on another file's lease from deadlocking the
  // cluster until expiry. The flush runs under its own trace (`flush_ctx`),
  // linked to the conflicting request's trace (`link_trace`) that forced it.
  void FlushForRevoke(uint64_t hid, RevokeAck ack, obs::TraceContext flush_ctx,
                      uint64_t link_trace, double started);
  void RetireDurable(uint64_t durable_seq);

  // --- op queueing ---
  void Enqueue(const char* kind, std::function<void(std::function<void()>)> body,
               bool front = false);
  void StartNext();

  // --- async building blocks (each calls `then` exactly once) ---
  // Re-opens the handle if the server epoch moved (or `force`), then
  // replays non-durable blocks under a reclaimed lease.
  void EnsureHandle(uint64_t handle, bool force, StatusCb then);
  void ReplayIfNeeded(uint64_t handle, uint64_t server_size, StatusCb then);
  void EnsureWriteLease(uint64_t handle, bool reclaim, StatusCb then);
  // Writes the given blocks back (bounded parallelism); `then` fires after
  // every ack. Blocks that fail with a lost lease are surfaced as kBusy.
  // Whether another write-back stored block `b` after one sent when the
  // handle's dirty_discards read `discards`: the block is cached clean, or
  // it left the cache with no dirty block dropped since (a recall flush
  // committed it and invalidated the file).
  bool StoredSince(uint64_t handle, uint64_t b, uint64_t discards);
  void WritebackBlocks(uint64_t handle, std::vector<uint64_t> indices, StatusCb then,
                       obs::TraceContext ctx = {});
  void CommitSeq(uint64_t seq, StatusCb then, obs::TraceContext ctx = {});
  // Applies a write to the cache (fetching partially-covered blocks first).
  void ApplyLocalWrite(uint64_t handle, uint64_t offset, std::vector<std::byte> data,
                       StatusCb then);
  void FetchBlock(uint64_t handle, uint64_t index, StatusCb then);

  // --- op bodies ---
  void DoRead(uint64_t handle, uint64_t offset, uint64_t length, bool retried, ReadCb cb);
  void DoWrite(uint64_t handle, uint64_t offset, std::vector<std::byte> data, bool retried,
               StatusCb cb);
  void DoClose(uint64_t handle, StatusCb cb, std::function<void()> done);

  // --- cache ---
  bool LeaseValid(const Handle& h) const;
  void UpdateSizeFromGrant(Handle& h, uint64_t server_size);
  bool CacheCovers(const Handle& h, uint64_t offset, uint64_t length) const;
  std::vector<std::byte> ReadFromCache(Handle& h, uint64_t offset, uint64_t length);
  void InstallClean(Handle& h, uint64_t offset, std::span<const std::byte> data);
  void MaybeRenew(uint64_t handle);
  void InvalidateFile(Handle& h);
  void EvictForSpace();
  size_t CleanCount() const;

  void RecordLatency(const char* kind, double start);

  SimClock* clock_;
  EventQueue* events_;
  SimTransport* transport_;
  NodeId server_;
  NodeId node_;
  ClientOptions options_;
  bool crashed_ = false;

  uint64_t next_request_id_ = 1;
  // Totally orders request sends against revoke arrivals (sim time can tie;
  // this cannot). Bumped once per Call and once per revoke processed.
  uint64_t action_seq_ = 0;
  std::map<uint64_t, Outstanding> outstanding_;
  uint64_t server_epoch_ = 0;
  uint64_t durable_seq_ = 0;
  uint64_t max_write_seq_ = 0;  // Newest server seq among my write-backs.

  uint64_t next_handle_ = 1;
  std::map<uint64_t, Handle> handles_;
  uint64_t lru_counter_ = 0;

  std::deque<std::function<void()>> op_queue_;
  bool busy_ = false;
  // Trace of the foreground op currently executing (inactive between ops).
  // Ops run one at a time, so a single slot suffices; RPCs issued while an
  // op runs inherit it as their parent unless Call is given an explicit ctx.
  obs::TraceContext op_ctx_;

  CacheStats stats_;
  std::map<std::string, OpLatency> latencies_;
};

}  // namespace logfs::serve

#endif  // LOGFS_SRC_SERVE_CLIENT_H_
