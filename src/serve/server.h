// FileServer: the multi-client face of the LFS storage manager.
//
// One server owns one mounted LfsFileSystem and speaks the src/serve/
// protocol (message.h) over a SimTransport. Consistency is lease-based
// (lease.h); the rules that make the whole thing recoverable:
//
//   * Writes require a valid write lease; write-backs arriving after the
//     holder's lease died are rejected (kBusy) — the revoke-races-expiry
//     case — and counted as logfs.serve.lease.stale_writebacks.
//   * A lease grant that would expose another holder's recent writes first
//     makes them durable: the server tracks the newest LFS mutation per
//     file and calls SyncAsOf before granting, which the group-commit seam
//     coalesces into an already-covering flush whenever possible
//     (logfs.sync.coalesced). Hence anything a freshly granted lease can
//     observe is reproducible by roll-forward recovery after a crash.
//   * Conflicting acquires are parked, recall callbacks go to the current
//     holders, and the parked request proceeds on ack, release, or expiry —
//     whichever comes first. The lease table lives nowhere but memory.
//
// Crash recovery: a new incarnation mounts the recovered file system, bumps
// the epoch, and opens a grace period of one lease term. During grace only
// reclaim acquires (clients proving a still-valid lease from the old epoch)
// are granted; everything else parks until every dead-incarnation lease
// must have expired. Clients notice the epoch change in the next response
// and replay their non-durable writes under reclaimed leases.
#ifndef LOGFS_SRC_SERVE_SERVER_H_
#define LOGFS_SRC_SERVE_SERVER_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/fsbase/path.h"
#include "src/lfs/lfs_file_system.h"
#include "src/obs/trace_context.h"
#include "src/serve/lease.h"
#include "src/serve/message.h"
#include "src/serve/transport.h"
#include "src/sim/event_queue.h"

namespace logfs::serve {

struct FileServerOptions {
  double lease_seconds = 30.0;
  // Observability hooks for the consistency model (cluster.h): called after
  // a write lands in the LFS and after a sync advances the durable horizon.
  std::function<void(const std::string& path, uint64_t offset,
                     std::span<const std::byte> data, uint64_t mutation_seq)>
      write_hook;
  std::function<void(uint64_t synced_seq)> sync_hook;
  // Called when an Open had to create the file — a mutation the crash
  // oracle must model just like a write.
  std::function<void(const std::string& path, uint64_t mutation_seq)> open_hook;
};

class FileServer {
 public:
  // `node` re-binds an existing transport id (server restart keeps its
  // address); pass kFreshNode to register a new endpoint. `epoch` must
  // exceed every previous incarnation's.
  static constexpr NodeId kFreshNode = static_cast<NodeId>(-1);
  FileServer(LfsFileSystem* fs, SimClock* clock, EventQueue* events,
             SimTransport* transport, FileServerOptions options = {},
             NodeId node = kFreshNode, uint64_t epoch = 1);
  ~FileServer();

  FileServer(const FileServer&) = delete;
  FileServer& operator=(const FileServer&) = delete;

  NodeId node() const { return node_; }
  uint64_t epoch() const { return epoch_; }
  // End of the post-restart grace period (absolute sim time).
  double grace_until() const { return grace_until_; }

  // Stops serving: detaches from the transport and cancels the tick. The
  // cluster calls this to simulate a server crash (state is simply lost).
  void Shutdown();

  // Background maintenance; normally self-scheduled every kTickSeconds
  // (server.cc).
  void Tick();

  LfsFileSystem* fs() const { return fs_; }
  const LeaseManager& leases() const { return leases_; }

  // --- introspection (lfs_inspect serve, tests) ---
  struct ParkedInfo {
    uint64_t client = 0;
    uint64_t request_id = 0;
    OpKind op = OpKind::kGetLease;
    uint64_t fh = 0;
    LeaseKind want = LeaseKind::kNone;
    double since = 0.0;
  };
  std::vector<ParkedInfo> DumpParked() const;
  struct SessionInfo {
    uint64_t client = 0;
    uint64_t max_request_id = 0;
    size_t cached_replies = 0;
  };
  std::vector<SessionInfo> DumpSessions() const;
  const std::map<uint64_t, std::string>& handle_paths() const { return handle_paths_; }

  uint64_t requests_received() const { return requests_received_; }
  uint64_t duplicates_suppressed() const { return duplicates_; }
  uint64_t revokes_sent() const { return revokes_sent_; }
  uint64_t stale_writebacks() const { return stale_writebacks_; }

 private:
  struct Session {
    uint64_t max_request_id = 0;            // Highest id ever executed/parked.
    std::map<uint64_t, Response> replies;   // Dedup cache, newest ids kept.
    std::vector<uint64_t> parked_ids;       // Ids parked, awaiting a lease.
  };
  struct Parked {
    Request request;
    double since = 0.0;
    // Tracing (inert when the request carried no context): the park episode
    // becomes a "serve.park" span under the request's handle span, linking
    // to the traces that blocked it; duplicates absorbed while parked
    // become "serve.dedup" child spans.
    obs::TraceContext ctx;        // {trace, handle span} of the parked request
    uint64_t span_id = 0;         // pre-minted park span id
    const char* reason = "conflict";
    std::vector<uint64_t> links;  // blocking holders' trace ids
    std::vector<double> dup_arrivals;
  };
  // Tracing state of a request between arrival and response. Keyed by
  // (client, request id); lives in this incarnation only, like the dedup
  // cache — a crash loses the spans of in-flight requests, nothing else.
  struct InflightTrace {
    obs::TraceContext ctx;   // {trace id, handle span id}
    uint64_t parent = 0;     // the client attempt span that reached us
    double arrival = 0.0;
  };

  double Now() const { return clock_->Now(); }
  void HandleMessage(Message&& message);
  void HandleRequest(Request&& request);
  void HandleRevokeAck(const RevokeAck& ack);

  // Executes `request` now or parks it (lease conflict / grace period).
  // Parked requests produce no response until unparked.
  void Execute(const Request& request);
  // The op bodies; each fills `resp` (already stamped with ids/epoch).
  void DoOpen(const Request& req, Response* resp);
  void DoRead(const Request& req, Response* resp, bool* parked);
  void DoWrite(const Request& req, Response* resp);
  void DoCommit(const Request& req, Response* resp);
  void DoClose(const Request& req, Response* resp);
  void DoLease(const Request& req, Response* resp, bool* parked);

  // Acquire with the full protocol: grace fencing, conflict parking with
  // recall callbacks, and pre-grant durability. True = granted (lease fields
  // of `resp` filled); false = parked (caller must not respond).
  bool AcquireOrPark(const Request& req, LeaseKind kind, Response* resp);
  // Makes every mutation of `fh` durable before a grant exposes it.
  Status SyncBeforeGrant(uint64_t fh);
  void Park(const Request& req, const char* reason, std::vector<uint64_t> links = {});
  void RetryParked();
  obs::TraceContext InflightCtx(const Request& req) const;
  void SendResponse(Response resp);
  void FinishRequest(const Request& req, Response resp);
  Status CheckHandle(uint64_t fh) const;

  LfsFileSystem* fs_;
  PathFs paths_;
  SimClock* clock_;
  EventQueue* events_;
  SimTransport* transport_;
  FileServerOptions options_;
  NodeId node_;
  uint64_t epoch_;
  double grace_until_ = 0.0;
  bool alive_ = true;
  uint64_t tick_event_ = 0;
  bool tick_scheduled_ = false;

  LeaseManager leases_;
  std::map<uint64_t, Session> sessions_;     // client id -> session.
  std::vector<Parked> parked_;               // In arrival order.
  std::map<std::pair<uint64_t, uint64_t>, InflightTrace> inflight_;
  // At most one pending min-hold retry, at the earliest requested deadline.
  // One event re-runs the whole parked queue, so per-request events would
  // only multiply: each retry re-parks N waiters which would schedule N
  // more retries — quadratic event growth on a hot file.
  uint64_t hold_retry_event_ = 0;
  double hold_retry_at_ = 0.0;
  bool hold_retry_scheduled_ = false;
  std::map<uint64_t, std::string> handle_paths_;   // fh -> path (open files).
  std::map<uint64_t, uint64_t> file_mutation_seq_; // fh -> newest LFS mutation.
  uint64_t next_revoke_id_ = 1;

  uint64_t requests_received_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t revokes_sent_ = 0;
  uint64_t stale_writebacks_ = 0;
  uint64_t last_seen_synced_seq_ = 0;
};

}  // namespace logfs::serve

#endif  // LOGFS_SRC_SERVE_SERVER_H_
