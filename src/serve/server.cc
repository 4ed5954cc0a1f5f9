#include "src/serve/server.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace logfs::serve {
namespace {

// Background cadence: lease-expiry sweep, parked-grant retries, and the
// file system's own Tick (write-behind, checkpoints, cleaner).
constexpr double kTickSeconds = 1.0;
// Cached responses kept per client for duplicate suppression.
constexpr size_t kDedupWindow = 64;
// Minimum hold: a lease younger than this is never recalled — the
// conflicting acquire parks and the recall is retried at hold expiry.
// Several transport round trips long, so a grant always reaches its holder
// with no revoke chasing it. Without the quiet window two writers
// ping-ponging over one file can each void every grant they receive (a
// revoke from the previous handoff is forever in flight when the grant
// lands) and the protocol livelocks; with it, each handoff completes at
// least one operation.
constexpr double kMinHoldSeconds = 0.002;

}  // namespace

FileServer::FileServer(LfsFileSystem* fs, SimClock* clock, EventQueue* events,
                       SimTransport* transport, FileServerOptions options, NodeId node,
                       uint64_t epoch)
    : fs_(fs),
      paths_(fs),
      clock_(clock),
      events_(events),
      transport_(transport),
      options_(std::move(options)),
      node_(0),
      epoch_(epoch),
      leases_(options_.lease_seconds) {
  auto handler = [this](Message&& m) { HandleMessage(std::move(m)); };
  if (node == kFreshNode) {
    node_ = transport_->Register(handler);
  } else {
    node_ = node;
    transport_->Reattach(node_, handler);
  }
  // A first incarnation (epoch 1) starts with an empty world: no outstanding
  // leases exist, so no grace period is needed. Every restart must fence.
  grace_until_ = epoch_ > 1 ? Now() + options_.lease_seconds : 0.0;
  last_seen_synced_seq_ = fs_->synced_seq();
  tick_event_ = events_->ScheduleAfter(kTickSeconds, [this] { Tick(); });
  tick_scheduled_ = true;
}

FileServer::~FileServer() { Shutdown(); }

void FileServer::Shutdown() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  transport_->Deregister(node_);
  if (tick_scheduled_) {
    events_->Cancel(tick_event_);
    tick_scheduled_ = false;
  }
  // The min-hold retry captures `this`; it must not outlive the server.
  if (hold_retry_scheduled_) {
    events_->Cancel(hold_retry_event_);
    hold_retry_scheduled_ = false;
  }
}

void FileServer::Tick() {
  if (!alive_) {
    return;
  }
  tick_scheduled_ = false;
  leases_.ExpireDue(Now());
  // Repost outstanding recalls: the transport may have dropped the revoke
  // (or its ack). A holder mid-flush ignores the duplicate; one that already
  // surrendered the lease re-acks immediately; a dead one never answers and
  // expiry reclaims the lease below.
  for (const auto& entry : leases_.Dump(Now())) {
    if (entry.record.recall_posted) {
      Revoke revoke;
      revoke.client_id = entry.client;
      revoke.fh = entry.fh;
      revoke.revoke_id = next_revoke_id_++;
      transport_->Send(static_cast<NodeId>(entry.client), Message::MakeRevoke(revoke));
    }
  }
  RetryParked();
  // Drive the storage manager's own background work. Its Tick may
  // checkpoint, which advances the durable horizon without a client commit.
  (void)fs_->Tick();
  if (fs_->synced_seq() != last_seen_synced_seq_) {
    last_seen_synced_seq_ = fs_->synced_seq();
    if (options_.sync_hook) {
      options_.sync_hook(last_seen_synced_seq_);
    }
  }
  tick_event_ = events_->ScheduleAfter(kTickSeconds, [this] { Tick(); });
  tick_scheduled_ = true;
}

void FileServer::HandleMessage(Message&& message) {
  if (!alive_) {
    return;
  }
  switch (message.kind) {
    case Message::Kind::kRequest:
      HandleRequest(std::move(message.request));
      return;
    case Message::Kind::kRevokeAck:
      HandleRevokeAck(message.revoke_ack);
      return;
    case Message::Kind::kResponse:
    case Message::Kind::kRevoke:
      return;  // Not addressed to a server; ignore.
  }
}

void FileServer::HandleRequest(Request&& request) {
  ++requests_received_;
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& received = obs::Registry().GetCounter("logfs.serve.req.received");
    received.Increment();
  }
  Session& session = sessions_[request.client_id];
  // Duplicate suppression: a cached reply is resent verbatim; a request
  // that is parked (executed-but-unanswered) is silently absorbed — its
  // response goes out when the park resolves.
  auto cached = session.replies.find(request.request_id);
  if (cached != session.replies.end()) {
    ++duplicates_;
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& dups = obs::Registry().GetCounter("logfs.serve.req.duplicates");
      dups.Increment();
    }
    // The resend answers *this* retransmit: quote its attempt number back so
    // the client tags the winning attempt span exactly (the original reply —
    // or an earlier resend — was evidently lost).
    cached->second.attempt = request.attempt;
    if constexpr (obs::kMetricsEnabled) {
      if (request.ctx.active()) {
        obs::Tracer().RecordSpanIds("serve.dedup", "replay", Now(), Now(),
                                    request.ctx.trace_id, obs::Tracer().NextId(),
                                    request.ctx.span_id);
      }
    }
    transport_->Send(static_cast<NodeId>(request.client_id), Message::MakeResponse(cached->second));
    return;
  }
  if (std::find(session.parked_ids.begin(), session.parked_ids.end(), request.request_id) !=
      session.parked_ids.end()) {
    ++duplicates_;
    if constexpr (obs::kMetricsEnabled) {
      // Absorbed into the parked original: remember when the retransmit
      // arrived so the park span grows a "serve.dedup" child covering the
      // tail of the wait the client spent with a retransmit already parked.
      for (Parked& p : parked_) {
        if (p.request.client_id == request.client_id &&
            p.request.request_id == request.request_id) {
          if (p.ctx.active()) p.dup_arrivals.push_back(Now());
          break;
        }
      }
    }
    return;
  }
  // Anything else executes, even ids below max_request_id: with parallel
  // write-backs in flight, a dropped request can be overtaken by its
  // successors, and swallowing its retransmission would strand the client
  // forever. Every protocol op is idempotent (writes are gated by the lease
  // check), so re-executing a genuinely ancient duplicate is harmless.
  session.max_request_id = std::max(session.max_request_id, request.request_id);
  if constexpr (obs::kMetricsEnabled) {
    if (request.ctx.active()) {
      InflightTrace& inf = inflight_[{request.client_id, request.request_id}];
      inf.ctx = obs::TraceContext{request.ctx.trace_id, obs::Tracer().NextId()};
      inf.parent = request.ctx.span_id;
      inf.arrival = Now();
    }
  }
  Execute(request);
}

obs::TraceContext FileServer::InflightCtx(const Request& req) const {
  if constexpr (!obs::kMetricsEnabled) {
    (void)req;
    return {};
  }
  auto it = inflight_.find({req.client_id, req.request_id});
  return it == inflight_.end() ? obs::TraceContext{} : it->second.ctx;
}

void FileServer::Execute(const Request& request) {
  // Everything below — lease decisions, LFS op scopes, park episodes — runs
  // under the request's trace so their spans join its tree.
  obs::TraceContextScope trace_scope(InflightCtx(request));
  Response resp;
  resp.client_id = request.client_id;
  resp.request_id = request.request_id;
  resp.op = request.op;
  resp.server_epoch = epoch_;
  bool parked = false;
  switch (request.op) {
    case OpKind::kOpen:
      DoOpen(request, &resp);
      break;
    case OpKind::kRead:
      DoRead(request, &resp, &parked);
      break;
    case OpKind::kWrite:
      DoWrite(request, &resp);
      break;
    case OpKind::kCommit:
      DoCommit(request, &resp);
      break;
    case OpKind::kClose:
      DoClose(request, &resp);
      break;
    case OpKind::kGetLease:
    case OpKind::kRenew:
      DoLease(request, &resp, &parked);
      break;
    case OpKind::kRelease: {
      if (leases_.Release(request.fh, request.client_id)) {
        RetryParked();
      }
      break;
    }
  }
  if (parked) {
    return;  // Response deferred until the lease situation resolves.
  }
  FinishRequest(request, std::move(resp));
}

void FileServer::FinishRequest(const Request& req, Response resp) {
  resp.mutation_seq = fs_->mutation_seq();
  resp.durable_seq = fs_->synced_seq();
  resp.attempt = req.attempt;  // The send that triggered execution won.
  if constexpr (obs::kMetricsEnabled) {
    auto it = inflight_.find({req.client_id, req.request_id});
    if (it != inflight_.end()) {
      obs::Tracer().RecordSpanIds(
          "serve.handle", OpKindName(req.op), it->second.arrival, Now(),
          it->second.ctx.trace_id, it->second.ctx.span_id, it->second.parent,
          {}, {{"client", std::to_string(req.client_id)}});
      inflight_.erase(it);
    }
  }
  Session& session = sessions_[req.client_id];
  session.replies[req.request_id] = resp;
  while (session.replies.size() > kDedupWindow) {
    session.replies.erase(session.replies.begin());
  }
  SendResponse(std::move(resp));
}

void FileServer::SendResponse(Response resp) {
  const NodeId to = static_cast<NodeId>(resp.client_id);
  transport_->Send(to, Message::MakeResponse(std::move(resp)));
}

Status FileServer::CheckHandle(uint64_t fh) const {
  if (handle_paths_.count(fh) == 0) {
    return NotFoundError("unknown file handle");
  }
  return OkStatus();
}

void FileServer::DoOpen(const Request& req, Response* resp) {
  auto resolved = paths_.Resolve(req.path);
  InodeNum ino = 0;
  if (resolved.ok()) {
    ino = *resolved;
  } else if (resolved.status().code() == ErrorCode::kNotFound) {
    auto created = paths_.CreateFile(req.path);
    if (!created.ok()) {
      resp->code = created.status().code();
      resp->error = created.status().message();
      return;
    }
    ino = *created;
    // The create itself is a mutation a grant may expose; track it so
    // SyncBeforeGrant covers it too.
    file_mutation_seq_[ino] = fs_->mutation_seq();
    if (options_.open_hook) {
      options_.open_hook(req.path, fs_->mutation_seq());
    }
  } else {
    resp->code = resolved.status().code();
    resp->error = resolved.status().message();
    return;
  }
  auto stat = fs_->Stat(ino);
  if (!stat.ok()) {
    resp->code = stat.status().code();
    resp->error = stat.status().message();
    return;
  }
  resp->fh = ino;
  resp->size = stat->size;
  handle_paths_[ino] = req.path;
}

void FileServer::DoRead(const Request& req, Response* resp, bool* parked) {
  Status handle = CheckHandle(req.fh);
  if (!handle.ok()) {
    resp->code = handle.code();
    resp->error = handle.message();
    return;
  }
  // A read implicitly carries a read lease: acquire (or refresh) it first.
  // Failure to acquire parks the whole request behind a recall.
  if (!AcquireOrPark(req, LeaseKind::kRead, resp)) {
    *parked = true;
    return;
  }
  resp->data.resize(req.length);
  auto n = fs_->Read(req.fh, req.offset, resp->data);
  if (!n.ok()) {
    resp->code = n.status().code();
    resp->error = n.status().message();
    resp->data.clear();
    return;
  }
  resp->data.resize(*n);  // Short read at EOF.
}

void FileServer::DoWrite(const Request& req, Response* resp) {
  Status handle = CheckHandle(req.fh);
  if (!handle.ok()) {
    resp->code = handle.code();
    resp->error = handle.message();
    return;
  }
  // Writes are valid only under a live write lease. A write-back racing its
  // own lease's expiry loses: the data may already have been granted away.
  if (leases_.Held(req.fh, req.client_id, Now()) != LeaseKind::kWrite) {
    ++stale_writebacks_;
    if constexpr (obs::kMetricsEnabled) {
      static obs::Counter& stale =
          obs::Registry().GetCounter("logfs.serve.lease.stale_writebacks");
      stale.Increment();
    }
    resp->code = ErrorCode::kBusy;
    resp->error = "write lease not held (expired or revoked)";
    return;
  }
  auto written = fs_->Write(req.fh, req.offset, req.data);
  if (!written.ok()) {
    resp->code = written.status().code();
    resp->error = written.status().message();
    return;
  }
  file_mutation_seq_[req.fh] = fs_->mutation_seq();
  if (options_.write_hook) {
    options_.write_hook(handle_paths_[req.fh], req.offset, req.data, fs_->mutation_seq());
  }
}

void FileServer::DoCommit(const Request& req, Response* resp) {
  // Commit through the group-commit seam: a flush that already covered the
  // requested horizon costs nothing (logfs.sync.coalesced).
  Status synced = fs_->SyncAsOf(req.commit_seq);
  if (!synced.ok()) {
    resp->code = synced.code();
    resp->error = synced.message();
    return;
  }
  if (fs_->synced_seq() != last_seen_synced_seq_) {
    last_seen_synced_seq_ = fs_->synced_seq();
    if (options_.sync_hook) {
      options_.sync_hook(last_seen_synced_seq_);
    }
  }
}

void FileServer::DoClose(const Request& req, Response* resp) {
  (void)resp;
  // The handle table keeps the path mapping: other clients may hold the
  // file open, and fh values are stable inode numbers. Nothing to tear
  // down beyond the lease.
  if (leases_.Release(req.fh, req.client_id)) {
    RetryParked();
  }
}

void FileServer::DoLease(const Request& req, Response* resp, bool* parked) {
  Status handle = CheckHandle(req.fh);
  if (!handle.ok()) {
    resp->code = handle.code();
    resp->error = handle.message();
    return;
  }
  if (req.op == OpKind::kRenew) {
    double expires = 0.0;
    if (leases_.Renew(req.fh, req.client_id, Now(), &expires)) {
  resp->lease = leases_.Held(req.fh, req.client_id, Now());
      resp->lease_expiry = expires;
    } else {
      // Too late — at (or past) the expiry tick the lease is gone and the
      // file may already be promised to someone else. The client must go
      // back through a full acquire.
      resp->code = ErrorCode::kBusy;
      resp->error = "lease expired; re-acquire";
    }
    return;
  }
  if (!AcquireOrPark(req, req.lease, resp)) {
    *parked = true;
  }
}

bool FileServer::AcquireOrPark(const Request& req, LeaseKind kind, Response* resp) {
  if (kind == LeaseKind::kNone) {
    resp->code = ErrorCode::kInvalidArgument;
    resp->error = "lease kind required";
    return true;
  }
  // Write leases exist to accept mutations; a demoted (read-only) mount can
  // never accept them, so fail the grant cleanly instead of letting the
  // client cache writes it could never write back.
  if (kind == LeaseKind::kWrite && fs_->read_only()) {
    resp->code = ErrorCode::kReadOnly;
    resp->error = "server is read-only; write lease unavailable";
    return true;
  }
  // A holder whose own lease is under recall gets nothing new until the
  // recall resolves (ack, release, or expiry). Granting here would refresh
  // the very lease being surrendered — the client would trust a term the
  // imminent ack is about to release.
  if (leases_.RecallPosted(req.fh, req.client_id)) {
    Park(req, "recall_frozen", {leases_.HolderTrace(req.fh, req.client_id)});
    return false;
  }
  const double now = Now();
  // Writer fairness: a parked conflicting acquire acts as a barrier. Without
  // it a waiting writer starves — its revokes clear the current readers, but
  // a steady stream of *new* readers re-acquires the instant the old leases
  // fall, and every retry finds fresh conflicts (a livelock under Zipf
  // sharing). Newcomers queue behind the parked request instead; RetryParked
  // drains in arrival order, so the writer goes first. Reclaims are exempt:
  // a reclaim proves a still-valid lease from the dead incarnation, which a
  // merely parked request can never outrank. Also exempt: a holder
  // re-asking for what it already holds. A client that voided a grant (a
  // revoke crossed it in flight) recovers by re-asking, and barring that
  // re-ask strands the lease — the server thinks it is held, the holder
  // knows it is not, and at hold expiry the recall meets no state and the
  // lease rotates to the next writer, who voids for the same reason (a
  // four-way rotation observed under Zipf write sharing). The refresh
  // cannot starve the queue: the moment the parked writer's recall posts,
  // the lease freezes and no re-grant or renewal extends it.
  const LeaseKind already = leases_.Held(req.fh, req.client_id, now);
  const bool holder_refresh = already == LeaseKind::kWrite || already == kind;
  if (!req.reclaim && !holder_refresh) {
    for (const Parked& p : parked_) {
      const LeaseKind parked_kind =
          p.request.op == OpKind::kRead ? LeaseKind::kRead : p.request.lease;
      if (p.request.fh == req.fh && p.request.client_id != req.client_id &&
          (parked_kind == LeaseKind::kWrite || kind == LeaseKind::kWrite)) {
        Park(req, "barrier", {p.ctx.trace_id});
        return false;
      }
    }
  }
  if (now < grace_until_) {
    // Post-restart grace: only clients proving a still-valid lease from the
    // dead incarnation may proceed; everyone else waits out the fence.
    const bool reclaim_ok = req.reclaim && now < req.claimed_expiry;
    if (!reclaim_ok) {
      Park(req, "grace");
      return false;
    }
  }
  LeaseManager::AcquireResult result = leases_.Acquire(req.fh, req.client_id, kind, now);
  if (!result.granted) {
    // Recall every conflicting holder (once per lease term each), then park.
    // Holders inside their minimum hold are left alone for now; the parked
    // request retries when the youngest such hold expires.
    double earliest_retry = 0.0;
    bool recall_active = false;
    std::vector<uint64_t> holder_traces;
    for (uint64_t holder : result.conflicts) {
      holder_traces.push_back(leases_.HolderTrace(req.fh, holder));
      if (leases_.RecallPosted(req.fh, holder)) {
        recall_active = true;
      }
      if (!leases_.RecallPosted(req.fh, holder)) {
        const double hold_left =
            kMinHoldSeconds - (now - leases_.HeldSince(req.fh, holder));
        // The nanosecond slack absorbs double rounding: at the scheduled
        // retry instant `now - granted_at` can land a few ulps short of the
        // hold, and a residual hold of ~1e-16 would reschedule the retry at
        // a time that rounds back to `now` — an infinite same-instant loop.
        if (hold_left > 1e-9) {
          const double retry_at = now + hold_left;
          if (earliest_retry == 0.0 || retry_at < earliest_retry) {
            earliest_retry = retry_at;
          }
          continue;
        }
        leases_.MarkRecallPosted(req.fh, holder);
        recall_active = true;
        ++revokes_sent_;
        if constexpr (obs::kMetricsEnabled) {
          static obs::Counter& revokes =
              obs::Registry().GetCounter("logfs.serve.lease.revokes");
          revokes.Increment();
        }
        Revoke revoke;
        revoke.client_id = holder;
        revoke.fh = req.fh;
        revoke.revoke_id = next_revoke_id_++;
        // Ambient context = the acquirer's handle span: the holder's flush
        // trace links back to the request that forced the recall.
        revoke.ctx = obs::CurrentTraceContext();
        transport_->Send(static_cast<NodeId>(holder), Message::MakeRevoke(revoke));
      }
    }
    Park(req, recall_active ? "conflict" : "min_hold", std::move(holder_traces));
    if (earliest_retry > 0.0 &&
        (!hold_retry_scheduled_ || earliest_retry < hold_retry_at_)) {
      if (hold_retry_scheduled_) {
        events_->Cancel(hold_retry_event_);
      }
      hold_retry_at_ = earliest_retry;
      hold_retry_scheduled_ = true;
      hold_retry_event_ = events_->ScheduleAt(earliest_retry, [this] {
        hold_retry_scheduled_ = false;
        if (alive_) {
          RetryParked();
        }
      });
    }
    return false;
  }
  // Pre-grant durability: everything this lease could observe must survive
  // a server crash, or a cached copy would outlive the authoritative one.
  Status synced = SyncBeforeGrant(req.fh);
  if (!synced.ok()) {
    leases_.Release(req.fh, req.client_id);
    resp->code = synced.code();
    resp->error = synced.message();
    return true;
  }
  resp->lease = leases_.Held(req.fh, req.client_id, Now());
  resp->lease_expiry = result.expires_at;
  // Grant-time size: the one instant the client may trust it outright. While
  // the lease stays valid no one else can change it, so the client's cached
  // size stays exact without further Stats.
  if (auto stat = fs_->Stat(req.fh); stat.ok()) {
    resp->size = stat->size;
  }
  return true;
}

Status FileServer::SyncBeforeGrant(uint64_t fh) {
  auto it = file_mutation_seq_.find(fh);
  if (it == file_mutation_seq_.end()) {
    return OkStatus();
  }
  RETURN_IF_ERROR(fs_->SyncAsOf(it->second));
  if (fs_->synced_seq() != last_seen_synced_seq_) {
    last_seen_synced_seq_ = fs_->synced_seq();
    if (options_.sync_hook) {
      options_.sync_hook(last_seen_synced_seq_);
    }
  }
  return OkStatus();
}

void FileServer::Park(const Request& req, const char* reason,
                      std::vector<uint64_t> links) {
  Session& session = sessions_[req.client_id];
  session.parked_ids.push_back(req.request_id);
  Parked p;
  p.request = req;
  p.since = Now();
  if constexpr (obs::kMetricsEnabled) {
    p.ctx = InflightCtx(req);
    if (p.ctx.active()) {
      p.span_id = obs::Tracer().NextId();
      p.reason = reason;
      links.erase(std::remove(links.begin(), links.end(), uint64_t{0}), links.end());
      // Self-links happen on holder refresh (the blocker is the parker's own
      // earlier grant); drop them, the tree already contains that trace.
      links.erase(std::remove(links.begin(), links.end(), p.ctx.trace_id), links.end());
      p.links = std::move(links);
    }
  }
  parked_.push_back(std::move(p));
  if constexpr (obs::kMetricsEnabled) {
    static obs::Counter& parked = obs::Registry().GetCounter("logfs.serve.req.parked");
    parked.Increment();
  }
}

void FileServer::RetryParked() {
  if (parked_.empty()) {
    return;
  }
  // Swap out the queue: a retried request that parks again re-enters it,
  // and a grant may unblock several waiters (shared read leases) at once.
  std::vector<Parked> waiting;
  waiting.swap(parked_);
  for (Parked& p : waiting) {
    Session& session = sessions_[p.request.client_id];
    auto& ids = session.parked_ids;
    ids.erase(std::remove(ids.begin(), ids.end(), p.request.request_id), ids.end());
    if constexpr (obs::kMetricsEnabled) {
      // The park episode ends here (the retry may park again — that becomes
      // a fresh span). Links name the traces that were blocking at park
      // time; absorbed retransmits become dedup_parked children covering
      // the tail of the wait.
      if (p.ctx.active()) {
        const double unparked = Now();
        obs::Tracer().RecordSpanIds(
            "serve.park", p.reason, p.since, unparked, p.ctx.trace_id,
            p.span_id, p.ctx.span_id, p.links,
            {{"op", OpKindName(p.request.op)},
             {"fh", std::to_string(p.request.fh)}});
        for (double dup_at : p.dup_arrivals) {
          obs::Tracer().RecordSpanIds(
              "serve.dedup", "absorbed", std::max(dup_at, p.since), unparked,
              p.ctx.trace_id, obs::Tracer().NextId(), p.span_id);
        }
      }
    }
    Execute(p.request);
  }
}

void FileServer::HandleRevokeAck(const RevokeAck& ack) {
  // The ack promises the holder's dirty blocks are applied *and committed*
  // (the client writes back, commits, then acks), so releasing here cannot
  // lose anything a successor could observe. Only a release that actually
  // dropped a lease can unblock a parked request; duplicate acks (reposted
  // revokes, crossed retransmissions) skip the sweep — under a delivery
  // backlog they arrive by the thousand at one sim instant, and sweeping
  // the whole parked queue for each is quadratic host time for nothing.
  if (leases_.Release(ack.fh, ack.client_id)) {
    RetryParked();
  }
}

std::vector<FileServer::ParkedInfo> FileServer::DumpParked() const {
  std::vector<ParkedInfo> out;
  out.reserve(parked_.size());
  for (const Parked& p : parked_) {
    ParkedInfo info;
    info.client = p.request.client_id;
    info.request_id = p.request.request_id;
    info.op = p.request.op;
    info.fh = p.request.fh;
    info.want = p.request.op == OpKind::kRead ? LeaseKind::kRead : p.request.lease;
    info.since = p.since;
    out.push_back(info);
  }
  return out;
}

std::vector<FileServer::SessionInfo> FileServer::DumpSessions() const {
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [client, session] : sessions_) {
    out.push_back(SessionInfo{client, session.max_request_id, session.replies.size()});
  }
  return out;
}

}  // namespace logfs::serve
