// ServeCluster: one simulated machine room — a FileServer over an LFS on a
// simulated disk, N clients, and the lossy transport between them — plus an
// online consistency referee.
//
// Everything shares one SimClock and one EventQueue, so a whole multi-client
// run is deterministic: same seed, same interleaving, same verdict.
//
// The referee (ShadowModel) exploits the lease protocol's own claim: write
// leases are exclusive, so the order in which client-side writes apply IS
// the serialization order. The shadow applies them to an in-memory copy and
// checks every read (cached or served) byte-for-byte against it. Any stale
// cached read — a block surviving a revoke, a lease outliving its term, a
// delayed grant believed — shows up as a mismatch. Strict checking assumes
// no write is discarded (no lease allowed to expire with dirty data), which
// holds in scenarios whose think times are well under the lease term;
// crash/expiry scenarios turn it off and use end-state convergence checks
// and the crash-image oracle instead.
#ifndef LOGFS_SRC_SERVE_CLUSTER_H_
#define LOGFS_SRC_SERVE_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/disk/memory_disk.h"
#include "src/disk/recording_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/transport.h"
#include "src/sim/cpu_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_clock.h"
#include "src/util/result.h"

namespace logfs::serve {

// Byte-accurate referee for lease-serialized writes (see file comment).
class ShadowModel {
 public:
  void OnWrite(const std::string& path, uint64_t offset, std::span<const std::byte> data);
  // Returns false (and logs) on a mismatch.
  bool OnRead(const std::string& path, uint64_t offset, std::span<const std::byte> data,
              bool from_cache);

  uint64_t reads_checked() const { return reads_checked_; }
  uint64_t violation_count() const { return violation_count_; }
  const std::vector<std::string>& violations() const { return violations_; }
  const std::map<std::string, std::vector<std::byte>>& files() const { return files_; }

 private:
  std::map<std::string, std::vector<std::byte>> files_;
  uint64_t reads_checked_ = 0;
  uint64_t violation_count_ = 0;
  std::vector<std::string> violations_;  // First few, for diagnostics.
};

struct ServeClusterParams {
  ServeClusterParams() {
    lfs.max_inodes = 2048;
    lfs.clean_start_segments = 4;
    lfs.clean_stop_segments = 6;
    lfs.reserved_segments = 3;
    mount_options.roll_forward = true;
  }
  uint64_t sectors = 49152;  // 24 MB rig, same as the crash explorer's.
  double mips = 10.0;
  LfsParams lfs;
  LfsFileSystem::Options mount_options;
  TransportParams transport;
  double lease_seconds = 30.0;
  ClientOptions client;  // Hooks set here are chained after the shadow's.
  size_t clients = 2;
  // Wrap the disk in a RecordingDisk (crash-image sweeps need the journal).
  bool record_disk = false;
  // Byte-check every client read against the shadow.
  bool strict_shadow = true;
  // Forwarded to FileServerOptions (the serve crash oracle listens here).
  decltype(FileServerOptions{}.write_hook) server_write_hook;
  decltype(FileServerOptions{}.sync_hook) server_sync_hook;
  decltype(FileServerOptions{}.open_hook) server_open_hook;
};

class ServeCluster {
 public:
  static Result<std::unique_ptr<ServeCluster>> Create(ServeClusterParams params = {});

  ServeCluster(const ServeCluster&) = delete;
  ServeCluster& operator=(const ServeCluster&) = delete;

  SimClock* clock() { return clock_.get(); }
  EventQueue* events() { return events_.get(); }
  SimTransport* transport() { return transport_.get(); }
  LfsFileSystem* fs() { return fs_.get(); }
  FileServer* server() { return server_.get(); }
  size_t num_clients() const { return clients_.size(); }
  Client* client(size_t i) { return clients_[i].get(); }
  // Registers another client mid-run (post-crash readers, late joiners).
  Client* AddClient();

  // Drives the event loop. Run: until idle (or the event cap). RunFor:
  // until `seconds` of sim time pass. Settle: until every client is idle —
  // the loop the scenario drivers end on.
  size_t Run(size_t max_events = 2'000'000);
  size_t RunFor(double seconds, size_t max_events = 2'000'000);
  Status Settle(size_t max_events = 20'000'000);

  // Server crash: the in-memory world (lease table, sessions, fs caches)
  // vanishes; the disk is frozen exactly as last written — the unmount-time
  // sync a destructor would do is undone. RestartServer remounts (rolling
  // the log forward) and starts the next epoch behind a grace fence.
  void CrashServer();
  Status RestartServer();
  void CrashClient(size_t i) { clients_[i]->Crash(); }

  const ShadowModel& shadow() const { return shadow_; }
  // Journal length at the last CrashServer (RecordingDisk coordinates).
  size_t crash_journal_len() const { return crash_journal_len_; }
  RecordingDisk* recording() { return recording_.get(); }
  const std::vector<std::byte>& base_image() const { return base_image_; }
  MemoryDisk* disk() { return disk_.get(); }

 private:
  explicit ServeCluster(ServeClusterParams params);
  Status Init();
  BlockDevice* device();
  ClientOptions MakeClientOptions();
  FileServerOptions MakeServerOptions();

  ServeClusterParams params_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<CpuModel> cpu_;
  std::unique_ptr<MemoryDisk> disk_;
  std::vector<std::byte> base_image_;  // Post-format, pre-mount image.
  std::unique_ptr<RecordingDisk> recording_;
  std::unique_ptr<LfsFileSystem> fs_;
  std::unique_ptr<EventQueue> events_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<FileServer> server_;
  std::vector<std::unique_ptr<Client>> clients_;

  ShadowModel shadow_;
  NodeId server_node_ = 0;
  uint64_t server_epoch_ = 1;
  size_t crash_journal_len_ = 0;
};

}  // namespace logfs::serve

#endif  // LOGFS_SRC_SERVE_CLUSTER_H_
