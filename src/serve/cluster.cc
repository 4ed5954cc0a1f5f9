#include "src/serve/cluster.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace logfs::serve {

// ---------------------------------------------------------------------------
// ShadowModel

void ShadowModel::OnWrite(const std::string& path, uint64_t offset,
                          std::span<const std::byte> data) {
  std::vector<std::byte>& f = files_[path];
  if (f.size() < offset + data.size()) {
    f.resize(offset + data.size(), std::byte{0});
  }
  std::copy(data.begin(), data.end(), f.begin() + static_cast<ptrdiff_t>(offset));
}

bool ShadowModel::OnRead(const std::string& path, uint64_t offset,
                         std::span<const std::byte> data, bool from_cache) {
  ++reads_checked_;
  static const std::vector<std::byte> kEmpty;
  auto it = files_.find(path);
  const std::vector<std::byte>& f = it == files_.end() ? kEmpty : it->second;
  for (size_t i = 0; i < data.size(); ++i) {
    const uint64_t pos = offset + i;
    const std::byte expect = pos < f.size() ? f[pos] : std::byte{0};
    if (data[i] != expect) {
      ++violation_count_;
      if (violations_.size() < 16) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "stale read: %s@%llu expected 0x%02x got 0x%02x (%s)", path.c_str(),
                      static_cast<unsigned long long>(pos), std::to_integer<unsigned>(expect),
                      std::to_integer<unsigned>(data[i]), from_cache ? "cached" : "served");
        violations_.emplace_back(buf);
      }
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// ServeCluster

ServeCluster::ServeCluster(ServeClusterParams params) : params_(std::move(params)) {}

Result<std::unique_ptr<ServeCluster>> ServeCluster::Create(ServeClusterParams params) {
  std::unique_ptr<ServeCluster> cluster(new ServeCluster(std::move(params)));
  RETURN_IF_ERROR(cluster->Init());
  return cluster;
}

BlockDevice* ServeCluster::device() {
  return recording_ ? static_cast<BlockDevice*>(recording_.get())
                    : static_cast<BlockDevice*>(disk_.get());
}

Status ServeCluster::Init() {
  clock_ = std::make_unique<SimClock>();
  cpu_ = std::make_unique<CpuModel>(clock_.get(), params_.mips);
  disk_ = std::make_unique<MemoryDisk>(params_.sectors, clock_.get());
  RETURN_IF_ERROR(LfsFileSystem::Format(disk_.get(), params_.lfs));
  if (params_.record_disk) {
    base_image_.assign(disk_->RawImage().begin(), disk_->RawImage().end());
    recording_ = std::make_unique<RecordingDisk>(disk_.get());
  }
  ASSIGN_OR_RETURN(auto fs, LfsFileSystem::Mount(device(), clock_.get(), cpu_.get(),
                                                 params_.mount_options));
  fs_ = std::move(fs);
  events_ = std::make_unique<EventQueue>(clock_.get());
  transport_ = std::make_unique<SimTransport>(clock_.get(), events_.get(), params_.transport);
  server_ = std::make_unique<FileServer>(fs_.get(), clock_.get(), events_.get(),
                                         transport_.get(), MakeServerOptions());
  server_node_ = server_->node();
  server_epoch_ = server_->epoch();
  for (size_t i = 0; i < params_.clients; ++i) {
    AddClient();
  }
  return OkStatus();
}

FileServerOptions ServeCluster::MakeServerOptions() {
  FileServerOptions so;
  so.lease_seconds = params_.lease_seconds;
  so.write_hook = params_.server_write_hook;
  so.sync_hook = params_.server_sync_hook;
  so.open_hook = params_.server_open_hook;
  return so;
}

Client* ServeCluster::AddClient() {
  clients_.push_back(std::make_unique<Client>(clock_.get(), events_.get(), transport_.get(),
                                              server_node_, MakeClientOptions()));
  return clients_.back().get();
}

ClientOptions ServeCluster::MakeClientOptions() {
  ClientOptions o = params_.client;
  auto user_write = params_.client.write_hook;
  auto user_read = params_.client.read_hook;
  const bool strict = params_.strict_shadow;
  // The shadow always tracks writes (they define the serialization order);
  // read verification is what strict mode toggles.
  o.write_hook = [this, user_write](const std::string& path, uint64_t offset,
                                    std::span<const std::byte> data) {
    shadow_.OnWrite(path, offset, data);
    if (user_write) {
      user_write(path, offset, data);
    }
  };
  o.read_hook = [this, strict, user_read](const std::string& path, uint64_t offset,
                                          std::span<const std::byte> data, bool from_cache) {
    if (strict) {
      shadow_.OnRead(path, offset, data, from_cache);
    }
    if (user_read) {
      user_read(path, offset, data, from_cache);
    }
  };
  return o;
}

size_t ServeCluster::Run(size_t max_events) { return events_->RunUntilIdle(max_events); }

size_t ServeCluster::RunFor(double seconds, size_t max_events) {
  const double deadline = clock_->Now() + seconds;
  const size_t ran = events_->RunUntil(deadline, max_events);
  if (clock_->Now() < deadline) {
    clock_->AdvanceTo(deadline);
  }
  return ran;
}

Status ServeCluster::Settle(size_t max_events) {
  auto any_busy = [this] {
    for (const auto& c : clients_) {
      if (!c->crashed() && c->busy()) {
        return true;
      }
    }
    return false;
  };
  size_t ran = 0;
  while (any_busy()) {
    if (ran >= max_events) {
      return BusyError("cluster did not settle within the event budget");
    }
    if (events_->empty()) {
      return BusyError("clients busy but no events pending (protocol stall)");
    }
    events_->RunOne();
    ++ran;
  }
  return OkStatus();
}

void ServeCluster::CrashServer() {
  if (!server_) {
    return;
  }
  server_node_ = server_->node();
  server_epoch_ = server_->epoch();
  server_->Shutdown();
  server_.reset();
  // Freeze the disk exactly as the dead incarnation last left it. The LFS
  // destructor syncs on the way out — an orderly unmount a crash would never
  // get — so snapshot first and put the crash-instant bytes back after.
  std::vector<std::byte> frozen(disk_->RawImage().begin(), disk_->RawImage().end());
  crash_journal_len_ = recording_ ? recording_->write_count() : 0;
  fs_.reset();
  auto img = disk_->MutableRawImage();
  std::copy(frozen.begin(), frozen.end(), img.begin());
}

Status ServeCluster::RestartServer() {
  if (server_) {
    return BusyError("server already running");
  }
  ASSIGN_OR_RETURN(auto fs, LfsFileSystem::Mount(device(), clock_.get(), cpu_.get(),
                                                 params_.mount_options));
  fs_ = std::move(fs);
  server_ = std::make_unique<FileServer>(fs_.get(), clock_.get(), events_.get(),
                                         transport_.get(), MakeServerOptions(),
                                         server_node_, server_epoch_ + 1);
  server_epoch_ = server_->epoch();
  return OkStatus();
}

}  // namespace logfs::serve
