#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <cmath>

namespace perfbench {

const char* LatClassName(LatClass c) {
  switch (c) {
    case LatClass::kWrite: return "write";
    case LatClass::kRead: return "read";
    case LatClass::kFsync: return "fsync";
    case LatClass::kMeta: return "meta";
    case LatClass::kCount: break;
  }
  return "unknown";
}

namespace {

double NearestRank(std::vector<double>& values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  const size_t n = values_.size();
  const size_t slices = n >= 5000 ? 5 : (n >= 3000 ? 3 : 1);
  std::vector<std::pair<int64_t, double>> by_time = values_;
  std::sort(by_time.begin(), by_time.end());
  std::vector<double> per_slice;
  std::vector<double> slice;
  for (size_t j = 0; j < slices; ++j) {
    slice.clear();
    for (size_t i = j * n / slices; i < (j + 1) * n / slices; ++i) {
      slice.push_back(by_time[i].second);
    }
    per_slice.push_back(NearestRank(slice, p));
  }
  return NearestRank(per_slice, 0.5);
}

double Samples::TailMean(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted;
  sorted.reserve(values_.size());
  for (const auto& [t, v] : values_) sorted.push_back(v);
  std::sort(sorted.begin(), sorted.end());
  const size_t first = std::min(sorted.size() - 1,
                                static_cast<size_t>(p * static_cast<double>(sorted.size())));
  double sum = 0.0;
  for (size_t i = first; i < sorted.size(); ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - first);
}

void RunReport::Problem(const std::string& what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

void RunReport::OpFailed(const logfs::Status& status, const char* op) {
  ++failed;
  ++failures_by_code[std::string(logfs::ErrorCodeName(status.code()))];
  if (problems.size() < 8) problems.push_back(std::string(op) + ": " + status.ToString());
}

logfs::DiskStats DiskDelta(const logfs::DiskStats& a, const logfs::DiskStats& b) {
  logfs::DiskStats d;
  d.read_ops = a.read_ops - b.read_ops;
  d.write_ops = a.write_ops - b.write_ops;
  d.sectors_read = a.sectors_read - b.sectors_read;
  d.sectors_written = a.sectors_written - b.sectors_written;
  d.seeks = a.seeks - b.seeks;
  d.sequential_ops = a.sequential_ops - b.sequential_ops;
  d.sync_writes = a.sync_writes - b.sync_writes;
  d.busy_seconds = a.busy_seconds - b.busy_seconds;
  d.seek_seconds = a.seek_seconds - b.seek_seconds;
  return d;
}

void FillBlock(uint64_t file, uint64_t block, uint64_t version, std::span<std::byte> out) {
  uint64_t x = (file + 1) * 0x9E3779B97F4A7C15ull ^ (block + 1) * 0xBF58476D1CE4E5B9ull ^
               (version + 1) * 0x94D049BB133111EBull;
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(out.data() + i, &z, 8);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::byte>(x >> (8 * (i % 8)));
}

void FillFile(uint64_t file, uint64_t version, std::span<std::byte> out) {
  constexpr size_t kBlock = 4096;
  for (size_t off = 0, b = 0; off < out.size(); off += kBlock, ++b) {
    FillBlock(file, b, version, out.subspan(off, std::min(kBlock, out.size() - off)));
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

}  // namespace perfbench
