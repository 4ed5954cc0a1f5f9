// Space-observatory bench (PR 10): where does the write bandwidth go?
//
// The paper's core claim is about bandwidth *composition* — how much of the
// disk's write throughput serves new data versus cleaning, checkpointing,
// and bookkeeping overheads as the disk fills. This bench drives the same
// volume through three workload shapes (uniform, Zipf, hot/cold) at three
// utilizations (70/80/90% of UsableBytes() live) and reports the per-source
// attribution shares from the space observatory (DESIGN.md §6j), re-checking
// the exact-sum invariant (Σ logfs.io.<source>.bytes == DiskStats bytes)
// after every configuration. Cleaning is left to Tick(), as in production;
// any error, and any exact-sum miss, exits nonzero. The last section times
// the observatory's own recording hot paths on the host clock, so the
// telemetry's cost rides in the same report as its product.
//
// Expected shape: the cleaner's byte share rises steeply with utilization
// (cost 1 + u/(1-u) + 1/(1-u) at victim utilization u), and rises *faster*
// under uniform churn than under hot/cold, where overwrites concentrate in
// a few segments that clean cheaply. Write amplification follows the same
// order.
#include <chrono>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "src/disk/memory_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/lfs_file_system.h"
#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/sim/sim_clock.h"
#include "src/workload/report.h"
#include "src/workload/serve_load.h"

namespace logfs {
namespace {

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ConfigResult {
  std::string workload;
  double target_util = 0.0;
  double measured_util = 0.0;
  bool exact_sum_ok = false;
  double write_amplification = 0.0;
  obs::IoAttribution attr;
  uint64_t segments_cleaned = 0;
  double util_mean = 0.0;
};

// One workload × utilization cell: fresh volume, fill to the target, churn
// a fixed overwrite volume with the given file-popularity shape, then read
// the attribution off the registry.
Result<ConfigResult> RunConfig(const std::string& workload, double target_util,
                               bool smoke) {
  if constexpr (obs::kMetricsEnabled) {
    obs::Registry().ResetAll();
  }
  SimClock clock;
  MemoryDisk disk(131072, &clock);  // 64 MB volume.
  LfsParams params;
  params.max_inodes = 4096;
  RETURN_IF_ERROR(LfsFileSystem::Format(&disk, params));
  ASSIGN_OR_RETURN(auto fs, LfsFileSystem::Mount(&disk, &clock, nullptr));
  PathFs paths(fs.get());
  RETURN_IF_ERROR(paths.MkdirAll("/churn").status());

  // Utilization is live bytes over UsableBytes(), the space the log can
  // hold once its reserved segments and summary overhead are set aside.
  const double usable = static_cast<double>(fs->UsableBytes());
  const uint32_t file_bytes = 32768;
  std::vector<std::byte> payload(file_bytes, std::byte{0x61});
  std::vector<std::byte> churn(file_bytes, std::byte{0x62});

  // Fill: enough files for their data to reach the target. Any error, here
  // or below, fails the cell: a volume that refuses writes below its
  // utilization ceiling is a bug, not a data point.
  const size_t nfiles = static_cast<size_t>(target_util * usable / file_bytes) + 1;
  for (size_t i = 0; i < nfiles; ++i) {
    RETURN_IF_ERROR(paths.WriteFile("/churn/f" + std::to_string(i), payload));
    RETURN_IF_ERROR(fs->Tick());
  }
  RETURN_IF_ERROR(fs->Sync());

  // Churn: overwrite in place (no net growth) so the steady state stays at
  // the target utilization while Tick()'s cleaner keeps segments clean.
  const uint64_t churn_budget = (smoke ? 4ull : 24ull) << 20;
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  ZipfSampler zipf(nfiles, 1.0);
  const size_t hot_files = nfiles / 10 + 1;
  for (uint64_t churned = 0; churned < churn_budget; churned += file_bytes) {
    size_t idx;
    if (workload == "uniform") {
      idx = static_cast<size_t>(u01(rng) * static_cast<double>(nfiles)) % nfiles;
    } else if (workload == "zipf") {
      idx = zipf.Sample(u01(rng));
    } else {  // hotcold: 90% of writes land on 10% of the files.
      idx = u01(rng) < 0.9 ? static_cast<size_t>(u01(rng) * hot_files) % hot_files
                           : hot_files + static_cast<size_t>(
                                             u01(rng) * (nfiles - hot_files)) %
                                             (nfiles - hot_files);
    }
    RETURN_IF_ERROR(paths.WriteFile("/churn/f" + std::to_string(idx), churn));
    RETURN_IF_ERROR(fs->Tick());
  }
  RETURN_IF_ERROR(fs->Sync());

  ConfigResult out;
  out.workload = workload;
  out.target_util = target_util;
  out.measured_util = static_cast<double>(fs->TotalLiveBytes()) / usable;
  out.segments_cleaned = fs->cleaner_stats().segments_cleaned;
  out.attr = obs::AttributionSnapshot();
  out.write_amplification = out.attr.write_amplification;
  const DiskStats& stats = disk.stats();
  out.exact_sum_ok =
      !obs::kMetricsEnabled ||
      (out.attr.total_bytes == stats.sectors_written * kSectorSize &&
       out.attr.total_writes == stats.write_ops);
  if constexpr (obs::kMetricsEnabled) {
    std::vector<double> utils;
    fs->CollectSegmentUtilization(&utils);
    obs::PublishUtilization(utils);
    const obs::Gauge* mean = obs::Registry().FindGauge("logfs.seg.util.mean");
    out.util_mean = mean != nullptr ? mean->Value() : 0.0;
  }
  return out;
}

// Host-clock cost of the observatory's hot paths. Synthetic records: run
// after every config so the garbage they add to the registry is harmless.
struct SelfCost {
  double record_write_ns = 0.0;
  double snapshot_ns = 0.0;
  double publish_ns = 0.0;
};

SelfCost MeasureSelfCost(bool smoke) {
  SelfCost cost;
  if constexpr (!obs::kMetricsEnabled) {
    return cost;
  }
  const int reps = smoke ? 20000 : 200000;
  double t0 = HostNow();
  for (int i = 0; i < reps; ++i) {
    obs::RecordWrite(obs::IoSource::kForegroundData, 4096);
  }
  cost.record_write_ns = (HostNow() - t0) / reps * 1e9;
  t0 = HostNow();
  for (int i = 0; i < reps / 10; ++i) {
    (void)obs::AttributionSnapshot();
  }
  cost.snapshot_ns = (HostNow() - t0) / (reps / 10) * 1e9;
  std::vector<double> utils(128, 0.5);
  t0 = HostNow();
  for (int i = 0; i < reps / 10; ++i) {
    obs::PublishUtilization(utils);
  }
  cost.publish_ns = (HostNow() - t0) / (reps / 10) * 1e9;
  return cost;
}

int RunBench(bool smoke, const std::string& out_path) {
  std::cout << "=== Space observatory: write attribution vs workload x utilization ("
            << (smoke ? "smoke" : "full") << ") ===\n\n";
  const std::vector<std::string> workloads = {"uniform", "zipf", "hotcold"};
  const std::vector<double> utils = smoke ? std::vector<double>{0.7}
                                          : std::vector<double>{0.7, 0.8, 0.9};
  std::vector<ConfigResult> results;
  bool all_exact = true;
  TablePrinter table({"workload", "target u", "measured u", "fg_data %", "cleaner %",
                      "ckpt %", "write amp", "segs cleaned", "exact-sum"});
  for (const std::string& workload : workloads) {
    for (double u : utils) {
      auto result = RunConfig(workload, u, smoke);
      if (!result.ok()) {
        std::cerr << "config " << workload << "@" << u
                  << " failed: " << result.status().ToString() << "\n";
        return 1;
      }
      const obs::IoAttribution& a = result->attr;
      auto share = [&](obs::IoSource s) {
        return a.total_bytes > 0 ? 100.0 *
                                       static_cast<double>(
                                           a.bytes[static_cast<size_t>(s)]) /
                                       static_cast<double>(a.total_bytes)
                                 : 0.0;
      };
      table.AddRow({workload, TablePrinter::Fixed(u, 2),
                    TablePrinter::Fixed(result->measured_util, 2),
                    TablePrinter::Fixed(share(obs::IoSource::kForegroundData), 1),
                    TablePrinter::Fixed(share(obs::IoSource::kCleaner), 1),
                    TablePrinter::Fixed(share(obs::IoSource::kCheckpoint), 1),
                    TablePrinter::Fixed(result->write_amplification, 2),
                    TablePrinter::Int(result->segments_cleaned),
                    result->exact_sum_ok ? "OK" : "FAIL"});
      all_exact = all_exact && result->exact_sum_ok;
      results.push_back(std::move(*result));
    }
  }
  table.Print(std::cout);
  const SelfCost cost = MeasureSelfCost(smoke);
  std::cout << "\nobservatory self-cost: " << TablePrinter::Fixed(cost.record_write_ns, 1)
            << " ns/RecordWrite, " << TablePrinter::Fixed(cost.snapshot_ns, 1)
            << " ns/AttributionSnapshot, " << TablePrinter::Fixed(cost.publish_ns, 1)
            << " ns/PublishUtilization(128 segs)\n"
            << "exact-sum invariant: " << (all_exact ? "held in every config" : "VIOLATED")
            << "\n\nExpected shape: cleaner share and write amplification rise with\n"
            << "utilization, fastest under uniform churn (no skew for the cleaner\n"
            << "to exploit), slowest under hot/cold (hot segments clean cheap).\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"space_observatory\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"metrics_enabled\": " << (obs::kMetricsEnabled ? "true" : "false") << ",\n"
      << "  \"exact_sum_all\": " << (all_exact ? "true" : "false") << ",\n"
      << "  \"self_cost_ns\": {\"record_write\": " << cost.record_write_ns
      << ", \"attribution_snapshot\": " << cost.snapshot_ns
      << ", \"publish_utilization\": " << cost.publish_ns << "},\n"
      << "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    out << "    {\"workload\": \"" << r.workload << "\", \"target_util\": " << r.target_util
        << ", \"measured_util\": " << r.measured_util
        << ", \"write_amplification\": " << r.write_amplification
        << ", \"segments_cleaned\": " << r.segments_cleaned
        << ", \"util_mean\": " << r.util_mean
        << ", \"exact_sum_ok\": " << (r.exact_sum_ok ? "true" : "false")
        << ",\n     \"bytes\": {";
    for (size_t s = 0; s < obs::kIoSourceCount; ++s) {
      out << (s == 0 ? "" : ", ") << "\""
          << obs::IoSourceName(static_cast<obs::IoSource>(s)) << "\": " << r.attr.bytes[s];
    }
    out << "},\n     \"writes\": {";
    for (size_t s = 0; s < obs::kIoSourceCount; ++s) {
      out << (s == 0 ? "" : ", ") << "\""
          << obs::IoSourceName(static_cast<obs::IoSource>(s)) << "\": "
          << r.attr.writes[s];
    }
    out << "}}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return all_exact ? 0 : 1;
}

}  // namespace
}  // namespace logfs

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_PR10.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--out PATH]\n";
      return 2;
    }
  }
  return logfs::RunBench(smoke, out_path);
}
