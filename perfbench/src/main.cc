// logfs_perfbench: runs one benchmark workload and prints its metrics.
//
//   logfs_perfbench --workload smallfile|churn|shard_mt|serve_zipf
//                   --seed N --seconds S --trace 0|1
//                   [--count-ops N] [--spans-out PATH]
//
// --trace 0 runs the workload once with span recording off and reports the
// end-to-end metrics. --trace 1 runs it twice, untraced then traced, for
// S/2 seconds each, and reports the per-layer metrics (obs.trace_overhead is
// the ratio of the two passes' ops_s). Output: a human-readable report, then
// one line of provenance JSON, then one line of result JSON
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only when
// every output check passed.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void RunWorkload(const RunConfig& cfg, RunReport* report) {
  if (cfg.workload == "smallfile") {
    RunSmallfile(cfg, report);
  } else if (cfg.workload == "churn") {
    RunChurn(cfg, report);
  } else if (cfg.workload == "shard_mt") {
    RunShardMt(cfg, report);
  } else {
    RunServeZipf(cfg, report);
  }
}

double OpsPerSecond(const RunReport& r) {
  return r.measured_s > 0 ? static_cast<double>(r.ops) / r.measured_s : 0.0;
}

// The end-to-end metrics of an untraced pass, in BENCHMARK.json order.
std::vector<Metric> EndToEnd(RunReport& r) {
  std::vector<Metric> m;
  m.push_back({"setup_s", r.setup_s, "s"});
  m.push_back({"ops_s", OpsPerSecond(r), "ops/s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  m.push_back({"write_amp",
               r.user_bytes > 0 ? static_cast<double>(r.device_bytes) /
                                      static_cast<double>(r.user_bytes)
                                : 0.0,
               "ratio"});
  m.push_back({"sim_ops_s",
               r.sim_seconds > 0 ? static_cast<double>(r.count_ops) / r.sim_seconds : 0.0,
               "ops/sim-s"});
  m.push_back({"sim_tail_ms", r.sim_ms.TailMean(0.95), "ms", r.sim_ms.size()});
  return m;
}

// Host latency percentiles of each op class. They are printed in the report
// but are not result metrics: on a shared virtual machine they drift with
// the host by more than any useful bound (see perfbench/README.md).
std::vector<Metric> HostLatencies(const RunReport& r) {
  std::vector<Metric> m;
  for (LatClass c : {LatClass::kWrite, LatClass::kRead, LatClass::kFsync, LatClass::kMeta}) {
    const Samples& s = r.host_us[static_cast<size_t>(c)];
    const std::string name = LatClassName(c);
    m.push_back({name + "_p50_us", s.Percentile(0.50), "us", s.size()});
    m.push_back({name + "_p99_us", s.Percentile(0.99), "us", s.size()});
  }
  return m;
}

void PrintProblems(const RunReport& r) {
  for (const std::string& p : r.problems) std::cout << "  problem: " << p << "\n";
  for (const auto& [code, n] : r.failures_by_code) {
    std::cout << "  failed ops with " << code << ": " << n << "\n";
  }
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--count-ops" && has_value) {
      cfg.count_ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--spans-out" && has_value) {
      cfg.spans_out = argv[++i];
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return 2;
    }
  }
  static const std::set<std::string> kWorkloads = {"smallfile", "churn", "shard_mt",
                                                   "serve_zipf"};
  if (!have_workload || kWorkloads.count(cfg.workload) == 0 || !(cfg.seconds > 0)) {
    std::cerr << "usage: logfs_perfbench --workload smallfile|churn|shard_mt|serve_zipf"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  logfs::obs::SetTracingEnabled(false);

  std::vector<Metric> metrics;
  RunReport main_report;
  RunReport untraced;  // --trace 1 only
  const bool traced = cfg.trace;
  if (!traced) {
    RunWorkload(cfg, &main_report);
    metrics = EndToEnd(main_report);
  } else {
    RunConfig pass = cfg;
    pass.seconds = cfg.seconds / 2;
    pass.setup_reps = 1;
    pass.trace = false;
    RunWorkload(pass, &untraced);
    pass.trace = true;
    ClearSpans();
    RunWorkload(pass, &main_report);
    if (!cfg.spans_out.empty() && !WriteSpansCsv(cfg.spans_out)) {
      std::cerr << "cannot write " << cfg.spans_out << "\n";
    }
    const double base = OpsPerSecond(untraced);
    main_report.layer.push_back(
        {"obs.trace_overhead", base > 0 ? OpsPerSecond(main_report) / base : 0.0, "ratio"});
    // Every per-layer metric is reported; those a workload lacks read 0.
    std::map<std::string, Metric> by_name;
    for (const Metric& m : main_report.layer) by_name[m.name] = m;
    for (const auto& [name, unit] : PerLayerMetricList()) {
      auto it = by_name.find(name);
      metrics.push_back(it != by_name.end() ? it->second : Metric{name, 0.0, unit});
    }
  }

  const bool correct = main_report.correct && untraced.correct;
  const uint64_t attempted = main_report.attempted + untraced.attempted;
  const uint64_t failed = main_report.failed + untraced.failed;

  std::cout << "workload " << cfg.workload << " seed " << cfg.seed << " seconds " << cfg.seconds
            << " trace " << (traced ? 1 : 0) << "\n";
  std::cout << "  ops " << main_report.ops << " in " << main_report.measured_s
            << " s; count window " << main_report.count_ops << " ops, "
            << main_report.sim_seconds << " sim-s\n";
  std::cout << "  error_rate " << Num(attempted > 0 ? static_cast<double>(failed) / attempted : 0)
            << " ratio (" << failed << " of " << attempted << " ops)\n";
  PrintProblems(untraced);
  PrintProblems(main_report);
  auto print = [](const std::vector<Metric>& list) {
    for (const Metric& m : list) {
      std::cout << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(16)
                << Num(m.value) << " " << m.unit;
      if (m.samples > 0) std::cout << "  (n=" << m.samples << ")";
      std::cout << "\n";
    }
  };
  print(metrics);
  std::cout << "  host latency (reported, not bounded):\n";
  print(HostLatencies(main_report));

  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": " << Quote(cfg.workload) << ", \"seed\": " << cfg.seed
       << ", \"seconds\": " << Num(cfg.seconds) << ", \"trace\": " << (traced ? 1 : 0)
       << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << Quote(PERFBENCH_CXX_FLAGS)
       << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
       << ", \"logfs_metrics\": " << (logfs::obs::kMetricsEnabled ? "\"ON\"" : "\"OFF\"")
       << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ", \"ops\": " << main_report.ops << ", \"measured_s\": " << Num(main_report.measured_s)
       << ", \"count_ops\": " << main_report.count_ops
       << ", \"error_rate\": " << Num(attempted > 0 ? static_cast<double>(failed) / attempted : 0)
       << ", \"samples\": {";
  for (size_t c = 0; c < kLatClassCount; ++c) {
    prov << Quote(LatClassName(static_cast<LatClass>(c))) << ": "
         << main_report.host_us[c].size() << ", ";
  }
  prov << "\"sim\": " << main_report.sim_ms.size() << "}}}";
  std::cout << prov.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    result << (i ? ", " : "") << Quote(metrics[i].name) << ": {\"value\": "
           << Num(metrics[i].value) << ", \"unit\": " << Quote(metrics[i].unit) << "}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
