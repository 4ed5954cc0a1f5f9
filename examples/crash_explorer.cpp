// Crash-state explorer walkthrough.
//
// Records the device write stream of a workload, enumerates candidate
// post-crash images (prefix, torn-write, and optionally reordered), remounts
// every one under roll-forward and checkpoint-only recovery, and prints a
// per-crash-point verdict table.
//
// Run: ./build/examples/crash_explorer [ops] [seed] [boundaries] [--reorder]
//      ./build/examples/crash_explorer --self-test   # break recovery, watch
//                                                    # the Oracle object
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>

#include "src/crashsim/explorer.h"
#include "src/workload/trace.h"

namespace {

using namespace logfs;

// One row per crash plan; the two mount-mode verdicts share the row.
void PrintTable(const ExploreReport& report) {
  std::cout << "\n  crash point                     roll-forward  checkpoint-only\n"
            << "  ------------------------------  ------------  ---------------\n";
  for (size_t i = 0; i < report.results.size();) {
    const CrashStateResult& first = report.results[i];
    std::string rf = "-", cp = "-";
    size_t j = i;
    for (; j < report.results.size() &&
           report.results[j].plan.Describe() == first.plan.Describe();
         ++j) {
      std::string& cell = report.results[j].roll_forward ? rf : cp;
      cell = report.results[j].verdict.ok()
                 ? "ok"
                 : "FAIL(" + std::to_string(report.results[j].verdict.violations.size()) +
                       ")";
    }
    std::cout << "  " << std::left << std::setw(30) << first.plan.Describe() << "  "
              << std::setw(12) << rf << "  " << cp << "\n";
    i = j;
  }
}

void PrintViolations(const ExploreReport& report, size_t limit) {
  size_t shown = 0;
  for (const CrashStateResult& result : report.results) {
    for (const std::string& violation : result.verdict.violations) {
      if (shown++ == limit) {
        std::cout << "  ...\n";
        return;
      }
      std::cout << "  " << result.plan.Describe()
                << (result.roll_forward ? " [roll-forward] " : " [checkpoint-only] ")
                << violation << "\n";
    }
  }
}

int Explore(int ops, uint64_t seed, size_t boundaries, bool reorder, bool self_test) {
  std::vector<TraceOp> workload = GenerateCrashTrace(ops, seed);
  CrashEnumerationBudget budget;
  budget.max_boundaries = boundaries;
  budget.reorder_within_epoch = reorder;
  ExploreRigParams rig;
  if (self_test) {
    // Deliberately weaken recovery: roll-forward swallows segment summaries
    // without validating their CRC, so a torn partial segment whose summary
    // block landed — but whose content did not — gets replayed as garbage.
    // Checkpoint-only mounts read no summaries and stay correct.
    rig.mount_options.unsafe_skip_rollforward_crc = true;
    budget.torn_variants = {8};
    std::cout << "self-test: summary-CRC validation disabled during roll-forward\n";
  }

  std::cout << "workload: " << workload.size() << " ops (seed " << seed << ")\n";
  auto report = ExploreCrashStates(workload, budget, rig);
  if (!report.ok()) {
    std::cerr << "exploration failed: " << report.status().ToString() << "\n";
    return 1;
  }
  PrintTable(*report);
  std::cout << "\n" << report->Summary() << "\n";
  if (report->failed_states > 0) {
    std::cout << "violations:\n";
    PrintViolations(*report, 10);
  }
  if (self_test) {
    // The broken build MUST fail under roll-forward: a clean sweep there
    // means the explorer cannot see the very bug class it exists for. It
    // must not fail under checkpoint-only recovery, which reads no
    // summaries: a failure there is a real recovery bug.
    size_t failed[2] = {0, 0};  // Indexed by roll_forward.
    for (const CrashStateResult& result : report->results) {
      failed[result.roll_forward] += !result.verdict.ok();
    }
    if (failed[false] > 0) {
      std::cout << "self-test FAILED: checkpoint-only recovery failed too\n";
      return 1;
    }
    std::cout << (failed[true] > 0 ? "self-test passed: the Oracle caught the broken recovery\n"
                                   : "self-test FAILED: broken recovery went unnoticed\n");
    return failed[true] > 0 ? 0 : 1;
  }
  return report->ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int ops = 25;
  uint64_t seed = 42;
  size_t boundaries = 80;
  bool reorder = false;
  bool self_test = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reorder") {
      reorder = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (positional == 0) {
      ops = std::atoi(arg.c_str());
      ++positional;
    } else if (positional == 1) {
      seed = std::strtoull(arg.c_str(), nullptr, 10);
      ++positional;
    } else {
      boundaries = std::strtoull(arg.c_str(), nullptr, 10);
    }
  }
  return Explore(ops, seed, boundaries, reorder, self_test);
}
