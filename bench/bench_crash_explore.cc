// Crash-state exploration throughput: how many candidate post-crash images
// the explorer can materialize, remount, and judge per second, and how the
// state count scales with workload length.
//
// Not a paper figure — this is tooling overhead measurement: exploration
// cost decides how large a workload the crash suite can sweep in CI.
#include <chrono>
#include <iostream>

#include "src/crashsim/explorer.h"
#include "src/workload/report.h"
#include "src/workload/trace.h"

namespace logfs {
namespace {

// Explores one workload under a boundary cap (0 = every boundary) and adds
// its row; false on an infrastructure failure or a violation.
bool ExploreRow(int ops, size_t boundaries, TablePrinter* table) {
  std::vector<TraceOp> workload = GenerateCrashTrace(ops, /*seed=*/7);
  CrashEnumerationBudget budget;
  budget.max_boundaries = boundaries;
  const auto start = std::chrono::steady_clock::now();
  auto report = ExploreCrashStates(workload, budget);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!report.ok()) {
    std::cerr << "exploration failed at " << ops << " ops: " << report.status().ToString()
              << "\n";
    return false;
  }
  table->AddRow({TablePrinter::Int(static_cast<uint64_t>(workload.size())),
                 boundaries == 0 ? "every" : TablePrinter::Int(boundaries),
                 TablePrinter::Int(report->journal_writes),
                 TablePrinter::Int(report->states_checked),
                 TablePrinter::Int(report->violations), TablePrinter::Fixed(seconds, 2),
                 TablePrinter::Fixed(report->states_checked / seconds, 0)});
  if (!report->ok()) {
    std::cerr << "unexpected invariant violations — run the crashsim tests\n";
    return false;
  }
  return true;
}

int RunBench() {
  std::cout << "=== Crash-state exploration throughput ===\n";
  TablePrinter table({"workload ops", "boundaries", "journal writes", "states", "violations",
                      "seconds", "states/s"});
  // The 80-boundary cap the crash suites used to sample under (it strides
  // only the 160-op journal), then every boundary.
  for (size_t boundaries : {80, 0}) {
    for (int ops : {10, 20, 40, 160}) {
      if (!ExploreRow(ops, boundaries, &table)) {
        return 1;
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\nEach state is a copy-on-write image (the landed journal prefix plus\n"
            << "the plan's torn or dropped sectors) + remount + fsck + durability\n"
            << "audit under two recovery modes; cost grows with the journal\n"
            << "(longer roll-forward scans, more live data to check).\n";
  return 0;
}

}  // namespace
}  // namespace logfs

int main() { return logfs::RunBench(); }
