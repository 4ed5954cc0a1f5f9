// Workload replay: generate (or load) an office/engineering trace and
// replay the identical operation stream against both LFS and FFS testbeds,
// comparing elapsed simulated time and disk behaviour — the simulation
// stand-in for the paper's plan to put LFS "in continuous use by the Sprite
// user community".
//
// Run: ./build/examples/workload_replay [ops] [trace-file]
//   ops        number of synthetic operations (default 3000)
//   trace-file optional path to a trace in the src/workload/trace.h format;
//              overrides the synthetic generator.
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/workload/benchmarks.h"
#include "src/workload/report.h"
#include "src/workload/trace.h"

namespace {

using namespace logfs;

int Run(int argc, char** argv) {
  const int ops = argc > 1 ? std::atoi(argv[1]) : 3000;
  std::vector<TraceOp> trace;
  if (argc > 2) {
    std::ifstream file(argv[2]);
    if (!file) {
      std::cerr << "cannot open trace file " << argv[2] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto parsed = ParseTrace(buffer.str());
    if (!parsed.ok()) {
      std::cerr << "trace parse error: " << parsed.status().ToString() << "\n";
      return 1;
    }
    trace = std::move(*parsed);
    std::cout << "loaded " << trace.size() << " operations from " << argv[2] << "\n";
  } else {
    trace = GenerateOfficeTrace(ops, /*seed=*/42);
    std::cout << "generated office/engineering trace: " << trace.size()
              << " operations (seed 42)\n";
  }

  auto runs = CompareTraceReplay(trace);
  if (!runs.ok()) {
    std::cerr << "replay failed: " << runs.status().ToString() << "\n";
    return 1;
  }
  struct Row {
    const char* name;
    const TraceRun& run;
  };
  const Row rows[] = {{"LFS", runs->lfs}, {"FFS", runs->ffs}};

  TablePrinter table({"fs", "active s", "ops/s", "MB read", "MB written", "disk writes",
                      "sync writes", "seeks"});
  for (const Row& row : rows) {
    const TraceReplayResult& replay = row.run.replay;
    const DiskStats& disk = row.run.disk;
    const double active = replay.ActiveSeconds();
    table.AddRow({row.name, TablePrinter::Fixed(active, 1),
                  TablePrinter::Fixed(replay.operations / active, 1),
                  TablePrinter::Fixed(replay.bytes_read / 1048576.0, 1),
                  TablePrinter::Fixed(replay.bytes_written / 1048576.0, 1),
                  TablePrinter::Int(disk.write_ops), TablePrinter::Int(disk.sync_writes),
                  TablePrinter::Int(disk.seeks)});
  }
  table.Print(std::cout);
  const double speedup = runs->ffs.replay.ActiveSeconds() / runs->lfs.replay.ActiveSeconds();
  std::cout << "\nLFS completed the identical operation stream "
            << TablePrinter::Fixed(speedup, 2) << "x faster than FFS.\n"
            << "Note the synchronous-write and seek counts: that is Figure 1 vs\n"
            << "Figure 2, playing out over a whole workload.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
