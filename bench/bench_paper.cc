// Prints every table of EXPERIMENTS.md: the paper's Section 5 figures, the
// Section 3.1 measurement, the ablations and the extensions, all in
// simulated time on the Section 5 testbed. Each section calls its
// experiment function in src/workload/benchmarks.h at full scale;
// tests/paper_shapes_test.cc asserts the same shapes (`ctest -L paper`).
//
// Usage: bench_paper [section...]
//   With no section, runs them all in EXPERIMENTS.md order. Exits 1 when a
//   run fails or when Figures 1-2's or Figure 5's shape check fails, and 2
//   on an unknown section name.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/workload/benchmarks.h"
#include "src/workload/report.h"

namespace logfs {
namespace {

// Each section prints its tables and returns whether its shape check (if
// it has one) passed.

// Figures 1 & 2: the disk-access pattern of small-file creation. The paper's
// example creates dir1/file1 and dir2/file2 (one data block each), then lets
// delayed write-back complete. Under BSD FFS this costs 8 scattered writes,
// half of them synchronous (Figure 1); under LFS all the modified blocks go
// out in a single sequential asynchronous transfer (Figure 2).
Result<bool> Fig12() {
  std::cout << "=== Figures 1 & 2: disk writes for creating dir1/file1 and dir2/file2 ===\n\n";
  ASSIGN_OR_RETURN(CreatePattern ffs, RunCreatePattern(/*lfs=*/false));
  ASSIGN_OR_RETURN(CreatePattern lfs, RunCreatePattern(/*lfs=*/true));
  std::cout << "FFS (Figure 1) writes:\n";
  for (const auto& line : ffs.trace) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "\nLFS (Figure 2) writes:\n";
  for (const auto& line : lfs.trace) {
    std::cout << "  " << line << "\n";
  }

  TablePrinter table({"metric", "FFS", "LFS", "paper FFS", "paper LFS"});
  table.AddRow({"write requests", TablePrinter::Int(ffs.writes), TablePrinter::Int(lfs.writes),
                "8", "1"});
  table.AddRow({"synchronous", TablePrinter::Int(ffs.sync_writes),
                TablePrinter::Int(lfs.sync_writes), "4", "0"});
  table.AddRow({"non-sequential", TablePrinter::Int(ffs.non_sequential),
                TablePrinter::Int(lfs.non_sequential), "8", "1"});
  std::cout << "\n";
  table.Print(std::cout);
  const bool shape_ok =
      ffs.sync_writes >= 4 && lfs.sync_writes == 0 && lfs.writes <= 2 && ffs.writes >= 6;
  std::cout << "\nShape check: " << (shape_ok ? "PASS" : "FAIL")
            << " (FFS: many small scattered + synchronous; LFS: one large sequential "
               "asynchronous transfer)\n";
  return shape_ok;
}

// Section 3.1: "A .9-MIPS DEC MicroVaxII using the BSD file system can
// create and delete an empty file in 100 milliseconds. A 14-MIPS DEC
// DecStation 3100 using the same file system can create and delete an empty
// file in 80 milliseconds." FFS latency stays nearly flat in CPU speed
// (synchronous disk I/O); LFS latency shrinks roughly linearly with it.
Result<bool> Cpu() {
  std::cout << "=== Section 3.1: create+delete latency vs CPU MIPS ===\n";
  const std::vector<double> mips = {0.9, 2.0, 5.0, 14.0, 50.0};
  ASSIGN_OR_RETURN(std::vector<FsPair> points, RunCpuScaling(mips));
  TablePrinter table({"MIPS", "FFS ms/pair", "LFS ms/pair", "FFS speedup", "LFS speedup"});
  for (size_t i = 0; i < points.size(); ++i) {
    table.AddRow({TablePrinter::Fixed(mips[i], 1), TablePrinter::Fixed(points[i].ffs * 1e3, 2),
                  TablePrinter::Fixed(points[i].lfs * 1e3, 2),
                  TablePrinter::Fixed(points[0].ffs / points[i].ffs, 2) + "x",
                  TablePrinter::Fixed(points[0].lfs / points[i].lfs, 2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: 0.9 -> 14 MIPS gave BSD FFS only a 1.25x speedup\n"
               "(100 ms -> 80 ms) because creates/deletes wait on synchronous disk\n"
               "I/O. LFS latency should scale nearly linearly with CPU speed.\n";
  return true;
}

// Figure 3 (Section 5.1): 10000 1 KB and 1000 10 KB files created, read back
// in creation order after a cache flush, and deleted.
Result<bool> Fig3() {
  std::cout << "=== Figure 3: small-file I/O (files/sec, simulated Sun-4/260 + WREN IV) ===\n";
  TablePrinter table({"files x size", "phase", "LFS files/s", "FFS files/s", "LFS/FFS"});
  for (auto [num_files, file_size] : {std::pair<int, size_t>{10000, 1024}, {1000, 10240}}) {
    SmallFileParams params;
    params.num_files = num_files;
    params.file_size = file_size;
    ASSIGN_OR_RETURN(PhaseComparison phases, CompareSmallFile(params));
    const std::string label =
        std::to_string(num_files) + " x " + std::to_string(file_size / 1024) + "KB";
    for (size_t phase = 0; phase < phases.lfs.size(); ++phase) {
      const double lfs_rate = phases.lfs[phase].OpsPerSecond();
      const double ffs_rate = phases.ffs[phase].OpsPerSecond();
      table.AddRow({label, phases.lfs[phase].name, TablePrinter::Fixed(lfs_rate, 1),
                    TablePrinter::Fixed(ffs_rate, 1),
                    TablePrinter::Fixed(ffs_rate > 0 ? lfs_rate / ffs_rate : 0.0, 1) + "x"});
    }
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference (Sun-4/260, WREN IV): LFS creates/deletes about an\n"
               "order of magnitude faster than SunOS FFS; reads match or exceed it.\n";
  return true;
}

// Figure 4 (Section 5.2): a 100 MB file written sequentially, read
// sequentially, written randomly, read randomly and reread sequentially, in
// 8 KB requests. Every random write touches a distinct slot, where the
// paper's repeated some (which let LFS beat its own sequential rate).
Result<bool> Fig4() {
  std::cout << "=== Figure 4: large-file I/O (KB/s, 100 MB file, 8 KB requests) ===\n";
  ASSIGN_OR_RETURN(PhaseComparison phases, CompareLargeFile(LargeFileParams{}));
  TablePrinter table({"phase", "LFS KB/s", "FFS KB/s", "LFS/FFS"});
  for (size_t phase = 0; phase < phases.lfs.size(); ++phase) {
    const double lfs_rate = phases.lfs[phase].KBytesPerSecond();
    const double ffs_rate = phases.ffs[phase].KBytesPerSecond();
    table.AddRow({phases.lfs[phase].name, TablePrinter::Fixed(lfs_rate, 0),
                  TablePrinter::Fixed(ffs_rate, 0),
                  TablePrinter::Fixed(ffs_rate > 0 ? lfs_rate / ffs_rate : 0, 2) + "x"});
  }
  table.Print(std::cout);
  std::cout << "\nDisk max bandwidth: 1300 KB/s (WREN IV).\n"
            << "Expected shape: LFS ~= FFS on seq write/read and rand read; LFS >> FFS\n"
            << "on rand write; FFS > LFS on seq reread after random writes.\n";
  return true;
}

// Figure 5 (Section 5.3): the net rate at which the cleaner generates clean
// segments, against the utilization of its victims.
Result<bool> Fig5() {
  std::cout << "=== Figure 5: segment cleaning rate vs utilization ===\n";
  ASSIGN_OR_RETURN(
      std::vector<CleaningRateResult> results,
      RunCleaningSweep({0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}, 300ull << 20));
  TablePrinter table({"target u", "measured u", "segs cleaned", "clean KB/s"});
  bool monotone = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const CleaningRateResult& result = results[i];
    table.AddRow({TablePrinter::Fixed(result.utilization_target, 2),
                  TablePrinter::Fixed(result.utilization_measured, 2),
                  TablePrinter::Int(result.segments_cleaned),
                  TablePrinter::Fixed(result.CleanKBytesPerSecond(), 0)});
    // Allow small noise; flag real inversions.
    if (i > 0 &&
        result.CleanKBytesPerSecond() > results[i - 1].CleanKBytesPerSecond() * 1.15) {
      monotone = false;
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: monotonically decreasing clean-rate as utilization\n"
            << "rises; cleaning highly utilized segments is expensive (every live\n"
            << "block is read and rewritten), empty segments are nearly free.\n"
            << (monotone ? "Shape check: PASS (monotone within noise)\n"
                         : "Shape check: FAIL (non-monotone point observed)\n");
  return monotone;
}

// ABL1, Section 4.3: "What really matters is that the log is written in
// large enough pieces to support I/O at near-maximum disk bandwidth."
Result<bool> Abl1() {
  std::cout << "=== Ablation ABL1 part 1: raw transfers into alternating "
               "segment-sized holes ===\n";
  const std::vector<uint32_t> raw_kb = {64, 128, 256, 512, 1024, 2048, 4096};
  ASSIGN_OR_RETURN(std::vector<double> mb_s, RunScatteredSegmentWrites(raw_kb));
  TablePrinter raw({"segment", "effective MB/s", "% of disk max"});
  for (size_t i = 0; i < raw_kb.size(); ++i) {
    raw.AddRow({std::to_string(raw_kb[i]) + " KB", TablePrinter::Fixed(mb_s[i], 2),
                TablePrinter::Fixed(100.0 * mb_s[i] / (1.3e6 / 1048576.0), 1) + "%"});
  }
  raw.Print(std::cout);
  std::cout << "\nExpected shape: with one positioning delay (short seek + half a\n"
            << "rotation, ~11 ms) per transfer, small segments lose a sizeable\n"
            << "bandwidth fraction; >= 1 MB segments (the paper's choice) exceed\n"
            << "98% of the disk maximum — the seek is amortized.\n\n";

  std::cout << "=== Ablation ABL1 part 2: full-LFS small-file flush cost per segment "
               "size ===\n";
  const std::vector<uint32_t> fresh_kb = {64, 256, 1024, 4096};
  ASSIGN_OR_RETURN(std::vector<SegmentSizePoint> fresh, RunSegmentSizeSweep(fresh_kb));
  TablePrinter table({"segment", "create files/s", "disk s per flushed MB"});
  for (size_t i = 0; i < fresh_kb.size(); ++i) {
    table.AddRow({std::to_string(fresh_kb[i]) + " KB",
                  TablePrinter::Fixed(fresh[i].creates_per_s, 1),
                  TablePrinter::Fixed(fresh[i].disk_seconds_per_mb, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nOn a fresh (contiguous) log the segment size barely matters — the\n"
            << "cost appears once the free list fragments (part 1). The paper's 1 MB\n"
            << "choice buys worst-case immunity at no fresh-log cost.\n";
  return true;
}

// ABL2, Section 4.3.4: "it is desirable to choose the segments with the most
// free space" — greedy (the paper) against FIFO (oldest segment first).
Result<bool> Abl2() {
  std::cout << "=== Ablation ABL2: cleaner victim policy, greedy (paper) vs FIFO ===\n";
  ASSIGN_OR_RETURN(PolicyChurn churn, RunPolicyChurn());
  TablePrinter table({"policy", "segments cleaned", "live blocks copied", "copies/segment"});
  auto add_row = [&table](const char* policy, const LfsFileSystem::CleanerStats& cleaner) {
    table.AddRow({policy, TablePrinter::Int(cleaner.segments_cleaned),
                  TablePrinter::Int(cleaner.live_blocks_copied),
                  TablePrinter::Fixed(cleaner.segments_cleaned > 0
                                          ? static_cast<double>(cleaner.live_blocks_copied) /
                                                cleaner.segments_cleaned
                                          : 0.0,
                                      1)});
  };
  add_row("greedy", churn.greedy);
  add_row("fifo", churn.fifo);
  table.Print(std::cout);
  std::cout << "\nExpected shape: greedy copies fewer live blocks per reclaimed segment\n"
            << "(it picks the emptiest victims), so its cleaning overhead is lower on\n"
            << "skewed (hot/cold) workloads.\n";
  return true;
}

// ABL3: Section 2.2 argues that large caches shift disk traffic toward
// writes; Section 4.3.5 picks a 30-second write-back age.
Result<bool> Abl3() {
  std::cout << "=== Ablation ABL3a: cache size vs office-workload disk traffic (LFS) ===\n";
  const std::vector<size_t> cache_mb = {1, 4, 15, 64};
  std::vector<CachePolicy> sizes;
  for (size_t mb : cache_mb) {
    sizes.push_back({.capacity_blocks = mb * 256});  // 4 KB blocks.
  }
  ASSIGN_OR_RETURN(std::vector<OfficeTraffic> by_size, RunOfficeTrafficSweep(sizes));
  TablePrinter size_table(
      {"cache", "ops/s", "disk reads", "disk writes", "read sectors", "write sectors"});
  for (size_t i = 0; i < cache_mb.size(); ++i) {
    const DiskStats& stats = by_size[i].disk;
    size_table.AddRow({std::to_string(cache_mb[i]) + " MB",
                       TablePrinter::Fixed(by_size[i].ops_per_s, 1),
                       TablePrinter::Int(stats.read_ops), TablePrinter::Int(stats.write_ops),
                       TablePrinter::Int(stats.sectors_read),
                       TablePrinter::Int(stats.sectors_written)});
  }
  size_table.Print(std::cout);
  std::cout << "\nExpected shape: growing the cache absorbs reads (read traffic falls\n"
            << "sharply) while write traffic persists — the Section 2.2 argument that\n"
            << "1990s disk traffic is write-dominated, which motivates LFS itself.\n\n";

  std::cout << "=== Ablation ABL3b: write-back age threshold (LFS, 15 MB cache) ===\n";
  const std::vector<double> ages = {1.0, 5.0, 30.0, 120.0};
  std::vector<CachePolicy> thresholds;
  for (double age : ages) {
    thresholds.push_back({.writeback_age_seconds = age});
  }
  ASSIGN_OR_RETURN(std::vector<OfficeTraffic> by_age, RunOfficeTrafficSweep(thresholds));
  TablePrinter age_table({"age threshold", "disk writes", "write sectors", "sectors/write"});
  for (size_t i = 0; i < ages.size(); ++i) {
    const DiskStats& stats = by_age[i].disk;
    age_table.AddRow({TablePrinter::Fixed(ages[i], 0) + " s", TablePrinter::Int(stats.write_ops),
                      TablePrinter::Int(stats.sectors_written),
                      TablePrinter::Fixed(stats.write_ops > 0
                                              ? static_cast<double>(stats.sectors_written) /
                                                    stats.write_ops
                                              : 0.0,
                                          1)});
  }
  age_table.Print(std::cout);
  std::cout << "\nExpected shape: longer thresholds batch more dirty blocks per segment\n"
            << "write (higher sectors/write) and absorb short-lived files entirely,\n"
            << "at the cost of a larger crash-loss window (Section 4.4.1).\n";
  return true;
}

// Extension, Section 2.1: "the access time for small disk accesses is not
// substantially improved" by disk arrays. Striping helps a bandwidth-bound
// file system and does almost nothing for a latency-bound one.
Result<bool> Raid() {
  std::cout << "=== Extension: RAID-0 scaling, large-file sequential write (Section 2.1) "
               "===\n";
  const std::vector<uint32_t> members = {1, 2, 4, 8};
  ASSIGN_OR_RETURN(std::vector<FsPair> seq_write, RunArraySeqWrite(members));
  TablePrinter table({"members", "LFS seq-write KB/s", "FFS seq-write KB/s", "LFS scaling",
                      "FFS scaling"});
  for (size_t i = 0; i < members.size(); ++i) {
    table.AddRow({std::to_string(members[i]), TablePrinter::Fixed(seq_write[i].lfs, 0),
                  TablePrinter::Fixed(seq_write[i].ffs, 0),
                  TablePrinter::Fixed(seq_write[i].lfs / seq_write[0].lfs, 2) + "x",
                  TablePrinter::Fixed(seq_write[i].ffs / seq_write[0].ffs, 2) + "x"});
  }
  table.Print(std::cout);

  std::cout << "\n=== Extension: RAID-0 scaling, small-file creation ===\n";
  const std::vector<uint32_t> create_members = {1, 4};
  ASSIGN_OR_RETURN(std::vector<FsPair> creates, RunArrayCreates(create_members));
  TablePrinter small_table(
      {"members", "LFS create/s", "FFS create/s", "LFS scaling", "FFS scaling"});
  for (size_t i = 0; i < create_members.size(); ++i) {
    small_table.AddRow({std::to_string(create_members[i]), TablePrinter::Fixed(creates[i].lfs, 1),
                        TablePrinter::Fixed(creates[i].ffs, 1),
                        TablePrinter::Fixed(creates[i].lfs / creates[0].lfs, 2) + "x",
                        TablePrinter::Fixed(creates[i].ffs / creates[0].ffs, 2) + "x"});
  }
  small_table.Print(std::cout);
  std::cout << "\nExpected shape: LFS sequential-write bandwidth scales with the member\n"
            << "count (its segment writes are bandwidth-bound); FFS small-file creation\n"
            << "barely moves (latency-bound synchronous metadata writes) — the paper's\n"
            << "Section 2.1 asymmetry, realized at the file-system level.\n";
  return true;
}

// Extension, Section 4.2.1: a file written whole lies sequentially in the
// log, and read-ahead turns that adjacency into fewer, larger transfers.
Result<bool> ReadAhead() {
  std::cout << "=== Ablation: LFS sequential read-ahead depth ===\n";
  const std::vector<uint32_t> depths = {0, 2, 8, 32};
  ASSIGN_OR_RETURN(std::vector<ReadAheadPoint> points, RunReadAheadSweep(depths));
  TablePrinter table({"read-ahead", "small-file read files/s", "100MB seq read KB/s",
                      "disk read ops (small-file)"});
  for (size_t i = 0; i < depths.size(); ++i) {
    table.AddRow({depths[i] == 0 ? "off" : std::to_string(depths[i]) + " blocks",
                  TablePrinter::Fixed(points[i].small_reads_per_s, 1),
                  TablePrinter::Fixed(points[i].seq_read_kbps, 0),
                  TablePrinter::Int(points[i].small_disk_reads)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: deeper read-ahead collapses per-block requests into\n"
            << "multi-block transfers, raising sequential read rates toward the disk\n"
            << "maximum; small files (1 block each) see a modest gain only through\n"
            << "their neighbours being co-resident in the same segment.\n";
  return true;
}

struct Section {
  const char* name;
  Result<bool> (*run)();
};

// EXPERIMENTS.md order.
constexpr Section kSections[] = {
    {"fig12", Fig12}, {"cpu", Cpu},   {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
    {"abl1", Abl1},   {"abl2", Abl2}, {"abl3", Abl3}, {"raid", Raid}, {"readahead", ReadAhead},
};

int Main(int argc, char** argv) {
  std::vector<const Section*> chosen;
  for (int i = 1; i < argc; ++i) {
    const Section* match = nullptr;
    for (const Section& section : kSections) {
      if (std::strcmp(argv[i], section.name) == 0) {
        match = &section;
      }
    }
    if (match == nullptr) {
      std::cerr << "unknown section '" << argv[i] << "'; sections:";
      for (const Section& section : kSections) {
        std::cerr << " " << section.name;
      }
      std::cerr << "\n";
      return 2;
    }
    chosen.push_back(match);
  }
  if (chosen.empty()) {
    for (const Section& section : kSections) {
      chosen.push_back(&section);
    }
  }
  int exit_code = 0;
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) {
      std::cout << "\n";
    }
    Result<bool> passed = chosen[i]->run();
    if (!passed.ok()) {
      std::cerr << chosen[i]->name << " failed: " << passed.status().ToString() << "\n";
      exit_code = 1;
    } else if (!*passed) {
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace
}  // namespace logfs

int main(int argc, char** argv) { return logfs::Main(argc, argv); }
