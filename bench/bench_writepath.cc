// Wall-clock perf harness for the segment I/O pipeline.
//
// Unlike every other bench in this directory, which reports *simulated*
// seconds from the SimClock, this one measures *host* CPU time: the copies
// and checksums the write path performs are real work on the host, and the
// pipeline exists to shrink exactly that work. Four measurements:
//
//   1. crc32          — the slice-by-8 kernel vs the one-table bytewise
//                       reference, MB/s and ns per 4 KB block.
//   2. segment_flush  — the seed's copy-per-block flush (memcpy staging +
//                       bytewise CRC + scalar write), emulated faithfully,
//                       vs the real SegmentBuilder path LFS write-back runs
//                       (Append's one memcpy + slice-by-8 CRC + one
//                       vectored {summary, content} write).
//   3. decode_summary — the seed's clone-the-summary-block decode emulated
//                       (copy + zero the CRC field + bytewise CRC) vs the
//                       real clone-free DecodeSummary.
//   4. cleaner        — host throughput of a real cleaning pass (testbed
//                       filesystem, utilization 0.5), whose read side runs
//                       DecodeSummary over every victim segment.
//
// Emits a JSON report (default BENCH_PR2.json) with before/after/speedup
// for each measurement. `--smoke` shrinks everything for CI; `--out PATH`
// redirects the report.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/disk/memory_disk.h"
#include "src/lfs/lfs_file_system.h"
#include "src/obs/metrics.h"
#include "src/lfs/lfs_segment.h"
#include "src/util/crc32.h"
#include "src/workload/benchmarks.h"
#include "src/workload/testbed.h"

namespace logfs {
namespace {

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `body` until at least `min_seconds` of host time has elapsed and
// returns the mean seconds per iteration. One untimed warm-up iteration.
template <typename Body>
double SecondsPerIteration(double min_seconds, Body&& body) {
  body();
  uint64_t iterations = 0;
  const double start = HostNow();
  double elapsed = 0.0;
  do {
    body();
    ++iterations;
    elapsed = HostNow() - start;
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(iterations);
}

std::vector<std::byte> Pattern(size_t bytes, uint8_t seed) {
  std::vector<std::byte> data(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>(seed + 7 * i);
  }
  return data;
}

struct BeforeAfter {
  double before_mb_s = 0.0;
  double after_mb_s = 0.0;
  double before_ns_per_block = 0.0;
  double after_ns_per_block = 0.0;
  double Speedup() const { return before_mb_s > 0 ? after_mb_s / before_mb_s : 0.0; }
};

// Keeps results observable so the optimizer cannot delete the timed work.
volatile uint32_t g_sink = 0;

// --- 1. CRC32 kernels ----------------------------------------------------------

BeforeAfter BenchCrc32(bool smoke) {
  const size_t bytes = (smoke ? 1u : 16u) << 20;
  const double min_seconds = smoke ? 0.02 : 0.4;
  const std::vector<std::byte> data = Pattern(bytes, 1);

  const double bytewise = SecondsPerIteration(min_seconds, [&] {
    g_sink = Crc32Finalize(Crc32UpdateBytewise(Crc32Init(), data));
  });
  const double slice8 = SecondsPerIteration(min_seconds, [&] {
    g_sink = Crc32Finalize(Crc32Update(Crc32Init(), data));
  });

  BeforeAfter r;
  r.before_mb_s = bytes / bytewise / 1e6;
  r.after_mb_s = bytes / slice8 / 1e6;
  const double blocks = bytes / 4096.0;
  r.before_ns_per_block = bytewise / blocks * 1e9;
  r.after_ns_per_block = slice8 / blocks * 1e9;
  return r;
}

// --- 2. Segment flush ----------------------------------------------------------

// The seed's flush, reproduced as a cost model: every content block is
// memcpy'd into a contiguous staging buffer at append time, the CRC runs
// the bytewise kernel over the whole partial segment, and the device sees
// one scalar write of the staging buffer. Field serialization in the
// summary is a few dozen bytes and is omitted (it favours the old path).
class CopyPathFlusher {
 public:
  CopyPathFlusher(MemoryDisk* disk, const LfsSuperblock& sb, size_t nblocks)
      : disk_(disk),
        sb_(sb),
        nblocks_(nblocks),
        staging_((1 + nblocks) * sb.block_size) {}

  Status Flush(std::span<const std::vector<std::byte>> pool, uint32_t segment) {
    const uint32_t bs = sb_.block_size;
    for (size_t i = 0; i < nblocks_; ++i) {
      std::memcpy(staging_.data() + (1 + i) * bs, pool[i % pool.size()].data(), bs);
    }
    std::span<const std::byte> whole(staging_);
    uint32_t crc = Crc32Init();
    crc = Crc32UpdateBytewise(crc, whole.subspan(4, bs - 4));  // Summary, CRC field skipped.
    crc = Crc32UpdateBytewise(crc, whole.subspan(bs));         // Content.
    crc = Crc32Finalize(crc);
    std::memcpy(staging_.data(), &crc, sizeof(crc));
    return disk_->WriteSectors(sb_.SegmentBlockSector(segment, 0), staging_);
  }

  size_t BytesPerFlush() const { return staging_.size(); }

 private:
  MemoryDisk* disk_;
  LfsSuperblock sb_;
  size_t nblocks_;
  std::vector<std::byte> staging_;
};

BeforeAfter BenchSegmentFlush(bool smoke) {
  const double min_seconds = smoke ? 0.02 : 0.4;
  MemoryDisk disk(1u << 20, /*clock=*/nullptr);  // 512 MB, no simulated time.
  auto geometry = ComputeLfsGeometry(LfsParams{.max_inodes = 1024}, disk.sector_count());
  if (!geometry.ok()) {
    std::cerr << "geometry failed: " << geometry.status().ToString() << "\n";
    return {};
  }
  const LfsSuperblock sb = *geometry;
  const size_t nblocks = std::min<size_t>(SummaryCapacity(sb.block_size),
                                          sb.BlocksPerSegment() - 1);

  // A pool of "cache blocks" the flush sources from, larger than L2 so the
  // copy path cannot hide its staging memcpy in cache residency.
  std::vector<std::vector<std::byte>> pool;
  for (size_t i = 0; i < 2 * nblocks; ++i) {
    pool.push_back(Pattern(sb.block_size, static_cast<uint8_t>(i)));
  }

  CopyPathFlusher copy_path(&disk, sb, nblocks);
  uint32_t seg = 0;
  Status status = OkStatus();
  const double before = SecondsPerIteration(min_seconds, [&] {
    status = copy_path.Flush(pool, seg);
    seg = (seg + 1) % 4;
  });
  if (!status.ok()) {
    std::cerr << "copy-path flush failed: " << status.ToString() << "\n";
    return {};
  }

  SegmentBuilder builder(&disk, sb);
  uint64_t sequence = 1;
  const double after = SecondsPerIteration(min_seconds, [&] {
    builder.StartAt(seg, 0);
    for (size_t i = 0; i < nblocks; ++i) {
      auto addr = builder.Append(BlockKind::kData, 1, 1, static_cast<int64_t>(i),
                                 pool[i % pool.size()]);
      if (!addr.ok()) {
        status = addr.status();
        return;
      }
    }
    status = builder.Flush(sequence++, 0.0);
    seg = (seg + 1) % 4;
  });
  if (!status.ok()) {
    std::cerr << "builder flush failed: " << status.ToString() << "\n";
    return {};
  }

  BeforeAfter r;
  const double bytes = static_cast<double>(copy_path.BytesPerFlush());
  r.before_mb_s = bytes / before / 1e6;
  r.after_mb_s = bytes / after / 1e6;
  r.before_ns_per_block = before / static_cast<double>(nblocks) * 1e9;
  r.after_ns_per_block = after / static_cast<double>(nblocks) * 1e9;
  return r;
}

// --- 3. Summary decode (the cleaner's read side) -------------------------------

BeforeAfter BenchDecodeSummary(bool smoke) {
  const double min_seconds = smoke ? 0.02 : 0.4;
  MemoryDisk disk(1u << 18, /*clock=*/nullptr);
  auto geometry = ComputeLfsGeometry(LfsParams{.max_inodes = 1024}, disk.sector_count());
  if (!geometry.ok()) {
    return {};
  }
  const LfsSuperblock sb = *geometry;
  const size_t nblocks = std::min<size_t>(SummaryCapacity(sb.block_size),
                                          sb.BlocksPerSegment() - 1);

  // Build one valid partial segment to decode.
  SegmentSummary summary;
  summary.seq = 12;
  summary.timestamp = 1.0;
  std::vector<std::byte> content = Pattern(nblocks * sb.block_size, 5);
  for (size_t i = 0; i < nblocks; ++i) {
    summary.entries.push_back(
        {BlockKind::kData, 1, 1, static_cast<int64_t>(i)});
  }
  std::vector<std::byte> block(sb.block_size);
  if (!EncodeSummary(summary, block, content).ok()) {
    return {};
  }

  // The seed's decode cloned the summary block to zero its CRC field before
  // checksumming, and ran the bytewise kernel.
  const double before = SecondsPerIteration(min_seconds, [&] {
    std::vector<std::byte> clone(block.begin(), block.end());
    std::memset(clone.data(), 0, 4);
    uint32_t crc = Crc32Init();
    crc = Crc32UpdateBytewise(crc, clone);
    crc = Crc32UpdateBytewise(crc, content);
    g_sink = Crc32Finalize(crc);
  });
  bool decoded_ok = true;
  const double after = SecondsPerIteration(min_seconds, [&] {
    auto decoded = DecodeSummary(block, content);
    decoded_ok = decoded.ok();
    g_sink = decoded_ok ? static_cast<uint32_t>(decoded->entries.size()) : 0;
  });
  if (!decoded_ok) {
    std::cerr << "decode failed\n";
    return {};
  }

  BeforeAfter r;
  const double bytes = static_cast<double>(sb.block_size + content.size());
  r.before_mb_s = bytes / before / 1e6;
  r.after_mb_s = bytes / after / 1e6;
  r.before_ns_per_block = before / static_cast<double>(nblocks) * 1e9;
  r.after_ns_per_block = after / static_cast<double>(nblocks) * 1e9;
  return r;
}

// --- 4. Cleaner host throughput ------------------------------------------------

struct CleanerResult {
  bool ok = false;
  double host_seconds = 0.0;
  uint64_t segments_cleaned = 0;
  uint64_t blocks_examined = 0;
  uint64_t live_blocks_copied = 0;
  double BlocksExaminedPerSecond() const {
    return host_seconds > 0 ? blocks_examined / host_seconds : 0.0;
  }
};

CleanerResult BenchCleaner(bool smoke) {
  CleanerResult out;
  TestbedParams bed_params;
  bed_params.lfs_options.auto_clean = false;
  if (smoke) {
    bed_params.disk_bytes = 64ull << 20;
  }
  auto bed = MakeLfsTestbed(bed_params);
  if (!bed.ok()) {
    std::cerr << "testbed setup failed: " << bed.status().ToString() << "\n";
    return out;
  }
  CleaningRateParams params;
  params.utilization = 0.5;
  if (smoke) {
    params.fill_bytes = 8ull << 20;
  }
  const double start = HostNow();
  auto result = RunCleaningRateBenchmark(*bed, params);
  out.host_seconds = HostNow() - start;
  if (!result.ok()) {
    std::cerr << "cleaning benchmark failed: " << result.status().ToString() << "\n";
    return out;
  }
  out.segments_cleaned = result->segments_cleaned;
  auto* lfs = dynamic_cast<LfsFileSystem*>(bed->fs.get());
  if (lfs != nullptr) {
    out.blocks_examined = lfs->cleaner_stats().blocks_examined;
    out.live_blocks_copied = lfs->cleaner_stats().live_blocks_copied;
  }
  out.ok = true;
  return out;
}

// --- Report --------------------------------------------------------------------

void PrintSection(std::ostream& os, const char* name, const BeforeAfter& r,
                  const char* before_label, const char* after_label, bool last) {
  os << "  \"" << name << "\": {\n"
     << "    \"" << before_label << "_mb_s\": " << r.before_mb_s << ",\n"
     << "    \"" << after_label << "_mb_s\": " << r.after_mb_s << ",\n"
     << "    \"" << before_label << "_ns_per_block\": " << r.before_ns_per_block << ",\n"
     << "    \"" << after_label << "_ns_per_block\": " << r.after_ns_per_block << ",\n"
     << "    \"speedup\": " << r.Speedup() << "\n"
     << "  }" << (last ? "\n" : ",\n");
}

int RunBench(bool smoke, const std::string& out_path, const std::string& metrics_path) {
  std::cout << "=== Write-path host-time benchmarks (" << (smoke ? "smoke" : "full")
            << ") ===\n";

  const BeforeAfter crc = BenchCrc32(smoke);
  std::cout << "crc32:          bytewise " << crc.before_mb_s << " MB/s, slice8 "
            << crc.after_mb_s << " MB/s  (" << crc.Speedup() << "x)\n";

  const BeforeAfter flush = BenchSegmentFlush(smoke);
  std::cout << "segment flush:  copy-path " << flush.before_mb_s << " MB/s, builder "
            << flush.after_mb_s << " MB/s  (" << flush.Speedup() << "x)\n";

  const BeforeAfter decode = BenchDecodeSummary(smoke);
  std::cout << "decode summary: clone " << decode.before_mb_s << " MB/s, in-place "
            << decode.after_mb_s << " MB/s  (" << decode.Speedup() << "x)\n";

  const CleanerResult cleaner = BenchCleaner(smoke);
  std::cout << "cleaner:        " << cleaner.segments_cleaned << " segments, "
            << cleaner.blocks_examined << " blocks examined in " << cleaner.host_seconds
            << "s host (" << cleaner.BlocksExaminedPerSecond() << " blocks/s)\n";

  const bool sane = crc.Speedup() >= 1.0 && flush.Speedup() >= 1.0 && cleaner.ok;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"writepath\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  PrintSection(out, "crc32", crc, "bytewise", "slice8", false);
  PrintSection(out, "segment_flush", flush, "copy_path", "builder", false);
  PrintSection(out, "decode_summary", decode, "clone", "in_place", false);
  out << "  \"cleaner\": {\n"
      << "    \"segments_cleaned\": " << cleaner.segments_cleaned << ",\n"
      << "    \"blocks_examined\": " << cleaner.blocks_examined << ",\n"
      << "    \"live_blocks_copied\": " << cleaner.live_blocks_copied << ",\n"
      << "    \"host_seconds\": " << cleaner.host_seconds << ",\n"
      << "    \"blocks_examined_per_s\": " << cleaner.BlocksExaminedPerSecond() << "\n"
      << "  }\n"
      << "}\n";
  if (!metrics_path.empty()) {
    // The counters the measured runs just produced, next to their timing
    // JSON — the "why" behind the wall-clock numbers.
    std::ofstream metrics_file(metrics_path);
    metrics_file << obs::Registry().ToJson();
    std::cout << "metrics: " << metrics_path << "\n";
  }
  std::cout << "report: " << out_path << "\n"
            << "Shape check: " << (sane ? "PASS" : "WARN")
            << " (the builder and slice8 must not be slower than the paths they replace)\n";
  return sane ? 0 : 1;
}

}  // namespace
}  // namespace logfs

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_PR2.json";
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--out PATH] [--metrics-out PATH]\n";
      return 2;
    }
  }
  return logfs::RunBench(smoke, out_path, metrics_path);
}
