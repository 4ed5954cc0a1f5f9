// lfs_inspect: a debugfs-style dump of an LFS volume's on-disk structures —
// superblock, both checkpoint regions, the segment map, inode-map summary,
// and a log walk that decodes every valid partial segment's summary.
//
// The tool builds a demonstration volume (some files, a fragmentation +
// cleaning episode, a couple of checkpoints) and then inspects it, so the
// dump shows every structure in a realistic state. Point of the exercise:
// everything printed is decoded from raw device sectors through the same
// codecs the file system uses.
//
// Run: ./build/examples/lfs_inspect            raw structure dump (default)
//      ./build/examples/lfs_inspect metrics    registry snapshot + write cost
//      ./build/examples/lfs_inspect trace      Chrome trace_event JSON
//      ./build/examples/lfs_inspect scrub      corrupt a live block, scrub it
//      ./build/examples/lfs_inspect top        live counter rates from telemetry
//      ./build/examples/lfs_inspect heatmap    segment utilization x age grid
//      ./build/examples/lfs_inspect blackbox   recover the telemetry ring from
//                                              the raw image, mount not needed
//      ./build/examples/lfs_inspect serve      lease table, parked queue, and
//                                              client caches of a live cluster
//      ./build/examples/lfs_inspect slo        per-op latency percentiles and
//                                              critical-path class totals of a
//                                              traced lossy-cluster run
//      ./build/examples/lfs_inspect trace-tree [id]
//                                              one request's span tree with its
//                                              8-class latency attribution
//                                              (default: the slowest request)
//      ./build/examples/lfs_inspect intents    cross-shard intent log: pending
//                                              and retired records, markers
//                                              and free masks, then the
//                                              reconciliation verdicts after a
//                                              simulated crash + remount;
//                                              exits nonzero unless exactly
//                                              the unsynced ops read pending
//      ./build/examples/lfs_inspect check [--repair]
//                                              global namespace check against
//                                              cross-shard damage seeded
//                                              through the shard seams; exits
//                                              nonzero on damage, zero after
//                                              --repair fixes it
//      ./build/examples/lfs_inspect iostat     per-source write attribution and
//                                              the exact-sum invariant check
//      ./build/examples/lfs_inspect segstat    lifecycle counters + utilization
//                                              decile distribution (Fig. 3)
//      ./build/examples/lfs_inspect heat       per-segment age / overwrite EWMA
//      ./build/examples/lfs_inspect save <f>   write the demo image to a file
//                                              (blackbox <f> reads it back)
//      ./build/examples/lfs_inspect help       verb summary; unknown verbs and
//                                              missing operands exit nonzero
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "src/disk/memory_disk.h"
#include "src/fsbase/path.h"
#include "src/lfs/lfs_blackbox.h"
#include "src/obs/critical_path.h"
#include "src/lfs/lfs_file_system.h"
#include "src/lfs/lfs_segment.h"
#include "src/lfs/sharded_lfs.h"
#include "src/obs/metrics.h"
#include "src/obs/sampler.h"
#include "src/obs/space_observatory.h"
#include "src/obs/tracer.h"
#include "src/serve/cluster.h"
#include "src/serve/driver.h"
#include "src/sim/sim_clock.h"
#include "src/workload/report.h"
#include "src/workload/serve_load.h"

namespace {

using namespace logfs;

const char* KindName(BlockKind kind) {
  switch (kind) {
    case BlockKind::kData:
      return "data";
    case BlockKind::kIndirect:
      return "indirect";
    case BlockKind::kInodeBlock:
      return "inodes";
    case BlockKind::kImap:
      return "imap";
    case BlockKind::kSegUsage:
      return "usage";
    case BlockKind::kMetaLog:
      return "metalog";
  }
  return "?";
}

int DumpSuperblock(MemoryDisk& disk, LfsSuperblock* sb_out) {
  std::vector<std::byte> block(4096);
  if (!disk.ReadSectors(0, block).ok()) {
    return 1;
  }
  auto sb = DecodeLfsSuperblock(block);
  if (!sb.ok()) {
    std::cerr << "superblock: " << sb.status().ToString() << "\n";
    return 1;
  }
  std::cout << "superblock:\n"
            << "  block size            " << sb->block_size << " B\n"
            << "  segment size          " << sb->segment_size << " B ("
            << sb->BlocksPerSegment() << " blocks)\n"
            << "  segments              " << sb->num_segments << "\n"
            << "  max inodes            " << sb->max_inodes << "\n"
            << "  checkpoint region     " << sb->checkpoint_region_blocks << " blocks x2\n"
            << "  first segment sector  " << sb->first_segment_sector << "\n"
            << "  cleaning thresholds   start<" << sb->clean_start_segments << " stop>="
            << sb->clean_stop_segments << " reserve=" << sb->reserved_segments << "\n";
  *sb_out = *sb;
  return 0;
}

void DumpCheckpoints(MemoryDisk& disk, const LfsSuperblock& sb) {
  std::vector<std::byte> region(static_cast<size_t>(sb.checkpoint_region_blocks) *
                                sb.block_size);
  for (int r = 0; r < 2; ++r) {
    const uint64_t sector =
        (1ull + static_cast<uint64_t>(r) * sb.checkpoint_region_blocks) * sb.SectorsPerBlock();
    std::cout << "checkpoint region " << (r == 0 ? "A" : "B") << " @ sector " << sector
              << ": ";
    if (!disk.ReadSectors(sector, region).ok()) {
      std::cout << "unreadable\n";
      continue;
    }
    auto ckpt = DecodeCheckpoint(region);
    if (!ckpt.ok()) {
      std::cout << "invalid (" << ckpt.status().message() << ")\n";
      continue;
    }
    int written_imap = 0;
    for (DiskAddr addr : ckpt->imap_block_addrs) {
      written_imap += addr != kNoAddr ? 1 : 0;
    }
    std::cout << "seq=" << ckpt->sequence << " t=" << std::fixed << std::setprecision(2)
              << ckpt->timestamp << "s tail=seg" << ckpt->tail_segment << "+"
              << ckpt->tail_offset << " log_seq=" << ckpt->next_log_seq << " live="
              << ckpt->total_live_bytes / 1024 << "KB imap_blocks=" << written_imap << "/"
              << ckpt->imap_block_addrs.size() << "\n";
  }
}

void DumpSegments(const LfsFileSystem& fs) {
  std::cout
      << "segment map ('.'=clean, digit=live decile, A=active, p=pending, Q=quarantined):\n  ";
  const auto& usage = fs.usage();
  for (uint32_t seg = 0; seg < fs.superblock().num_segments; ++seg) {
    const SegUsage& entry = usage.Get(seg);
    char symbol = '.';
    if (entry.state == SegState::kActive) {
      symbol = 'A';
    } else if (entry.state == SegState::kCleanPending) {
      symbol = 'p';
    } else if (entry.state == SegState::kQuarantined) {
      symbol = 'Q';
    } else if (entry.state == SegState::kDirty) {
      const int decile = static_cast<int>(10.0 * entry.live_bytes /
                                          static_cast<double>(fs.superblock().segment_size));
      symbol = static_cast<char>('0' + std::min(decile, 9));
    }
    std::cout << symbol;
    if (seg % 64 == 63) {
      std::cout << "\n  ";
    }
  }
  std::cout << "\n";
}

int WalkLog(MemoryDisk& disk, const LfsSuperblock& sb) {
  std::cout << "log walk (valid partial segments, decoded from raw sectors):\n";
  TablePrinter table({"segment", "offset", "seq", "blocks", "contents"});
  int partials = 0;
  for (uint32_t seg = 0; seg < sb.num_segments; ++seg) {
    for (SummaryChain chain(&disk, sb, seg, ChainMode::kStrict); chain.Next();) {
      const uint32_t nblocks = chain.peek().nblocks;
      std::vector<std::byte> content(static_cast<size_t>(nblocks) * sb.block_size);
      if (!disk.ReadSectors(sb.SegmentBlockSector(seg, chain.offset() + 1), content).ok()) {
        break;
      }
      auto summary = DecodeSummary(chain.summary_block(), content);
      if (!summary.ok()) {
        break;
      }
      // Content census per kind.
      int counts[7] = {};
      for (const SummaryEntry& entry : summary->entries) {
        ++counts[static_cast<int>(entry.kind)];
      }
      std::string census;
      for (int k = 1; k <= 6; ++k) {
        if (counts[k] > 0) {
          if (!census.empty()) {
            census += " ";
          }
          census += std::to_string(counts[k]) + " " + KindName(static_cast<BlockKind>(k));
        }
      }
      table.AddRow({std::to_string(seg), std::to_string(chain.offset()),
                    std::to_string(summary->seq), std::to_string(nblocks), census});
      ++partials;
      if (partials > 40) {
        table.AddRow({"...", "", "", "", "(truncated)"});
        table.Print(std::cout);
        return 0;
      }
    }
  }
  table.Print(std::cout);
  return 0;
}

// The observability verbs report on the same demonstration volume the
// structure dump inspects, so the counters line up with the structures.
// `metrics` prints the registry (and restates the cleaner's derived write
// cost next to the raw counters it came from); `trace` emits the whole
// span/event ring in Chrome trace_event JSON for about:tracing / Perfetto.
int DumpMetrics() {
  if (!obs::kMetricsEnabled) {
    std::cerr << "metrics are compiled out (built with LOGFS_METRICS=OFF)\n";
    return 1;
  }
  std::cout << obs::Registry().ToJson();
  const obs::Counter* examined =
      obs::Registry().FindCounter("logfs.cleaner.blocks_examined");
  const obs::Counter* copied =
      obs::Registry().FindCounter("logfs.cleaner.live_blocks_copied");
  const obs::Gauge* cost = obs::Registry().FindGauge("logfs.cleaner.write_cost");
  if (examined != nullptr && copied != nullptr && cost != nullptr &&
      examined->Value() > 0) {
    const double u = static_cast<double>(copied->Value()) /
                     static_cast<double>(examined->Value());
    std::cerr << "# cleaner observed u=" << std::fixed << std::setprecision(4) << u
              << ": write cost 1 + u/(1-u) + 1/(1-u) = " << std::setprecision(3)
              << cost->Value() << " (1.0 = no cleaning overhead)\n";
  }
  return 0;
}

// `top`: the flight recorder's live view. Takes one final sample, then
// renders the busiest counters — absolute value plus the rate over the last
// sampling interval — and the current gauges, all read back out of the
// delta-compressed telemetry ring rather than the registry directly.
int DumpTop(LfsFileSystem& fs, double now) {
  if (!obs::kMetricsEnabled) {
    std::cerr << "metrics are compiled out (built with LOGFS_METRICS=OFF)\n";
    return 1;
  }
  obs::TelemetrySampler& sampler = fs.telemetry();
  sampler.SampleNow(now);
  const obs::TelemetryRing ring = sampler.Ring();
  if (ring.samples.empty()) {
    std::cerr << "telemetry ring is empty\n";
    return 1;
  }
  const size_t last = ring.samples.size() - 1;
  const double t0 = ring.samples.size() > 1 ? ring.samples.front().t : ring.base_time;
  std::cout << "telemetry: " << ring.samples.size() << " retained samples ("
            << sampler.total_samples() << " total), t=[" << std::fixed
            << std::setprecision(3) << t0 << "s, " << ring.samples[last].t << "s]\n\n";

  struct Row {
    std::string name;
    uint64_t value;
    double rate;
  };
  std::vector<Row> rows;
  for (size_t c = 0; c < ring.counter_names.size(); ++c) {
    const uint64_t value = ring.CounterAt(last, c);
    if (value > 0) {
      rows.push_back({ring.counter_names[c], value, ring.RateAt(last, c)});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.rate != b.rate ? a.rate > b.rate : a.value > b.value;
  });
  TablePrinter table({"counter", "value", "rate/s (last interval)"});
  const size_t shown = std::min<size_t>(rows.size(), 20);
  for (size_t i = 0; i < shown; ++i) {
    std::ostringstream rate;
    rate << std::fixed << std::setprecision(1) << rows[i].rate;
    table.AddRow({rows[i].name, std::to_string(rows[i].value), rate.str()});
  }
  table.Print(std::cout);
  if (rows.size() > shown) {
    std::cout << "(" << rows.size() - shown << " more nonzero counters)\n";
  }

  const obs::TelemetrySample& final_sample = ring.samples[last];
  bool any_gauge = false;
  for (size_t g = 0; g < ring.gauge_names.size(); ++g) {
    if (g < final_sample.gauges.size() && !std::isnan(final_sample.gauges[g])) {
      if (!any_gauge) {
        std::cout << "\ngauges:\n";
        any_gauge = true;
      }
      std::cout << "  " << ring.gauge_names[g] << " = " << std::setprecision(4)
                << final_sample.gauges[g] << "\n";
    }
  }
  return 0;
}

// `iostat`: the space observatory's per-source write attribution (DESIGN.md
// §6j). Every acknowledged device write the volume issued is classified by
// provenance; the table restates the classes, their byte shares, and the
// derived write amplification, then re-checks the exact-sum invariant
// against the device's own transfer counters.
int DumpIoStat(const MemoryDisk& disk) {
  if (!obs::kMetricsEnabled) {
    std::cerr << "metrics are compiled out (built with LOGFS_METRICS=OFF)\n";
    return 1;
  }
  const obs::IoAttribution attr = obs::AttributionSnapshot();
  TablePrinter table({"source", "writes", "bytes", "byte share"});
  for (size_t i = 0; i < obs::kIoSourceCount; ++i) {
    const double share =
        attr.total_bytes > 0
            ? 100.0 * static_cast<double>(attr.bytes[i]) / static_cast<double>(attr.total_bytes)
            : 0.0;
    table.AddRow({std::string(obs::IoSourceName(static_cast<obs::IoSource>(i))),
                  std::to_string(attr.writes[i]), std::to_string(attr.bytes[i]),
                  TablePrinter::Fixed(share, 1) + "%"});
  }
  table.AddRow({"total", std::to_string(attr.total_writes), std::to_string(attr.total_bytes),
                "100.0%"});
  table.Print(std::cout);
  std::cout << "\nwrite amplification (total bytes / fg_data bytes): "
            << TablePrinter::Fixed(attr.write_amplification, 3) << "\n";
  const DiskStats& stats = disk.stats();
  const uint64_t device_bytes = stats.sectors_written * kSectorSize;
  std::cout << "exact-sum invariant: attributed " << attr.total_bytes << " bytes / "
            << attr.total_writes << " ops vs device " << device_bytes << " bytes / "
            << stats.write_ops << " ops — ";
  if (attr.total_bytes == device_bytes && attr.total_writes == stats.write_ops) {
    std::cout << "holds\n";
    return 0;
  }
  std::cout << "VIOLATED\n";
  return 1;
}

// `segstat`: segment lifecycle counters plus the live utilization
// distribution (the paper's Fig. 3 as decile gauges).
int DumpSegStat(LfsFileSystem& fs) {
  if (!obs::kMetricsEnabled) {
    std::cerr << "metrics are compiled out (built with LOGFS_METRICS=OFF)\n";
    return 1;
  }
  std::cout << "lifecycle events:\n";
  for (size_t i = 0; i < obs::kSegLifecycleCount; ++i) {
    const std::string name(obs::SegLifecycleName(static_cast<obs::SegLifecycle>(i)));
    const obs::Counter* c = obs::Registry().FindCounter("logfs.seg.lifecycle." + name);
    std::cout << "  " << std::left << std::setw(12) << name
              << (c != nullptr ? c->Value() : 0) << "\n";
  }
  std::vector<double> utils;
  fs.CollectSegmentUtilization(&utils);
  obs::PublishUtilization(utils);
  const obs::Gauge* segments = obs::Registry().FindGauge("logfs.seg.util.segments");
  const obs::Gauge* mean = obs::Registry().FindGauge("logfs.seg.util.mean");
  const double population = segments != nullptr ? segments->Value() : 0.0;
  std::cout << "\nutilization distribution (" << static_cast<uint64_t>(population)
            << " occupied segments, mean u="
            << TablePrinter::Fixed(mean != nullptr ? mean->Value() : 0.0, 3) << "):\n";
  for (size_t b = 0; b < obs::kUtilBuckets; ++b) {
    const obs::Gauge* g =
        obs::Registry().FindGauge("logfs.seg.util.bucket" + std::to_string(b));
    const double count = g != nullptr ? g->Value() : 0.0;
    std::cout << "  [" << TablePrinter::Fixed(0.1 * static_cast<double>(b), 1) << ","
              << TablePrinter::Fixed(0.1 * static_cast<double>(b + 1), 1) << ") "
              << std::setw(4) << static_cast<uint64_t>(count) << "  "
              << std::string(static_cast<size_t>(
                     population > 0 ? 50.0 * count / population : 0.0), '#')
              << "\n";
  }
  return 0;
}

// `heat`: per-segment overwrite-interval EWMA maintained by the usage table.
// Smaller intervals = hotter data; the cleaner's cost-benefit policy wants
// exactly this signal (cold segments are worth cleaning at higher u).
int DumpHeat(LfsFileSystem& fs, double now) {
  if (!obs::kMetricsEnabled) {
    std::cerr << "metrics are compiled out (built with LOGFS_METRICS=OFF)\n";
    return 1;
  }
  const LfsSuperblock& sb = fs.superblock();
  const double capacity = static_cast<double>(sb.BlocksPerSegment()) * sb.block_size;
  TablePrinter table({"segment", "state", "util", "age (s)", "heat ewma (s)"});
  uint32_t shown = 0;
  for (uint32_t seg = 0; seg < sb.num_segments && shown < 40; ++seg) {
    const SegUsage& u = fs.usage().Get(seg);
    if (u.state == SegState::kClean) {
      continue;
    }
    const char* state = u.state == SegState::kActive        ? "active"
                        : u.state == SegState::kDirty       ? "dirty"
                        : u.state == SegState::kCleanPending ? "pending"
                                                             : "quarantined";
    table.AddRow({std::to_string(seg), state,
                  TablePrinter::Fixed(static_cast<double>(u.live_bytes) / capacity, 3),
                  u.allocated_at > 0.0 ? TablePrinter::Fixed(now - u.allocated_at, 3) : "-",
                  u.heat_interval_ewma > 0.0 ? TablePrinter::Fixed(u.heat_interval_ewma, 6)
                                             : "-"});
    ++shown;
  }
  table.Print(std::cout);
  std::cout << "\n('-' = never overwritten since allocation: cold or freshly"
               " written data)\n";
  return 0;
}

// Demonstrates the media-fault machinery end to end: finds a live data
// block by decoding raw summaries (newest log copy whose inode-map version
// is current), flips one byte of it on the raw medium, and runs a full
// scrub pass. The scrubber must detect the corruption, quarantine the
// segment, and salvage the still-verifiable live blocks to new homes.
int RunScrub(MemoryDisk& disk, LfsFileSystem& fs, const LfsSuperblock& sb) {
  struct Candidate {
    uint64_t seq = 0;
    DiskAddr addr = kNoAddr;
  };
  std::map<std::pair<uint32_t, int64_t>, Candidate> newest;
  for (uint32_t seg = 0; seg < sb.num_segments; ++seg) {
    for (SummaryChain chain(&disk, sb, seg, ChainMode::kStrict); chain.Next();) {
      std::vector<std::byte> content(static_cast<size_t>(chain.peek().nblocks) * sb.block_size);
      if (!disk.ReadSectors(sb.SegmentBlockSector(seg, chain.offset() + 1), content).ok()) {
        break;
      }
      auto summary = DecodeSummary(chain.summary_block(), content);
      if (!summary.ok()) {
        continue;
      }
      for (size_t i = 0; i < summary->entries.size(); ++i) {
        const SummaryEntry& entry = summary->entries[i];
        if (entry.kind != BlockKind::kData || !fs.imap().IsValid(entry.ino)) {
          continue;
        }
        const ImapEntry& map_entry = fs.imap().Get(entry.ino);
        if (!map_entry.allocated || map_entry.version != entry.version) {
          continue;
        }
        Candidate& candidate = newest[{entry.ino, entry.offset}];
        if (summary->seq >= candidate.seq) {
          candidate.seq = summary->seq;
          candidate.addr =
              sb.SegmentBlockSector(seg, chain.offset() + 1 + static_cast<uint32_t>(i));
        }
      }
    }
  }
  if (newest.empty()) {
    std::cerr << "no live data block found to corrupt\n";
    return 1;
  }
  const Candidate victim = newest.begin()->second;
  const uint32_t victim_seg = sb.SegmentOfSector(victim.addr);
  std::cout << "flipping one byte of live data at sector " << victim.addr << " (segment "
            << victim_seg << ")\n\n";
  disk.MutableRawImage()[victim.addr * kSectorSize + 100] ^= std::byte{0xFF};

  auto report = fs.Scrub(sb.num_segments);
  if (!report.ok()) {
    std::cerr << "scrub failed: " << report.status().ToString() << "\n";
    return 1;
  }
  std::cout << "scrub report:\n"
            << "  segments scanned      " << report->segments_scanned << "\n"
            << "  partials verified     " << report->partials_verified << "\n"
            << "  blocks verified       " << report->blocks_verified << "\n"
            << "  checksum failures     " << report->checksum_failures << "\n"
            << "  media errors          " << report->media_errors << "\n"
            << "  segments quarantined  " << report->segments_quarantined << "\n"
            << "  blocks salvaged       " << report->blocks_salvaged << "\n\n";
  DumpSegments(fs);
  std::cout << "\nquarantined segments now: " << fs.QuarantinedSegmentCount() << "\n";
  return report->segments_quarantined > 0 ? 0 : 1;
}

// `heatmap`: the cleaner's cost-benefit picture. Buckets every dirty segment
// by utilization decile (columns) and write age (rows, newest first, age
// measured in log sequence numbers via SegUsage::last_write_seq). Greedy
// picks the leftmost column; the paper's cost-benefit policy would prefer
// the bottom-left corner (cold AND empty).
int DumpHeatmap(const LfsFileSystem& fs) {
  const LfsSuperblock& sb = fs.superblock();
  struct SegInfo {
    double u = 0.0;
    uint64_t seq = 0;
  };
  std::vector<SegInfo> dirty;
  uint64_t min_seq = UINT64_MAX, max_seq = 0;
  for (uint32_t seg = 0; seg < sb.num_segments; ++seg) {
    const SegUsage& entry = fs.usage().Get(seg);
    if (entry.state != SegState::kDirty && entry.state != SegState::kCleanPending) {
      continue;
    }
    SegInfo info;
    info.u = static_cast<double>(entry.live_bytes) / static_cast<double>(sb.segment_size);
    info.seq = entry.last_write_seq;
    min_seq = std::min(min_seq, info.seq);
    max_seq = std::max(max_seq, info.seq);
    dirty.push_back(info);
  }
  if (dirty.empty()) {
    std::cout << "no dirty segments — nothing to map\n";
    return 0;
  }

  constexpr int kAgeRows = 5;
  int counts[kAgeRows][10] = {};
  for (const SegInfo& info : dirty) {
    const double age_frac =
        max_seq == min_seq
            ? 0.0
            : static_cast<double>(max_seq - info.seq) / static_cast<double>(max_seq - min_seq);
    const int row = std::min(kAgeRows - 1, static_cast<int>(age_frac * kAgeRows));
    const int col = std::min(9, static_cast<int>(info.u * 10.0));
    ++counts[row][col];
  }

  std::cout << "segment heatmap: " << dirty.size()
            << " dirty segments, rows = write age (log seq " << max_seq << " down to "
            << min_seq << "), cols = utilization decile\n\n";
  std::cout << "            u: 0    1    2    3    4    5    6    7    8    9\n";
  const char* labels[kAgeRows] = {"newest ", "       ", "       ", "       ", "oldest "};
  for (int row = 0; row < kAgeRows; ++row) {
    std::cout << "  " << labels[row] << "    ";
    for (int col = 0; col < 10; ++col) {
      if (counts[row][col] == 0) {
        std::cout << "   . ";
      } else {
        std::cout << std::setw(4) << counts[row][col] << " ";
      }
    }
    std::cout << "\n";
  }
  std::cout << "\n(greedy cleans the leftmost column; cost-benefit would favour"
               " the lower-left corner)\n";
  return 0;
}

// `blackbox`: crash forensics. Reads the telemetry ring back out of the raw
// image bytes alone — no mount, no checkpoint decode required — exactly what
// a postmortem of a corrupted volume would do, then replays the recovered
// samples for the busiest counters.
int DumpBlackBox(std::span<std::byte> image) {
  if (!obs::kMetricsEnabled) {
    std::cerr << "metrics are compiled out (built with LOGFS_METRICS=OFF); "
                 "no black box is embedded\n";
    return 1;
  }
  auto recovered = RecoverBlackBoxFromImage(image);
  if (!recovered.ok()) {
    std::cerr << "black box unrecoverable: " << recovered.status().ToString() << "\n";
    return 1;
  }
  const obs::TelemetryRing& ring = recovered->ring;
  std::cout << "black box recovered from checkpoint region "
            << (recovered->region == 0 ? "A" : "B") << ": ring seq=" << ring.seq << ", "
            << ring.samples.size() << " samples, " << ring.counter_names.size()
            << " counters, " << ring.gauge_names.size() << " gauges, "
            << ring.hist_names.size() << " histograms\n\n";
  if (ring.samples.empty()) {
    std::cout << "(ring is empty — volume crashed before its first sample)\n";
    return 0;
  }

  // Replay the ring for the counters with the largest final values.
  const size_t last = ring.samples.size() - 1;
  std::vector<size_t> order(ring.counter_names.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ring.CounterAt(last, a) > ring.CounterAt(last, b);
  });
  const size_t ncols = std::min<size_t>(order.size(), 4);
  std::vector<std::string> header = {"sample", "t (s)"};
  for (size_t i = 0; i < ncols; ++i) {
    header.push_back(ring.counter_names[order[i]]);
  }
  TablePrinter table(header);
  const size_t first_shown = ring.samples.size() > 12 ? ring.samples.size() - 12 : 0;
  if (first_shown > 0) {
    std::vector<std::string> ellipsis(header.size(), "");
    ellipsis[0] = "...";
    table.AddRow(ellipsis);
  }
  for (size_t s = first_shown; s < ring.samples.size(); ++s) {
    std::ostringstream t;
    t << std::fixed << std::setprecision(3) << ring.samples[s].t;
    std::vector<std::string> row = {std::to_string(s), t.str()};
    for (size_t i = 0; i < ncols; ++i) {
      row.push_back(std::to_string(ring.CounterAt(s, order[i])));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  return 0;
}

// `serve`: stands up a small lease-based file-service cluster, walks it into
// an interesting state (a writer crashes holding the write lease; the expiry
// backstop reclaims it; then a Zipf shared load runs), and dumps every
// introspection surface along the way — the server's lease table and parked
// queue, per-session RPC state, and each client's handle and cache view.
int RunServe() {
  using namespace logfs::serve;
  ServeClusterParams params;
  params.clients = 6;
  auto cluster = ServeCluster::Create(params);
  if (!cluster.ok()) {
    std::cerr << "cluster create failed: " << cluster.status().ToString() << "\n";
    return 1;
  }
  ServeCluster& c = **cluster;

  auto open_sync = [&c](Client* client, const std::string& path) -> uint64_t {
    uint64_t handle = 0;
    client->Open(path, [&](Result<uint64_t> r) { handle = r.ok() ? *r : 0; });
    (void)c.Settle();
    return handle;
  };
  auto dump_leases = [&c]() {
    TablePrinter table({"fh", "path", "client", "kind", "expires_at", "recalled"});
    const auto& paths = c.server()->handle_paths();
    for (const auto& entry : c.server()->leases().Dump(c.clock()->Now())) {
      auto p = paths.find(entry.fh);
      table.AddRow({TablePrinter::Int(entry.fh),
                    p == paths.end() ? "?" : p->second,
                    TablePrinter::Int(entry.client),
                    LeaseKindName(entry.record.kind),
                    TablePrinter::Fixed(entry.record.expires_at, 3),
                    entry.record.recall_posted ? "yes" : "no"});
    }
    table.Print(std::cout);
  };
  auto dump_parked = [&c]() {
    TablePrinter table({"client", "op", "fh", "want", "since"});
    for (const auto& p : c.server()->DumpParked()) {
      table.AddRow({TablePrinter::Int(p.client), OpKindName(p.op),
                    TablePrinter::Int(p.fh), LeaseKindName(p.want),
                    TablePrinter::Fixed(p.since, 3)});
    }
    table.Print(std::cout);
  };

  {
    PathFs pathfs(c.fs());
    (void)pathfs.MkdirAll("/shared");  // Open auto-creates files, not parents.
  }

  // Stage 1: client 5 takes the write lease on the hot file (its write lands
  // only in its private cache), then dies without a word. Client 0's write
  // must recall a lease whose holder will never answer.
  Client* doomed = c.client(5);
  const uint64_t hd = open_sync(doomed, "/shared/hot");
  doomed->Write(hd, 0, std::vector<std::byte>(4096, std::byte{0x55}), [](Status) {});
  (void)c.Settle();
  c.CrashClient(5);

  Client* writer = c.client(0);
  const uint64_t hw = open_sync(writer, "/shared/hot");
  bool wrote = false;
  writer->Write(hw, 0, std::vector<std::byte>(4096, std::byte{0xAA}),
                [&wrote](Status) { wrote = true; });
  (void)c.RunFor(2.0);

  std::cout << "-- stage 1: writer crashed holding the write lease; revoke "
               "unanswered (t=" << TablePrinter::Fixed(c.clock()->Now(), 2)
            << "s)\n\nlease table:\n";
  dump_leases();
  std::cout << "\nparked requests (waiting on the dead holder):\n";
  dump_parked();

  // Stage 2: nothing arrives from the dead client, so the lease dies on the
  // clock and the parked write proceeds — the expiry backstop in action.
  (void)c.RunFor(params.lease_seconds + 1.0);
  (void)c.Settle();
  std::cout << "\n-- stage 2: lease expired at t="
            << TablePrinter::Fixed(c.clock()->Now(), 2)
            << "s; parked write " << (wrote ? "completed" : "still waiting")
            << "; dead client's dirty block was never written (volatile-cache "
               "contract)\n\nlease table:\n";
  dump_leases();

  // Stage 3: a Zipf-shared load across the surviving clients.
  logfs::ServeLoadParams lp;
  lp.clients = 5;
  lp.files = 24;
  lp.ops_per_client = 40;
  lp.write_fraction = 0.3;
  lp.mean_think_seconds = 0.02;
  auto stats = DriveSharedLoad(c, logfs::MakeSharedLoad(lp));
  if (!stats.ok()) {
    std::cerr << "load failed: " << stats.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n-- stage 3: Zipf(s=" << TablePrinter::Fixed(lp.zipf_s, 1)
            << ") shared load, " << lp.clients << " clients x " << lp.ops_per_client
            << " ops: " << stats->ops_completed << " ops, " << stats->errors
            << " errors\n\nserver: epoch=" << c.server()->epoch()
            << " requests=" << c.server()->requests_received()
            << " dup_suppressed=" << c.server()->duplicates_suppressed()
            << " revokes=" << c.server()->revokes_sent()
            << " stale_writebacks=" << c.server()->stale_writebacks() << "\n";
  const LeaseManager& leases = c.server()->leases();
  std::cout << "leases: grants=" << leases.grants() << " renewals=" << leases.renewals()
            << " expiries=" << leases.expiries() << " releases=" << leases.releases()
            << " active=" << leases.ActiveCount(c.clock()->Now()) << "\n\nsessions:\n";
  {
    TablePrinter table({"client", "max_request_id", "cached_replies"});
    for (const auto& s : c.server()->DumpSessions()) {
      table.AddRow({TablePrinter::Int(s.client), TablePrinter::Int(s.max_request_id),
                    TablePrinter::Int(s.cached_replies)});
    }
    table.Print(std::cout);
  }
  std::cout << "\nclient caches:\n";
  {
    TablePrinter table({"client", "hits", "misses", "inval", "writebacks", "replays",
                        "evictions", "cached", "dirty"});
    for (size_t i = 0; i < c.num_clients(); ++i) {
      Client* cl = c.client(i);
      const Client::CacheStats cs = cl->cache_stats();
      table.AddRow({TablePrinter::Int(cl->id()) + (cl->crashed() ? " (dead)" : ""),
                    TablePrinter::Int(cs.hits), TablePrinter::Int(cs.misses),
                    TablePrinter::Int(cs.invalidations), TablePrinter::Int(cs.writebacks),
                    TablePrinter::Int(cs.replays), TablePrinter::Int(cs.evictions),
                    TablePrinter::Int(cs.cached_blocks), TablePrinter::Int(cs.dirty_blocks)});
    }
    table.Print(std::cout);
  }
  std::cout << "\nclient-observed latency (client 0):\n";
  {
    TablePrinter table({"op", "count", "mean_ms", "max_ms"});
    for (const auto& [op, lat] : c.client(0)->latencies()) {
      table.AddRow({op, TablePrinter::Int(lat.count),
                    TablePrinter::Fixed(lat.count > 0 ? 1e3 * lat.sum_seconds / lat.count : 0, 3),
                    TablePrinter::Fixed(1e3 * lat.max_seconds, 3)});
    }
    table.Print(std::cout);
  }
  std::cout << "\nshadow-model violations: " << c.shadow().violation_count() << "\n";
  return c.shadow().violation_count() == 0 ? 0 : 1;
}

// `shards`: the multi-log volume, one log at a time. Builds a 4-shard
// volume, drives four per-directory client working sets through the router
// (files colocate with their directory, so each client's data lands on one
// log), deletes enough to give the cleaners work, and then renders every
// shard's segment map and cleaner economics side by side — the per-shard
// view of exactly the gauges PublishShardMetrics exports as
// logfs.shard.<i>.*.
int RunShards() {
  SimClock clock;
  MemoryDisk disk(131072, &clock);  // 64 MB over 4 logs of 16 MB.
  LfsParams params;
  params.max_inodes = 2048;
  if (!ShardedLfs::Format(&disk, params, 4).ok()) {
    return 1;
  }
  auto fs = ShardedLfs::Mount(&disk, &clock, nullptr);
  if (!fs.ok()) {
    return 1;
  }
  PathFs paths(fs->get());
  std::vector<std::byte> payload(8192, std::byte{0x61});
  for (int c = 0; c < 4; ++c) {
    const std::string dir = "/client" + std::to_string(c);
    (void)paths.MkdirAll(dir);
    // Uneven offered load so the shard gauges tell different stories.
    for (int i = 0; i < 100 + 60 * c; ++i) {
      (void)paths.WriteFile(dir + "/f" + std::to_string(i), payload);
    }
    for (int i = 0; i < 100 + 60 * c; i += 2) {
      (void)paths.Unlink(dir + "/f" + std::to_string(i));
    }
  }
  (void)(*fs)->Sync();
  (void)(*fs)->CleanNow(4);
  (*fs)->PublishShardMetrics();

  for (uint32_t i = 0; i < (*fs)->shard_count(); ++i) {
    const LfsFileSystem& shard = *(*fs)->shard(i);
    const LfsSuperblock& sb = shard.superblock();
    const double capacity = static_cast<double>(sb.num_segments) *
                            static_cast<double>(sb.segment_size);
    const double util =
        capacity > 0.0 ? static_cast<double>(shard.TotalLiveBytes()) / capacity : 0.0;
    const LfsFileSystem::CleanerStats& cs = shard.cleaner_stats();
    const obs::Gauge* cost = obs::Registry().FindGauge(
        "logfs.shard." + std::to_string(i) + ".write_cost");
    std::cout << "shard " << i << ": " << sb.num_segments << " segments x "
              << sb.segment_size / 1024 << "KB  live=" << shard.TotalLiveBytes() / 1024
              << "KB (u=" << std::fixed << std::setprecision(3) << util << ")  clean="
              << shard.CleanSegmentCount() << "  ckpts=" << shard.checkpoint_count()
              << "\n  cleaner: passes=" << cs.passes
              << " segments_cleaned=" << cs.segments_cleaned
              << "  write_cost=" << std::setprecision(3)
              << (cost != nullptr ? cost->Value() : 0.0) << "\n";
    DumpSegments(shard);
    std::cout << "\n";
  }
  return 0;
}

const char* IntentKindName(IntentKind kind) {
  switch (kind) {
    case IntentKind::kMarker: return "marker";
    case IntentKind::kCreate: return "create";
    case IntentKind::kLink:   return "link";
    case IntentKind::kUnlink: return "unlink";
    case IntentKind::kRmdir:  return "rmdir";
    case IntentKind::kRename: return "rename";
  }
  return "?";
}

// One decoded slot: its state as the newest mask leaves it, the free mask
// it carries, then what the op names (a marker names nothing).
void PrintIntentRecord(const LoadedIntent& li) {
  const IntentRecord& r = li.record;
  std::cout << "  slot " << std::setw(2) << li.slot << "  op " << std::setw(3) << r.op_id
            << "  " << (li.state == IntentState::kPending ? "PENDING" : "RETIRED")
            << "  free 0x" << std::hex << std::setw(16) << std::setfill('0') << li.free_mask
            << std::dec << std::setfill(' ') << "  " << IntentKindName(r.kind);
  if (r.kind == IntentKind::kMarker) {
    std::cout << "\n";
    return;
  }
  std::cout << "  dir " << r.from_dir << "/'" << r.from_name << "'";
  if (r.kind == IntentKind::kRename) {
    std::cout << " -> dir " << r.to_dir << "/'" << r.to_name << "'";
  }
  std::cout << "  child " << r.child;
  if (r.victim != 0) {
    std::cout << "  victim " << r.victim;
  }
  std::cout << "\n";
}

// `intents`: the cross-shard intent log at work. Builds a 4-shard volume,
// drives cross-shard namespace ops to completion (their intents retire at
// the Sync barrier), then leaves a batch of ops applied-but-unretired,
// dumps the raw region both ways, and finally "crashes" — remounts a copy
// of the raw image — to show the mount-time reconciliation verdicts.
int RunIntents() {
  std::cout << "=== lfs_inspect intents: the cross-shard intent log ===\n\n";
  const uint64_t kSectors = 131072;
  SimClock clock;
  MemoryDisk disk(kSectors, &clock);
  LfsParams params;
  params.max_inodes = 2048;
  if (!ShardedLfs::Format(&disk, params, 4).ok()) {
    return 1;
  }
  auto fs = ShardedLfs::Mount(&disk, &clock, nullptr);
  if (!fs.ok()) {
    return 1;
  }
  const LfsSuperblock& sb = (*fs)->shard(0)->superblock();
  std::cout << "region: " << sb.intent_sectors << " sectors at sector "
            << sb.intent_start_sector << " (" << kIntentSlots << " slots x "
            << kIntentSlotBytes << " B)\n\n";

  // Round 1: cross-shard traffic that runs to durability. Directory
  // affinity means a file created in a directory lands on that directory's
  // shard, so renaming between two directories on different shards is a
  // genuine two-shard op.
  PathFs paths(fs->get());
  (void)paths.MkdirAll("/a");
  (void)paths.MkdirAll("/b");
  std::vector<std::byte> payload(4096, std::byte{0x62});
  for (int i = 0; i < 6; ++i) {
    (void)paths.WriteFile("/a/f" + std::to_string(i), payload);
  }
  auto a = paths.Resolve("/a");
  auto b = paths.Resolve("/b");
  if (!a.ok() || !b.ok()) {
    return 1;
  }
  for (int i = 0; i < 6; ++i) {
    (void)(*fs)->Rename(*a, "f" + std::to_string(i), *b, "r" + std::to_string(i));
  }
  // Durable horizon advances: the intents retire, and one marker records it.
  (void)(*fs)->Sync();
  const uint64_t first_unsynced = (*fs)->intent_log()->next_op_id();

  // Round 2: more cross-shard ops, NOT synced — their intents stay
  // pending on disk until a later synchronous intent write retires them.
  // Each unlink removes a name in /b from a file whose inode lives on /a's
  // shard, so it publishes too.
  for (int i = 0; i < 3; ++i) {
    (void)(*fs)->Rename(*b, "r" + std::to_string(i), *a, "back" + std::to_string(i));
    (void)(*fs)->Unlink(*b, "r" + std::to_string(i + 3));
  }

  std::cout << "--- region after 6 synced renames + 6 unsynced ops ---\n";
  IntentLog log(&disk, sb.intent_start_sector, sb.intent_sectors);
  auto scan = log.LoadAll();
  if (!scan.ok()) {
    return 1;
  }
  std::map<IntentKind, int> pending;
  bool synced_retired = true;
  for (const LoadedIntent& li : scan->records) {
    PrintIntentRecord(li);
    if (li.state == IntentState::kPending && li.record.op_id < first_unsynced) {
      synced_retired = false;
    } else if (li.state == IntentState::kPending) {
      ++pending[li.record.kind];
    }
  }
  const bool as_expected =
      synced_retired &&
      pending == std::map<IntentKind, int>{{IntentKind::kUnlink, 3}, {IntentKind::kRename, 3}};
  std::cout << scan->records.size() << " decodable slots; the synced round reads "
            << (synced_retired ? "retired" : "PENDING") << "; pending: "
            << pending[IntentKind::kRename] << " renames, " << pending[IntentKind::kUnlink]
            << " unlinks (expected 3 and 3, the unsynced ops)\n\n";
  if (!as_expected) {
    return 1;
  }

  // Crash now: remount a copy of the raw image. Per-shard roll-forward
  // replays what it can; the pending intents drive the cross-shard
  // reconciliation; the verdicts land in reconcile_report().
  std::cout << "--- crash + remount: mount-time reconciliation ---\n";
  SimClock clock2;
  MemoryDisk disk2(kSectors, &clock2);
  std::span<const std::byte> raw = disk.RawImage();
  std::copy(raw.begin(), raw.end(), disk2.MutableRawImage().begin());
  auto fs2 = ShardedLfs::Mount(&disk2, &clock2, nullptr);
  if (!fs2.ok()) {
    std::cerr << "remount failed: " << fs2.status().ToString() << "\n";
    return 1;
  }
  const std::optional<RepairReport>& rep = (*fs2)->reconcile_report();
  if (!rep.has_value()) {
    std::cout << "no reconciliation ran (no intent region)\n";
    return 1;
  }
  std::cout << rep->intents_settled << " intents settled, " << rep->total_edits()
            << " namespace edits\n";
  for (const std::string& action : rep->actions) {
    std::cout << "  " << action << "\n";
  }
  auto report = CheckShardedLfs(fs2->get());
  if (!report.ok()) {
    return 1;
  }
  std::cout << "post-reconcile check: " << report->Summary() << "\n";
  return report->ok() ? 0 : 1;
}

// `check [--repair]`: the global checker and the online repairer against a
// volume with damage no intent names (a dangling dirent, an orphan, a wrong
// nlink), seeded through the shard seams — the shape an intent region lost
// to media faults would leave.
// Exits nonzero on unreconciled damage; `--repair` fixes in place and exits
// zero once the post-repair re-check is clean.
int RunCheck(const char* arg) {
  const bool repair = arg != nullptr && std::strcmp(arg, "--repair") == 0;
  std::cout << "=== lfs_inspect check: global namespace check"
            << (repair ? " + online repair" : "") << " ===\n\n";
  SimClock clock;
  MemoryDisk disk(131072, &clock);
  LfsParams params;
  params.max_inodes = 2048;
  if (!ShardedLfs::Format(&disk, params, 4).ok()) {
    return 1;
  }
  auto fs = ShardedLfs::Mount(&disk, &clock, nullptr);
  if (!fs.ok()) {
    return 1;
  }
  PathFs paths(fs->get());
  (void)paths.MkdirAll("/docs");
  std::vector<std::byte> payload(4096, std::byte{0x63});
  for (int i = 0; i < 8; ++i) {
    (void)paths.WriteFile("/docs/f" + std::to_string(i), payload);
  }
  (void)(*fs)->Sync();

  // Seed the damage through the namespace edits (router quiescent).
  auto dir = paths.Resolve("/docs");
  auto f0 = paths.Resolve("/docs/f0");
  if (!dir.ok() || !f0.ok()) {
    return 1;
  }
  const uint32_t n = (*fs)->shard_count();
  (void)(*fs)->shard((*fs)->ShardOf(*dir))
      ->DirInsert(*dir, "dangles", *f0 + 64 * n, FileType::kRegular);
  (void)(*fs)->shard(((*fs)->ShardOf(*dir) + 1) % n)->AllocInode(FileType::kRegular, *dir);
  (void)(*fs)->shard((*fs)->ShardOf(*f0))->SetNlink(*f0, 7);

  auto before = CheckShardedLfs(fs->get());
  if (!before.ok()) {
    return 1;
  }
  std::cout << "check: " << before->Summary() << "\n";
  if (!repair) {
    return before->ok() ? 0 : 1;
  }

  auto repaired = CheckShardedLfs(fs->get(), /*verify_data=*/true,
                                  RepairMode::kRepair);
  if (!repaired.ok()) {
    return 1;
  }
  std::cout << "\nrepair: " << repaired->repairs_applied << " edits\n";
  for (const std::string& action : repaired->repair_actions) {
    std::cout << "  " << action << "\n";
  }
  std::cout << "post-repair check: " << repaired->Summary() << "\n";
  return repaired->ok() ? 0 : 1;
}

// Shared rig for the tracing verbs: a lossy 4-client cluster under a seeded
// Zipf load, so the trees show every attribution class at once — dropped
// attempts (retransmit), recalls and fairness barriers (lease_wait), dedup
// absorption, and the LFS's own disk/cleaner/cache split.
int RunTraced(const char* verb, const char* arg) {
  if (!obs::kMetricsEnabled) {
    std::cerr << "tracing is compiled out (built with LOGFS_METRICS=OFF)\n";
    return 1;
  }
  using namespace logfs::serve;
  ServeClusterParams params;
  params.clients = 4;
  params.transport.drop_probability = 0.05;
  auto cluster = ServeCluster::Create(params);
  if (!cluster.ok()) {
    std::cerr << "cluster create failed: " << cluster.status().ToString() << "\n";
    return 1;
  }
  ServeCluster& c = **cluster;
  {
    PathFs pathfs(c.fs());
    (void)pathfs.MkdirAll("/shared");
  }
  logfs::ServeLoadParams lp;
  lp.clients = 4;
  lp.files = 8;
  lp.ops_per_client = 60;
  lp.write_fraction = 0.4;
  lp.mean_think_seconds = 0.005;
  auto stats = DriveSharedLoad(c, logfs::MakeSharedLoad(lp));
  if (!stats.ok()) {
    std::cerr << "load failed: " << stats.status().ToString() << "\n";
    return 1;
  }

  const std::vector<obs::TraceEvent> events = obs::Tracer().Events();
  const std::vector<obs::TraceTree> trees = obs::AssembleTraceTrees(events);
  obs::SloTracker slo(/*target_seconds=*/0.050);
  std::vector<obs::Breakdown> breakdowns;
  breakdowns.reserve(trees.size());
  for (const obs::TraceTree& tree : trees) {
    obs::Breakdown b = obs::AnalyzeCriticalPath(tree);
    if (b.category == "serve.op") {  // User requests only; flushes ride along.
      slo.Observe(b);
    }
    breakdowns.push_back(std::move(b));
  }
  slo.Publish();

  if (std::strcmp(verb, "slo") == 0) {
    std::cout << "traced " << trees.size() << " traces over "
              << stats->ops_completed << " completed ops ("
              << c.transport()->dropped() << " messages dropped)\n\n";
    const obs::MetricsSnapshot snap = obs::Registry().Snapshot();
    auto gauge = [&snap](const std::string& name) {
      auto it = snap.gauges.find(name);
      return it == snap.gauges.end() ? 0.0 : it->second;
    };
    auto counter = [&snap](const std::string& name) -> uint64_t {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    std::cout << "SLO target: " << gauge("logfs.slo.target_us") << " us\n\n";
    std::set<std::string> ops;
    for (const obs::Breakdown& b : breakdowns) {
      if (b.category == "serve.op") {
        ops.insert(b.op);
      }
    }
    TablePrinter table({"op", "count", "p50_us", "p99_us", "violations"});
    for (const std::string& op : ops) {
      const std::string prefix = "logfs.slo." + op;
      auto hist = snap.histograms.find(prefix + ".latency_us");
      const uint64_t count =
          hist == snap.histograms.end() ? 0 : hist->second.count;
      table.AddRow({op, TablePrinter::Int(count),
                    TablePrinter::Fixed(gauge(prefix + ".p50_us"), 0),
                    TablePrinter::Fixed(gauge(prefix + ".p99_us"), 0),
                    TablePrinter::Int(counter(prefix + ".violations"))});
    }
    table.Print(std::cout);
    std::cout << "\ncritical-path time by class (logfs.path.*, all ops):\n";
    TablePrinter classes({"class", "total_us", "share"});
    double class_us[obs::kPathClassCount] = {};
    double total_us = 0.0;
    for (const obs::Breakdown& b : breakdowns) {
      if (b.category != "serve.op") {
        continue;
      }
      for (size_t i = 0; i < obs::kPathClassCount; ++i) {
        class_us[i] += b.seconds[i] * 1e6;
        total_us += b.seconds[i] * 1e6;
      }
    }
    for (size_t i = 0; i < obs::kPathClassCount; ++i) {
      classes.AddRow({obs::PathClassName(static_cast<obs::PathClass>(i)),
                      TablePrinter::Fixed(class_us[i], 0),
                      TablePrinter::Fixed(
                          total_us > 0.0 ? 100.0 * class_us[i] / total_us : 0.0, 1) + "%"});
    }
    classes.Print(std::cout);
    std::cout << "\nwasted RPC attempts: "
              << counter("logfs.serve.rpc.wasted_attempts") << " of "
              << counter("logfs.serve.rpc.attempts") << " sent\n";
    return 0;
  }

  // trace-tree: one request, rendered as an indented span tree plus its
  // exact per-class attribution. Default subject: the slowest user op.
  uint64_t want_id = 0;
  if (arg != nullptr) {
    want_id = std::strtoull(arg, nullptr, 10);
  } else {
    double slowest = -1.0;
    for (const obs::Breakdown& b : breakdowns) {
      if (b.category == "serve.op" && b.total_seconds > slowest) {
        slowest = b.total_seconds;
        want_id = b.trace_id;
      }
    }
  }
  const obs::TraceTree* tree = obs::FindTree(trees, want_id);
  if (tree == nullptr) {
    std::cerr << "no trace with id " << want_id << " in the ring ("
              << trees.size() << " traces held)\n";
    return 1;
  }
  const obs::Breakdown b = obs::AnalyzeCriticalPath(*tree);
  std::cout << "trace " << b.trace_id << ": " << b.category << "/" << b.op
            << "  total=" << TablePrinter::Fixed(b.total_seconds * 1e6, 1) << "us\n\n";
  const double t0 = tree->nodes[tree->root].event.start_seconds;
  std::function<void(size_t, int)> print = [&](size_t i, int depth) {
    const obs::TraceEvent& ev = tree->nodes[i].event;
    std::cout << std::string(static_cast<size_t>(depth) * 2, ' ') << ev.category << "/"
              << ev.name << "  [" << TablePrinter::Fixed((ev.start_seconds - t0) * 1e6, 1)
              << "us +" << TablePrinter::Fixed(ev.duration_seconds * 1e6, 1) << "us]";
    for (const auto& [k, v] : ev.args) {
      std::cout << " " << k << "=" << v;
    }
    if (!ev.links.empty()) {
      std::cout << " links=";
      for (size_t l = 0; l < ev.links.size(); ++l) {
        std::cout << (l > 0 ? "," : "") << ev.links[l];
      }
    }
    std::cout << "\n";
    for (size_t child : tree->nodes[i].children) {
      print(child, depth + 1);
    }
  };
  print(tree->root, 0);
  std::cout << "\ncritical path:\n";
  for (size_t i = 0; i < obs::kPathClassCount; ++i) {
    if (b.seconds[i] > 0.0) {
      std::cout << "  " << std::setw(12) << std::left
                << obs::PathClassName(static_cast<obs::PathClass>(i))
                << TablePrinter::Fixed(b.seconds[i] * 1e6, 1) << "us ("
                << TablePrinter::Fixed(100.0 * b.seconds[i] / b.total_seconds, 1)
                << "%)\n";
    }
  }
  std::cout << "  sum " << TablePrinter::Fixed(b.Sum() * 1e6, 1) << "us vs total "
            << TablePrinter::Fixed(b.total_seconds * 1e6, 1) << "us\n";
  return 0;
}

// Every verb the tool understands, in help order. Verbs that require an
// operand say so; main() enforces it before any volume is built, so a typo
// or missing path fails fast with a nonzero exit instead of running the
// default dump.
struct VerbSpec {
  const char* name;
  const char* operand;  // nullptr = none; leading '[' marks it optional.
  const char* what;
};
constexpr VerbSpec kVerbs[] = {
    {"metrics", nullptr, "metrics registry snapshot + derived write cost"},
    {"trace", nullptr, "Chrome trace_event JSON of the span/event ring"},
    {"iostat", nullptr, "per-source write attribution + exact-sum check"},
    {"segstat", nullptr, "segment lifecycle counters + utilization deciles"},
    {"heat", nullptr, "per-segment age and overwrite-interval EWMA"},
    {"scrub", nullptr, "corrupt a live block, then scrub + salvage it"},
    {"top", nullptr, "live counter rates from the telemetry ring"},
    {"heatmap", nullptr, "dirty segments: utilization decile x write age"},
    {"blackbox", "[image-file]", "recover the telemetry ring from raw bytes"},
    {"save", "<image-file>", "write the demo volume's raw image to a file"},
    {"serve", nullptr, "lease-based file-service cluster, live"},
    {"shards", nullptr, "per-log view of the sharded volume"},
    {"slo", nullptr, "latency percentiles and path attribution"},
    {"trace-tree", "[id]", "one request's causal span tree"},
    {"intents", nullptr, "cross-shard intent log + reconciliation"},
    {"check", "[--repair]", "global namespace check (+ online repair)"},
    {"help", nullptr, "this summary"},
};

void PrintUsage(std::ostream& os) {
  os << "usage: lfs_inspect [<verb> [<operand>]]\n\n"
        "With no verb: dump the demo volume's raw on-disk structures.\n\n"
        "verbs:\n";
  for (const VerbSpec& v : kVerbs) {
    std::string head = v.name;
    if (v.operand != nullptr) {
      head += std::string(" ") + v.operand;
    }
    os << "  " << std::left << std::setw(22) << head << v.what << "\n";
  }
}

// `save <file>` / `blackbox <file>`: the demo volume's raw image on real
// disk, and forensics over such a saved image — the pair demonstrates that
// the black box needs only bytes, not a mountable volume.
int SaveImage(MemoryDisk& disk, const char* path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::span<const std::byte> image = disk.MutableRawImage();
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  if (!out.good()) {
    std::cerr << "cannot write image to '" << path << "'\n";
    return 1;
  }
  std::cout << "wrote " << image.size() << " bytes to " << path << "\n";
  return 0;
}

int Run(const char* verb, const char* arg) {
  if (verb != nullptr && std::strcmp(verb, "blackbox") == 0 && arg != nullptr) {
    // Forensics over a previously saved raw image (see `save`): the black
    // box really does need nothing but the bytes.
    std::ifstream in(arg, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open image file '" << arg << "'\n";
      return 1;
    }
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    std::cout << "=== lfs_inspect blackbox: telemetry forensics from " << arg
              << " ===\n\n";
    return DumpBlackBox(std::as_writable_bytes(std::span<char>(raw)));
  }
  if (verb != nullptr && std::strcmp(verb, "serve") == 0) {
    std::cout << "=== lfs_inspect serve: a lease-based file-service cluster, live ===\n\n";
    return RunServe();
  }
  if (verb != nullptr && std::strcmp(verb, "shards") == 0) {
    std::cout << "=== lfs_inspect shards: per-log view of the sharded volume ===\n\n";
    return RunShards();
  }
  if (verb != nullptr && std::strcmp(verb, "intents") == 0) {
    return RunIntents();
  }
  if (verb != nullptr && std::strcmp(verb, "check") == 0) {
    return RunCheck(arg);
  }
  if (verb != nullptr && std::strcmp(verb, "slo") == 0) {
    std::cout << "=== lfs_inspect slo: latency percentiles and path attribution ===\n\n";
    return RunTraced(verb, arg);
  }
  if (verb != nullptr && std::strcmp(verb, "trace-tree") == 0) {
    std::cout << "=== lfs_inspect trace-tree: one request's causal span tree ===\n\n";
    return RunTraced(verb, arg);
  }
  // Build a demonstration volume with history: files, deletions, cleaning.
  SimClock clock;
  MemoryDisk disk(131072, &clock);
  LfsParams params;
  params.max_inodes = 2048;
  if (!LfsFileSystem::Format(&disk, params).ok()) {
    return 1;
  }
  {
    auto fs = LfsFileSystem::Mount(&disk, &clock, nullptr);
    if (!fs.ok()) {
      return 1;
    }
    PathFs paths(fs->get());
    (void)paths.MkdirAll("/projects/demo");
    std::vector<std::byte> payload(8192, std::byte{0x61});
    for (int i = 0; i < 400; ++i) {
      (void)paths.WriteFile("/projects/demo/f" + std::to_string(i), payload);
    }
    (void)(*fs)->Sync();
    for (int i = 0; i < 400; i += 2) {
      (void)paths.Unlink("/projects/demo/f" + std::to_string(i));
    }
    (void)(*fs)->Sync();
    (void)(*fs)->CleanNow(4);

    if (verb != nullptr && std::strcmp(verb, "metrics") == 0) {
      return DumpMetrics();
    }
    if (verb != nullptr && std::strcmp(verb, "trace") == 0) {
      std::cout << obs::Tracer().ToChromeTrace();
      return 0;
    }
    if (verb != nullptr && std::strcmp(verb, "scrub") == 0) {
      std::cout << "=== lfs_inspect scrub: inject silent corruption, then scrub ===\n\n";
      return RunScrub(disk, **fs, (*fs)->superblock());
    }
    if (verb != nullptr && std::strcmp(verb, "top") == 0) {
      std::cout << "=== lfs_inspect top: live counter rates from the telemetry ring ===\n\n";
      return DumpTop(**fs, clock.Now());
    }
    if (verb != nullptr && std::strcmp(verb, "heatmap") == 0) {
      std::cout << "=== lfs_inspect heatmap: cleaner's view of the segment pool ===\n\n";
      return DumpHeatmap(**fs);
    }
    if (verb != nullptr && std::strcmp(verb, "blackbox") == 0) {
      std::cout << "=== lfs_inspect blackbox: telemetry forensics from raw bytes ===\n\n";
      return DumpBlackBox(disk.MutableRawImage());
    }
    if (verb != nullptr && std::strcmp(verb, "iostat") == 0) {
      std::cout << "=== lfs_inspect iostat: per-source write attribution ===\n\n";
      return DumpIoStat(disk);
    }
    if (verb != nullptr && std::strcmp(verb, "segstat") == 0) {
      std::cout << "=== lfs_inspect segstat: lifecycle + utilization distribution ===\n\n";
      return DumpSegStat(**fs);
    }
    if (verb != nullptr && std::strcmp(verb, "heat") == 0) {
      std::cout << "=== lfs_inspect heat: overwrite-interval EWMA per segment ===\n\n";
      return DumpHeat(**fs, clock.Now());
    }
    if (verb != nullptr && std::strcmp(verb, "save") == 0) {
      return SaveImage(disk, arg);
    }

    std::cout << "=== lfs_inspect: raw on-disk structures of a live volume ===\n\n";
    LfsSuperblock sb;
    if (DumpSuperblock(disk, &sb) != 0) {
      return 1;
    }
    std::cout << "\n";
    DumpCheckpoints(disk, sb);
    std::cout << "\n";
    DumpSegments(**fs);
    std::cout << "\n";
    std::cout << "inode map: " << (*fs)->imap().allocated_count() << " allocated of "
              << (*fs)->imap().max_inodes() << ", " << (*fs)->imap().block_count()
              << " map blocks\n\n";
    WalkLog(disk, sb);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* verb = argc > 1 ? argv[1] : nullptr;
  const char* arg = argc > 2 ? argv[2] : nullptr;
  if (verb == nullptr) {
    return Run(nullptr, nullptr);  // Default: raw structure dump.
  }
  if (std::strcmp(verb, "help") == 0 || std::strcmp(verb, "-h") == 0 ||
      std::strcmp(verb, "--help") == 0) {
    PrintUsage(std::cout);
    return 0;
  }
  const VerbSpec* spec = nullptr;
  for (const VerbSpec& v : kVerbs) {
    if (std::strcmp(verb, v.name) == 0) {
      spec = &v;
      break;
    }
  }
  if (spec == nullptr) {
    std::cerr << "unknown verb '" << verb << "'\n\n";
    PrintUsage(std::cerr);
    return 2;
  }
  if (spec->operand != nullptr && spec->operand[0] == '<' && arg == nullptr) {
    std::cerr << "verb '" << verb << "' requires " << spec->operand << "\n\n";
    PrintUsage(std::cerr);
    return 2;
  }
  return Run(verb, arg);
}
