#include "src/crashsim/crash_image.h"

#include <algorithm>
#include <cstring>

#include "src/disk/fault_disk.h"

namespace logfs {

std::string CrashPlan::Describe() const {
  std::string out = "prefix=" + std::to_string(prefix);
  if (torn_sectors > 0) {
    out += " torn=" + std::to_string(torn_sectors);
  }
  if (dropped != kNoDrop) {
    out += " dropped=" + std::to_string(dropped);
  }
  return out;
}

CrashImageGenerator::CrashImageGenerator(std::vector<std::byte> base_image,
                                         const std::vector<WriteRecord>* writes)
    : base_image_(std::move(base_image)), writes_(writes), landed_(base_image_) {}

std::vector<CrashPlan> CrashImageGenerator::Enumerate(
    const CrashEnumerationBudget& budget, const std::vector<size_t>& barrier_positions,
    const std::vector<size_t>& forced_boundaries) const {
  const size_t n = writes_->size();
  const size_t boundaries = n + 1;  // p = 0 .. n (n = the complete image).
  size_t stride = 1;
  if (budget.max_boundaries > 0 && boundaries > budget.max_boundaries) {
    stride = (boundaries + budget.max_boundaries - 1) / budget.max_boundaries;
  }
  // True if a completed durability barrier separates writes j and p.
  auto barrier_between = [&](size_t j, size_t p) {
    for (size_t b : barrier_positions) {
      if (j < b && b <= p) {
        return true;
      }
    }
    return false;
  };

  std::vector<size_t> positions;
  for (size_t p = 0; p < boundaries; p += stride) {
    positions.push_back(p);
  }
  for (size_t f : forced_boundaries) {
    if (f < boundaries) {
      positions.push_back(f);
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()), positions.end());

  std::vector<CrashPlan> plans;
  for (size_t p : positions) {
    plans.push_back(CrashPlan{p, 0, CrashPlan::kNoDrop});
    if (p < n) {
      const uint64_t in_flight = (*writes_)[p].SectorCount();
      for (uint64_t torn : budget.torn_variants) {
        if (torn > 0 && torn < in_flight) {
          plans.push_back(CrashPlan{p, torn, CrashPlan::kNoDrop});
        }
      }
    }
    if (budget.reorder_within_epoch && p >= 2) {
      // Drop a request from the open flush epoch: same epoch as the last
      // landed write, not a barrier write, no completed barrier in between.
      const uint64_t open_epoch = (*writes_)[p - 1].epoch;
      size_t drops = 0;
      for (size_t j = p - 1; j-- > 0 && drops < CrashEnumerationBudget::kMaxDropsPerBoundary;) {
        const WriteRecord& candidate = (*writes_)[j];
        if (candidate.epoch != open_epoch) {
          break;  // Left the open epoch; everything earlier is ordered.
        }
        if (candidate.synchronous || barrier_between(j, p)) {
          break;
        }
        plans.push_back(CrashPlan{p, 0, j});
        ++drops;
      }
    }
  }
  return plans;
}

Result<OverlayDisk> CrashImageGenerator::Image(const CrashPlan& plan) {
  const size_t n = writes_->size();
  if (plan.prefix > n) {
    return InvalidArgumentError("crash plan prefix beyond journal");
  }
  if (plan.dropped != CrashPlan::kNoDrop &&
      (plan.dropped >= plan.prefix || plan.torn_sectors != 0)) {
    return InvalidArgumentError("reorder plan must drop a landed write, untorn");
  }
  if (plan.prefix < landed_prefix_) {
    landed_ = base_image_;
    landed_prefix_ = 0;
  }
  for (; landed_prefix_ < plan.prefix; ++landed_prefix_) {
    const WriteRecord& record = (*writes_)[landed_prefix_];
    std::memcpy(landed_.data() + record.first * kSectorSize, record.data.data(),
                record.data.size());
  }

  OverlayDisk image(landed_);
  if (plan.dropped != CrashPlan::kNoDrop) {
    const WriteRecord& dropped = (*writes_)[plan.dropped];
    RETURN_IF_ERROR(image.WriteSectors(dropped.first,
                                       ReplayExtent(dropped.first, dropped.SectorCount(),
                                                    plan.prefix, plan.dropped)));
  } else if (plan.torn_sectors > 0 && plan.prefix < n) {
    // The in-flight write tears through the fault injector: the same
    // CrashAfterSectors logic the in-situ crash tests use.
    FaultInjectingDisk fault(&image);
    fault.CrashAfterSectors(plan.torn_sectors, /*torn=*/true);
    const WriteRecord& record = (*writes_)[plan.prefix];
    Status written = fault.WriteSectors(record.first, record.data);
    if (!written.ok() && written.code() != ErrorCode::kCrashed) {
      return written;
    }
  }
  return image;
}

std::vector<std::byte> CrashImageGenerator::ReplayExtent(uint64_t first, uint64_t count,
                                                         size_t prefix, size_t skip) const {
  const uint64_t end = first + count;
  std::vector<std::byte> out(base_image_.begin() + static_cast<ptrdiff_t>(first * kSectorSize),
                             base_image_.begin() + static_cast<ptrdiff_t>(end * kSectorSize));
  for (size_t i = 0; i < prefix; ++i) {
    const WriteRecord& record = (*writes_)[i];
    const uint64_t lo = std::max(first, record.first);
    const uint64_t hi = std::min(end, record.first + record.SectorCount());
    if (i != skip && lo < hi) {
      std::memcpy(out.data() + (lo - first) * kSectorSize,
                  record.data.data() + (lo - record.first) * kSectorSize,
                  (hi - lo) * kSectorSize);
    }
  }
  return out;
}

}  // namespace logfs
