// The reference a crash image is checked against: a plain full replay of
// the plan onto the base image. Writes [0, prefix) land in journal order,
// except the dropped one; then the first `torn_sectors` sectors of write
// `prefix` land. CrashImageGenerator::Image must read back the same bytes
// for every plan it enumerates, however it builds them.
#ifndef LOGFS_TESTS_CRASH_REFERENCE_H_
#define LOGFS_TESTS_CRASH_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/crashsim/crash_image.h"

namespace logfs {

// Replays `plan` into `image`, which must hold the base image on entry.
inline void ReplayCrashPlan(const std::vector<WriteRecord>& writes, const CrashPlan& plan,
                            std::vector<std::byte>* image) {
  auto land = [&](const WriteRecord& record, uint64_t sectors) {
    std::memcpy(image->data() + record.first * kSectorSize, record.data.data(),
                sectors * kSectorSize);
  };
  for (size_t i = 0; i < plan.prefix; ++i) {
    if (i != plan.dropped) {
      land(writes[i], writes[i].SectorCount());
    }
  }
  if (plan.torn_sectors > 0 && plan.prefix < writes.size()) {
    land(writes[plan.prefix], std::min(plan.torn_sectors, writes[plan.prefix].SectorCount()));
  }
}

// Enumerates every crash plan of the journal (every boundary, torn
// {1, 4, 8, 12}, reorder within the open epoch) and expects each image to
// equal the full replay byte for byte. Returns the number of plans checked.
inline size_t ExpectImagesMatchReplay(const std::vector<std::byte>& base,
                                      const std::vector<WriteRecord>& writes) {
  CrashImageGenerator gen(base, &writes);
  CrashEnumerationBudget budget;
  budget.reorder_within_epoch = true;
  const std::vector<CrashPlan> plans = gen.Enumerate(budget);
  std::vector<std::byte> expected;
  std::vector<std::byte> actual(base.size());
  for (const CrashPlan& plan : plans) {
    auto image = gen.Image(plan);
    if (!image.ok()) {
      ADD_FAILURE() << plan.Describe() << ": " << image.status().ToString();
      continue;
    }
    EXPECT_TRUE(image->ReadSectors(0, actual).ok());
    expected = base;
    ReplayCrashPlan(writes, plan, &expected);
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(), actual.size()), 0)
        << plan.Describe() << " differs from its full replay";
  }
  return plans.size();
}

}  // namespace logfs

#endif  // LOGFS_TESTS_CRASH_REFERENCE_H_
