// Randomized model test of the directory-entry block format: thousands of
// random insert/remove/replace sequences are mirrored against a std::map
// reference; after every mutation the block must validate, list exactly the
// reference contents, and find exactly the reference names. Corrupted
// blocks, built by hand and by random byte damage, must fail every call
// with the chain's own error and stay byte-for-byte unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/fsbase/dirent.h"
#include "src/util/rng.h"

namespace logfs {
namespace {

class DirentFuzzTest : public ::testing::TestWithParam<uint64_t> {};

std::string RandomName(Rng& rng) {
  const size_t length = 1 + rng.NextBelow(24);
  std::string name(length, 'a');
  for (char& c : name) {
    c = static_cast<char>('a' + rng.NextBelow(26));
  }
  return name;
}

TEST_P(DirentFuzzTest, MatchesMapReference) {
  Rng rng(GetParam());
  const size_t block_size = 512 + rng.NextBelow(4) * 512;  // 512..2048.
  std::vector<std::byte> block(block_size);
  DirBlockView view(block);
  ASSERT_TRUE(view.InitEmpty().ok());
  std::map<std::string, std::pair<InodeNum, FileType>> reference;

  for (int step = 0; step < 600; ++step) {
    const uint64_t action = rng.NextBelow(100);
    if (action < 50) {
      // Insert a (probably fresh) name.
      const std::string name = RandomName(rng);
      const InodeNum ino = static_cast<InodeNum>(1 + rng.NextBelow(10000));
      const FileType type = rng.NextBool(0.3) ? FileType::kDirectory : FileType::kRegular;
      Status inserted = view.Insert(ino, type, name);
      if (reference.contains(name)) {
        ASSERT_EQ(inserted.code(), ErrorCode::kExists) << name;
      } else if (inserted.ok()) {
        reference[name] = {ino, type};
      } else {
        ASSERT_EQ(inserted.code(), ErrorCode::kNoSpace) << inserted.ToString();
      }
    } else if (action < 80 && !reference.empty()) {
      // Remove an existing name.
      auto it = reference.begin();
      std::advance(it, rng.NextBelow(reference.size()));
      ASSERT_TRUE(view.Remove(it->first).ok()) << it->first;
      reference.erase(it);
    } else if (action < 90 && !reference.empty()) {
      // Rewrite an entry's inode (the rename-overwrite path).
      auto it = reference.begin();
      std::advance(it, rng.NextBelow(reference.size()));
      const InodeNum ino = static_cast<InodeNum>(1 + rng.NextBelow(10000));
      ASSERT_TRUE(view.SetInode(it->first, ino, it->second.second).ok());
      it->second.first = ino;
    } else {
      // Remove of a missing name must fail cleanly.
      EXPECT_EQ(view.Remove("definitely-not-here-" + std::to_string(step)).code(),
                ErrorCode::kNotFound);
    }

    // Invariants after every step.
    ASSERT_TRUE(view.Validate().ok()) << "step " << step;
    auto listing = view.List();
    ASSERT_TRUE(listing.ok());
    ASSERT_EQ(listing->size(), reference.size()) << "step " << step;
    for (const DirEntry& entry : *listing) {
      auto it = reference.find(entry.name);
      ASSERT_NE(it, reference.end()) << entry.name;
      EXPECT_EQ(entry.ino, it->second.first);
      EXPECT_EQ(entry.type, it->second.second);
    }
    auto empty = view.Empty();
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(*empty, reference.empty());
  }
  // Spot-check Find for every surviving name.
  for (const auto& [name, value] : reference) {
    auto found = view.Find(name);
    ASSERT_TRUE(found.ok()) << name;
    EXPECT_EQ(found->ino, value.first);
  }
}

// --- Corrupted blocks ---------------------------------------------------------

constexpr size_t kBlock = 512;

// Byte offsets of a record's fields (see dirent.h).
constexpr size_t kReclenAt = 8;
constexpr size_t kTypeAt = 12;

// A valid block holding alpha, bravo and charlie, with charlie's record
// spanning to the end of the block.
std::vector<std::byte> ThreeEntryBlock() {
  std::vector<std::byte> block(kBlock);
  DirBlockView view(block);
  EXPECT_TRUE(view.InitEmpty().ok());
  EXPECT_TRUE(view.Insert(11, FileType::kRegular, "alpha").ok());
  EXPECT_TRUE(view.Insert(12, FileType::kDirectory, "bravo").ok());
  EXPECT_TRUE(view.Insert(13, FileType::kRegular, "charlie").ok());
  return block;
}

uint16_t ReclenAt(const std::vector<std::byte>& block, size_t record) {
  uint16_t reclen = 0;
  std::memcpy(&reclen, block.data() + record + kReclenAt, sizeof(reclen));
  return reclen;
}

void SetReclen(std::vector<std::byte>& block, size_t record, uint16_t reclen) {
  std::memcpy(block.data() + record + kReclenAt, &reclen, sizeof(reclen));
}

// Offsets of the records of a valid block, in chain order.
std::vector<size_t> RecordOffsets(const std::vector<std::byte>& block) {
  std::vector<size_t> offsets;
  for (size_t offset = 0; offset < block.size(); offset += ReclenAt(block, offset)) {
    offsets.push_back(offset);
  }
  return offsets;
}

// Every call on a corrupted block returns the chain's error, `want`, and
// leaves the block as it was: no call may act on a chain it has not fully
// validated. `present` names an entry that sits before the damage.
void ExpectEveryCallFails(std::vector<std::byte> block, const Status& want,
                          const std::string& present) {
  const std::vector<std::byte> original = block;
  DirBlockView view(block);
  auto expect = [&](const Status& got, const char* call) {
    EXPECT_EQ(got.code(), want.code()) << call << ": " << got.ToString();
    EXPECT_EQ(got.message(), want.message()) << call;
    EXPECT_EQ(block, original) << call << " changed a corrupted block";
  };
  expect(view.Validate(), "Validate");
  expect(view.Find(present).status(), "Find(present)");
  expect(view.Find("missing").status(), "Find(missing)");
  expect(view.Insert(99, FileType::kRegular, "zulu"), "Insert(new)");
  expect(view.Insert(99, FileType::kRegular, present), "Insert(duplicate)");
  expect(view.Remove(present), "Remove(present)");
  expect(view.Remove("missing"), "Remove(missing)");
  expect(view.SetInode(present, 99, FileType::kRegular), "SetInode(present)");
  expect(view.SetInode("missing", 99, FileType::kRegular), "SetInode(missing)");
  expect(view.List().status(), "List");
  expect(view.Empty().status(), "Empty");
  // Name checks come before the chain is read.
  EXPECT_EQ(view.Insert(99, FileType::kRegular, "").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(view.Insert(99, FileType::kRegular, std::string(kMaxNameLen + 1, 'x')).code(),
            ErrorCode::kNameTooLong);
  EXPECT_EQ(block, original);
}

const Status kTruncated = CorruptedError("directory record header truncated");
const Status kBadType = CorruptedError("directory record has bad type");
const Status kBadReclen = CorruptedError("directory record has bad reclen");

TEST(DirentCorruptionTest, TruncatedHeader) {
  std::vector<std::byte> block = ThreeEntryBlock();
  const size_t last = RecordOffsets(block).back();
  // The last record stops 8 bytes short: too few for the next header.
  SetReclen(block, last, static_cast<uint16_t>(ReclenAt(block, last) - 8));
  ExpectEveryCallFails(block, kTruncated, "alpha");
}

TEST(DirentCorruptionTest, BadType) {
  std::vector<std::byte> block = ThreeEntryBlock();
  const size_t last = RecordOffsets(block).back();
  block[last + kTypeAt] = std::byte{static_cast<uint8_t>(FileType::kSymlink) + 1};
  ExpectEveryCallFails(block, kBadType, "alpha");
}

TEST(DirentCorruptionTest, BadReclen) {
  const std::vector<std::byte> valid = ThreeEntryBlock();
  const std::vector<size_t> offsets = RecordOffsets(valid);
  const size_t second = offsets[1];
  // Too short for its name, not a multiple of 4, past the block's end, zero.
  for (uint16_t reclen : {uint16_t{8}, static_cast<uint16_t>(ReclenAt(valid, second) + 2),
                          static_cast<uint16_t>(kBlock), uint16_t{0}}) {
    std::vector<std::byte> block = valid;
    SetReclen(block, second, reclen);
    SCOPED_TRACE("reclen " + std::to_string(reclen));
    ExpectEveryCallFails(block, kBadReclen, "alpha");
  }
}

TEST(DirentCorruptionTest, ChainThatDoesNotSpanTheBlock) {
  std::vector<std::byte> block = ThreeEntryBlock();
  const size_t last = RecordOffsets(block).back();
  // The last record stops 16 bytes short of the block's end. The walk reads
  // a header out of the leftover zeros, whose reclen of 0 is the error.
  SetReclen(block, last, static_cast<uint16_t>(ReclenAt(block, last) - 16));
  std::memset(block.data() + kBlock - 16, 0, 16);
  ExpectEveryCallFails(block, kBadReclen, "bravo");
}

// Random damage to the headers of a fuzzed block: whatever error Validate
// reports, every other call must report it too and write nothing.
TEST_P(DirentFuzzTest, RandomHeaderDamageFailsEveryCallAlike) {
  Rng rng(GetParam() + 1000);
  std::vector<std::byte> valid(kBlock);
  DirBlockView view(valid);
  ASSERT_TRUE(view.InitEmpty().ok());
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    const std::string name = RandomName(rng);
    if (view.Insert(static_cast<InodeNum>(1 + i), FileType::kRegular, name).ok()) {
      names.push_back(name);
    }
    if (!names.empty() && rng.NextBool(0.3)) {
      const size_t victim = rng.NextBelow(names.size());
      ASSERT_TRUE(view.Remove(names[victim]).ok());
      names.erase(names.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  ASSERT_FALSE(names.empty());
  const std::vector<size_t> offsets = RecordOffsets(valid);
  int corrupted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> block = valid;
    // Damage one byte of a reclen, namelen or type field.
    const size_t record = offsets[rng.NextBelow(offsets.size())];
    const size_t field = record + 8 + rng.NextBelow(5);
    block[field] ^= std::byte{static_cast<uint8_t>(1 + rng.NextBelow(255))};
    DirBlockView damaged(block);
    const Status chain = damaged.Validate();
    if (chain.ok()) {
      continue;  // The damage happened to leave a valid chain.
    }
    ++corrupted;
    ASSERT_EQ(chain.code(), ErrorCode::kCorrupted) << chain.ToString();
    ExpectEveryCallFails(block, chain, names[rng.NextBelow(names.size())]);
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << GetParam() << " trial " << trial;
    }
  }
  EXPECT_GT(corrupted, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirentFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace logfs
