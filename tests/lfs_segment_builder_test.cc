// Unit tests for SegmentBuilder: address assignment, partial-segment
// boundaries, deferred-content patching, on-disk layout verified by reading
// raw sectors back, and the write path's host cost against the copy-per-block
// flush and bytewise CRC it replaced. Then the summary-chain walker over
// damaged segments, in both modes and from both sources (an in-memory image,
// and a device read one summary block at a time).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/disk/fault_disk.h"
#include "src/disk/memory_disk.h"
#include "src/lfs/lfs_segment.h"
#include "src/sim/sim_clock.h"
#include "src/util/crc32.h"

namespace logfs {
namespace {

class SegmentBuilderTest : public ::testing::Test {
 protected:
  SegmentBuilderTest() : disk_(131072, &clock_) {
    auto geometry = ComputeLfsGeometry(LfsParams{.max_inodes = 1024}, disk_.sector_count());
    sb_ = *geometry;
    builder_ = std::make_unique<SegmentBuilder>(&disk_, sb_);
  }

  std::vector<std::byte> Block(uint8_t fill) {
    return std::vector<std::byte>(sb_.block_size, std::byte{fill});
  }

  SimClock clock_;
  MemoryDisk disk_;
  LfsSuperblock sb_;
  std::unique_ptr<SegmentBuilder> builder_;
};

TEST_F(SegmentBuilderTest, AddressesAreContiguousAfterSummary) {
  builder_->StartAt(3, 0);
  auto a = builder_->Append(BlockKind::kData, 7, 1, 0, Block(0xA1));
  auto b = builder_->Append(BlockKind::kData, 7, 1, 1, Block(0xA2));
  ASSERT_TRUE(a.ok() && b.ok());
  // Offset 0 is the summary; content starts at offset 1.
  EXPECT_EQ(*a, sb_.SegmentBlockSector(3, 1));
  EXPECT_EQ(*b, sb_.SegmentBlockSector(3, 2));
  EXPECT_EQ(builder_->pending(), 2u);
  ASSERT_TRUE(builder_->Flush(1, 0.0).ok());
  EXPECT_EQ(builder_->pending(), 0u);
  EXPECT_EQ(builder_->next_offset(), 3u);
}

TEST_F(SegmentBuilderTest, FlushedPartialDecodesFromRawSectors) {
  builder_->StartAt(0, 0);
  ASSERT_TRUE(builder_->Append(BlockKind::kData, 9, 4, 17, Block(0x55)).ok());
  ASSERT_TRUE(builder_->Append(BlockKind::kIndirect, 9, 4, 0, Block(0x66)).ok());
  ASSERT_TRUE(builder_->Flush(42, 1.5).ok());

  std::vector<std::byte> summary(sb_.block_size);
  ASSERT_TRUE(disk_.ReadSectors(sb_.SegmentBlockSector(0, 0), summary).ok());
  auto peek = PeekSummary(summary, sb_.block_size);
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(peek->seq, 42u);
  EXPECT_EQ(peek->nblocks, 2u);
  std::vector<std::byte> content(2 * sb_.block_size);
  ASSERT_TRUE(disk_.ReadSectors(sb_.SegmentBlockSector(0, 1), content).ok());
  auto decoded = DecodeSummary(summary, content);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->timestamp, 1.5);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].kind, BlockKind::kData);
  EXPECT_EQ(decoded->entries[0].ino, 9u);
  EXPECT_EQ(decoded->entries[0].offset, 17);
  EXPECT_EQ(decoded->entries[1].kind, BlockKind::kIndirect);
  EXPECT_EQ(content[0], std::byte{0x55});
  EXPECT_EQ(content[sb_.block_size], std::byte{0x66});
}

TEST_F(SegmentBuilderTest, CanAppendRespectsSegmentBoundary) {
  const uint32_t bps = sb_.BlocksPerSegment();
  // Start two blocks from the end: room for summary + one content block.
  builder_->StartAt(1, bps - 2);
  EXPECT_TRUE(builder_->CanAppend());
  ASSERT_TRUE(builder_->Append(BlockKind::kData, 1, 1, 0, Block(1)).ok());
  EXPECT_FALSE(builder_->CanAppend());  // Segment is exactly full now.
  ASSERT_TRUE(builder_->Flush(1, 0.0).ok());
  EXPECT_FALSE(builder_->SegmentHasRoom());
}

TEST_F(SegmentBuilderTest, CanAppendRespectsSummaryCapacity) {
  builder_->StartAt(0, 0);
  const size_t capacity = SummaryCapacity(sb_.block_size);
  ASSERT_LT(capacity, sb_.BlocksPerSegment());  // 4 KB blocks: 203 < 256.
  for (size_t i = 0; i < capacity; ++i) {
    ASSERT_TRUE(builder_->CanAppend()) << i;
    ASSERT_TRUE(builder_->Append(BlockKind::kData, 1, 1, static_cast<int64_t>(i),
                                 Block(static_cast<uint8_t>(i))).ok());
  }
  EXPECT_FALSE(builder_->CanAppend());  // Entry table full before the segment.
  ASSERT_TRUE(builder_->Flush(1, 0.0).ok());
  EXPECT_TRUE(builder_->SegmentHasRoom());  // But the segment still has space.
  EXPECT_TRUE(builder_->CanAppend());
}

TEST_F(SegmentBuilderTest, DeferredContentIsPatchedBeforeFlush) {
  builder_->StartAt(2, 0);
  std::span<std::byte> buffer;
  auto addr = builder_->AppendDeferred(BlockKind::kSegUsage, 0, 0, 0, &buffer);
  ASSERT_TRUE(addr.ok());
  // Patch after the append, before the flush.
  std::memset(buffer.data(), 0xEE, buffer.size());
  ASSERT_TRUE(builder_->Flush(7, 0.0).ok());
  std::vector<std::byte> block(sb_.block_size);
  ASSERT_TRUE(disk_.ReadSectors(*addr, block).ok());
  EXPECT_EQ(block[0], std::byte{0xEE});
  EXPECT_EQ(block[sb_.block_size - 1], std::byte{0xEE});
}

TEST_F(SegmentBuilderTest, DeferredSpansStayValidAtMaximumPartialSize) {
  // Regression test for the buffer_ reservation: fill a partial segment to
  // its maximum size entirely with deferred appends, patch every block
  // through its span only AFTER the last append, and verify the bytes land.
  // If any append reallocated the staging buffer, the earlier spans would
  // dangle and the patched bytes would be lost (or ASan would fire).
  builder_->StartAt(6, 0);
  std::vector<std::span<std::byte>> spans;
  std::vector<DiskAddr> addrs;
  while (builder_->CanAppend()) {
    std::span<std::byte> buffer;
    auto addr = builder_->AppendDeferred(BlockKind::kData, 1, 1,
                                         static_cast<int64_t>(spans.size()), &buffer);
    ASSERT_TRUE(addr.ok());
    spans.push_back(buffer);
    addrs.push_back(*addr);
  }
  ASSERT_EQ(spans.size(), std::min<size_t>(SummaryCapacity(sb_.block_size),
                                           sb_.BlocksPerSegment() - 1));
  for (size_t i = 0; i < spans.size(); ++i) {
    std::memset(spans[i].data(), static_cast<int>(i * 37 + 1), spans[i].size());
  }
  ASSERT_TRUE(builder_->Flush(3, 0.0).ok());
  std::vector<std::byte> block(sb_.block_size);
  for (size_t i = 0; i < addrs.size(); ++i) {
    ASSERT_TRUE(disk_.ReadSectors(addrs[i], block).ok());
    EXPECT_EQ(block[0], static_cast<std::byte>(i * 37 + 1)) << "block " << i;
    EXPECT_EQ(block[sb_.block_size - 1], static_cast<std::byte>(i * 37 + 1)) << "block " << i;
  }
}

TEST_F(SegmentBuilderTest, WrongSizedAppendFailsWithoutStagingAnything) {
  // A rejected block must leave no summary entry behind; otherwise the next
  // flush writes a zeroed phantom block in its place.
  builder_->StartAt(8, 0);
  for (const size_t size : {size_t{0}, size_t{sb_.block_size} - 1, size_t{sb_.block_size} + 1}) {
    std::vector<std::byte> wrong(size, std::byte{0xEE});
    EXPECT_FALSE(builder_->Append(BlockKind::kData, 1, 1, 0, wrong).ok()) << size;
    EXPECT_EQ(builder_->pending(), 0u) << size;
  }
  auto a = builder_->Append(BlockKind::kData, 1, 1, 0, Block(0xD1));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, sb_.SegmentBlockSector(8, 1));
  ASSERT_TRUE(builder_->Flush(1, 0.0).ok());
  EXPECT_EQ(builder_->next_offset(), 2u);
}

TEST_F(SegmentBuilderTest, EmptyFlushIsANoOp) {
  builder_->StartAt(5, 10);
  const uint64_t writes_before = disk_.stats().write_ops;
  ASSERT_TRUE(builder_->Flush(1, 0.0).ok());
  EXPECT_EQ(disk_.stats().write_ops, writes_before);
  EXPECT_EQ(builder_->next_offset(), 10u);
}

// --- write-path host cost ----------------------------------------------------
//
// The builder's flush (one memcpy per block at Append, the dispatched CRC,
// one vectored write) and the slice-by-8 CRC replaced a flush that staged
// every block in a contiguous buffer, ran the bytewise CRC over it and wrote
// it with one scalar request. Neither may cost more host time than what it
// replaced. Each check interleaves the two paths and compares the best of
// several rounds, which shrugs off a busy machine.

template <typename Body>
double HostSeconds(Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// {fastest `old_path`, fastest `new_path`} over `rounds` interleaved calls.
template <typename Old, typename New>
std::pair<double, double> BestOfInterleaved(int rounds, Old&& old_path, New&& new_path) {
  double best_old = 1e30;
  double best_new = 1e30;
  for (int i = 0; i < rounds; ++i) {
    best_old = std::min(best_old, HostSeconds(old_path));
    best_new = std::min(best_new, HostSeconds(new_path));
  }
  return {best_old, best_new};
}

TEST(WritePathHostCostTest, Slice8AndDispatchedCrcAreNotSlowerThanBytewise) {
  std::vector<std::byte> data(1 << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(1 + 7 * i);
  }
  volatile uint32_t sink = 0;
  auto bytewise = [&] { sink = Crc32UpdateBytewise(Crc32Init(), data); };
  const auto [bytewise_s, slice8_s] =
      BestOfInterleaved(7, bytewise, [&] { sink = Crc32UpdateSlice8(Crc32Init(), data); });
  EXPECT_LE(slice8_s, bytewise_s);
  const auto [bytewise2_s, dispatched_s] =
      BestOfInterleaved(7, bytewise, [&] { sink = Crc32Update(Crc32Init(), data); });
  EXPECT_LE(dispatched_s, bytewise2_s) << "backend " << Crc32Backend();
  (void)sink;
}

TEST_F(SegmentBuilderTest, FlushIsNotSlowerThanTheCopyPathItReplaced) {
  const uint32_t bs = sb_.block_size;
  const size_t nblocks = std::min<size_t>(SummaryCapacity(bs), sb_.BlocksPerSegment() - 1);
  std::vector<std::vector<std::byte>> pool;  // A segment's worth of cache blocks.
  for (size_t i = 0; i < nblocks; ++i) {
    pool.push_back(Block(static_cast<uint8_t>(i)));
  }
  Status status = OkStatus();
  uint32_t seg = 0;
  std::vector<std::byte> staging((1 + nblocks) * bs);
  auto copy_path = [&] {
    for (size_t i = 0; i < nblocks; ++i) {
      std::memcpy(staging.data() + (1 + i) * bs, pool[i].data(), bs);
    }
    const std::span<const std::byte> whole(staging);
    uint32_t crc = Crc32UpdateBytewise(Crc32Init(), whole.subspan(4, bs - 4));
    crc = Crc32Finalize(Crc32UpdateBytewise(crc, whole.subspan(bs)));
    std::memcpy(staging.data(), &crc, sizeof(crc));
    if (Status wrote = disk_.WriteSectors(sb_.SegmentBlockSector(seg, 0), staging); !wrote.ok()) {
      status = wrote;
    }
    seg = (seg + 1) % 4;
  };
  uint64_t sequence = 1;
  auto builder_path = [&] {
    builder_->StartAt(seg, 0);
    for (size_t i = 0; i < nblocks; ++i) {
      if (auto addr = builder_->Append(BlockKind::kData, 1, 1, static_cast<int64_t>(i), pool[i]);
          !addr.ok()) {
        status = addr.status();
      }
    }
    if (Status flushed = builder_->Flush(sequence++, 0.0); !flushed.ok()) {
      status = flushed;
    }
    seg = (seg + 1) % 4;
  };
  const auto [copy_s, builder_s] = BestOfInterleaved(7, copy_path, builder_path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(builder_s, copy_s);
}

// --- the summary-chain walker ------------------------------------------------

// One partial as a chain walk reports it.
struct Link {
  uint32_t offset = 0;
  uint64_t seq = 0;
  uint32_t nblocks = 0;
  bool operator==(const Link&) const = default;
};

class SummaryChainTest : public SegmentBuilderTest {
 protected:
  static constexpr uint32_t kSeg = 4;

  // Partials of 1, 2 and 3 content blocks at offsets 0, 2 and 5 (seqs 10-12).
  void WriteThreePartials() {
    builder_->StartAt(kSeg, 0);
    for (uint32_t n = 1; n <= 3; ++n) {
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE(builder_->Append(BlockKind::kData, 1, 1, i, Block(0x40 + n)).ok());
      }
      ASSERT_TRUE(builder_->Flush(9 + n, 0.0).ok());
    }
  }

  std::span<std::byte> RawBlock(uint32_t offset) {
    return disk_.MutableRawImage().subspan(sb_.SegmentBlockSector(kSeg, offset) * kSectorSize,
                                           sb_.block_size);
  }

  static std::vector<Link> Walk(SummaryChain chain) {
    std::vector<Link> links;
    while (chain.Next()) {
      links.push_back({chain.offset(), chain.peek().seq, chain.peek().nblocks});
    }
    return links;
  }

  // Walks segment kSeg of `device` from an in-memory image and one summary
  // block at a time, expects both to agree, and returns the image walk.
  // `unreadable` receives the image read's unreadable-block mask.
  std::vector<Link> WalkBoth(BlockDevice* device, ChainMode mode,
                             std::vector<bool>* unreadable = nullptr) {
    std::vector<std::byte> image(sb_.segment_size);
    Result<std::vector<bool>> mask = ReadSegmentImage(device, sb_, kSeg, image);
    EXPECT_TRUE(mask.ok());
    if (unreadable != nullptr && mask.ok()) {
      *unreadable = *mask;
    }
    const std::vector<Link> links = Walk(SummaryChain(image, sb_.block_size, mode));
    EXPECT_EQ(Walk(SummaryChain(device, sb_, kSeg, mode)), links);
    return links;
  }
};

TEST_F(SummaryChainTest, MultiplePartialsChainWithinASegment) {
  WriteThreePartials();
  const std::vector<Link> chain = {{0, 10, 1}, {2, 11, 2}, {5, 12, 3}};
  std::vector<bool> unreadable{true};
  EXPECT_EQ(WalkBoth(&disk_, ChainMode::kStrict, &unreadable), chain);
  EXPECT_TRUE(unreadable.empty());  // One transfer read the whole segment.
  EXPECT_EQ(WalkBoth(&disk_, ChainMode::kProbe), chain);
}

TEST_F(SummaryChainTest, StrictEndsAtAZeroedSummaryAndProbeFindsThePartialAfterIt) {
  WriteThreePartials();
  std::memset(RawBlock(2).data(), 0, sb_.block_size);
  EXPECT_EQ(WalkBoth(&disk_, ChainMode::kStrict), (std::vector<Link>{{0, 10, 1}}));
  EXPECT_EQ(WalkBoth(&disk_, ChainMode::kProbe), (std::vector<Link>{{0, 10, 1}, {5, 12, 3}}));
}

TEST_F(SummaryChainTest, StrictEndsAtAHeaderWhosePartialWouldOverrunTheSegment) {
  const uint32_t bps = sb_.BlocksPerSegment();
  const uint32_t capacity = static_cast<uint32_t>(SummaryCapacity(sb_.block_size));
  // A first partial long enough that a full summary after it cannot fit.
  const uint32_t first = bps - capacity;
  builder_->StartAt(kSeg, 0);
  for (uint32_t i = 0; i < first; ++i) {
    ASSERT_TRUE(builder_->Append(BlockKind::kData, 1, 1, i, Block(7)).ok());
  }
  ASSERT_TRUE(builder_->Flush(1, 0.0).ok());
  builder_->StartAt(kSeg, bps - 3);
  ASSERT_TRUE(builder_->Append(BlockKind::kData, 1, 1, first, Block(8)).ok());
  ASSERT_TRUE(builder_->Append(BlockKind::kData, 1, 1, first + 1, Block(9)).ok());
  ASSERT_TRUE(builder_->Flush(3, 0.0).ok());
  // A well-formed header right after the first partial whose `capacity`
  // blocks would end past the segment: only the chain rule rejects it.
  SegmentSummary overrun;
  overrun.seq = 2;
  overrun.entries.resize(capacity);
  ASSERT_GT(first + 1 + 1 + capacity, bps);
  ASSERT_TRUE(EncodeSummary(overrun, RawBlock(first + 1), {}).ok());
  ASSERT_TRUE(PeekSummary(RawBlock(first + 1), sb_.block_size).ok());

  EXPECT_EQ(WalkBoth(&disk_, ChainMode::kStrict), (std::vector<Link>{{0, 1, first}}));
  EXPECT_EQ(WalkBoth(&disk_, ChainMode::kProbe),
            (std::vector<Link>{{0, 1, first}, {bps - 3, 3, 2}}));
}

TEST_F(SummaryChainTest, ProbeFindsThePartialAfterAnUnreadableBlock) {
  WriteThreePartials();
  FaultInjectingDisk faulty(&disk_);
  faulty.MarkBadSectors(sb_.SegmentBlockSector(kSeg, 2), sb_.SectorsPerBlock(),
                        FaultInjectingDisk::BadSectorMode::kRead);
  std::vector<bool> unreadable;
  EXPECT_EQ(WalkBoth(&faulty, ChainMode::kStrict, &unreadable), (std::vector<Link>{{0, 10, 1}}));
  // The image read fell back to single blocks and lost exactly block 2.
  std::vector<bool> expected(sb_.BlocksPerSegment(), false);
  expected[2] = true;
  EXPECT_EQ(unreadable, expected);
  EXPECT_EQ(WalkBoth(&faulty, ChainMode::kProbe), (std::vector<Link>{{0, 10, 1}, {5, 12, 3}}));
}

}  // namespace
}  // namespace logfs
