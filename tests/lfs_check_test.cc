// Tests for LfsChecker: it must pass healthy images and detect injected
// damage (the checker is load-bearing for every property test, so its own
// detection power needs proof).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/lfs/lfs_check.h"
#include "src/lfs/lfs_segment.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

TEST(LfsCheckTest, FreshFileSystemIsClean) {
  LfsInstance inst;
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->files, 0u);
  EXPECT_EQ(report->directories, 1u);
}

TEST(LfsCheckTest, PopulatedFileSystemIsCleanAndCounted) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->MkdirAll("/a/b").ok());
  ASSERT_TRUE(inst.paths->WriteFile("/a/b/one", TestBytes(1000, 1)).ok());
  ASSERT_TRUE(inst.paths->WriteFile("/a/two", TestBytes(2000, 2)).ok());
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->files, 2u);
  EXPECT_EQ(report->directories, 3u);  // root, /a, /a/b.
  EXPECT_EQ(report->total_bytes, 3000u);
}

TEST(LfsCheckTest, DetectsOnDiskInodeCorruption) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/victim", TestBytes(5000, 3)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  // Smash the victim's on-disk inode block.
  auto ino = inst.paths->Resolve("/victim");
  ASSERT_TRUE(ino.ok());
  const DiskAddr addr = inst.fs->imap().Get(*ino).block_addr;
  ASSERT_NE(addr, kNoAddr);
  std::span<std::byte> image = inst.disk->MutableRawImage();
  std::memset(image.data() + addr * kSectorSize, 0xFF, 512);
  // The checker must notice (the inode block no longer decodes).
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check(/*verify_data=*/false);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(LfsCheckTest, DetectsUsageTableDrift) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(100000, 4)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  // Corrupt the in-memory live-byte accounting for a dirty segment.
  for (uint32_t seg = 0; seg < inst.fs->superblock().num_segments; ++seg) {
    if (inst.fs->usage().Get(seg).live_bytes > 0) {
      const_cast<SegmentUsageTable&>(inst.fs->usage()).AddLive(seg, 4096);
      break;
    }
  }
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check(/*verify_data=*/false);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  bool usage_problem = false;
  for (const std::string& problem : report->problems) {
    usage_problem |= problem.find("usage") != std::string::npos ||
                     problem.find("recount") != std::string::npos;
  }
  EXPECT_TRUE(usage_problem) << report->Summary();
}

TEST(LfsCheckTest, ReportsABlockPointerOutsideTheSegmentArea) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(1000, 5)).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  const LfsSuperblock sb = inst.fs->superblock();
  const DiskAddr inode_addr = inst.fs->imap().Get(*ino).block_addr;
  ASSERT_TRUE(sb.InSegmentArea(inode_addr));
  inst.fs.reset();  // Unmounted: edit the medium.
  std::span<std::byte> image = inst.disk->MutableRawImage();

  // Break the entry table of the partial holding the inode block. Its header
  // stays valid, so the mount-time CRC index skips the partial and nothing
  // vouches for the inode block's content.
  const uint32_t seg = sb.SegmentOfSector(inode_addr);
  bool found = false;
  for (SummaryChain chain(inst.disk.get(), sb, seg, ChainMode::kStrict);
       !found && chain.Next();) {
    const DiskAddr first = sb.SegmentBlockSector(seg, chain.offset() + 1);
    if (inode_addr >= first && inode_addr < first + static_cast<uint64_t>(chain.peek().nblocks) *
                                                        sb.SectorsPerBlock()) {
      const uint64_t summary = sb.SegmentBlockSector(seg, chain.offset());
      image[summary * kSectorSize + 32] = std::byte{0};  // Entry 0's kind.
      ASSERT_TRUE(
          PeekSummary(image.subspan(summary * kSectorSize, sb.block_size), sb.block_size).ok());
      found = true;
    }
  }
  ASSERT_TRUE(found);
  // Point the file's first data block at sector 8, before the segment area.
  std::span<std::byte> inode_block = image.subspan(inode_addr * kSectorSize, sb.block_size);
  auto packed = DecodeInodeBlock(inode_block);
  ASSERT_TRUE(packed.ok());
  for (PackedInode& slot : *packed) {
    if (slot.ino == *ino) {
      slot.inode.direct[0] = 8;
    }
  }
  ASSERT_TRUE(EncodeInodeBlock(*packed, inode_block).ok());
  ASSERT_FALSE(sb.InSegmentArea(8));

  auto mounted = LfsFileSystem::Mount(inst.disk.get(), inst.clock.get(), inst.cpu.get());
  ASSERT_TRUE(mounted.ok()) << mounted.status().ToString();
  inst.fs = std::move(*mounted);
  auto report = LfsChecker(inst.fs.get()).Check();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string expected = "data block of ino " + std::to_string(*ino) +
                               " outside segment area";
  EXPECT_NE(std::find(report->problems.begin(), report->problems.end(), expected),
            report->problems.end())
      << report->Summary();
  // The usage recount refuses the pointer rather than indexing with it.
  auto usage = inst.fs->ComputeExactUsage();
  ASSERT_FALSE(usage.ok());
  EXPECT_EQ(usage.status().code(), ErrorCode::kCorrupted);
}

TEST(LfsCheckTest, SummaryStringIsInformative) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(10, 1)).ok());
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  const std::string summary = report->Summary();
  EXPECT_NE(summary.find("CLEAN"), std::string::npos);
  EXPECT_NE(summary.find("1 files"), std::string::npos);
}

TEST(LfsCheckTest, WorksWithDefaultSizedInodeMap) {
  // Default geometry: 65536 inodes, multi-block checkpoint regions; make
  // sure the whole format -> mount -> check -> remount path holds.
  LfsParams params;  // Defaults.
  LfsInstance inst(/*sectors=*/131072, params);
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(1234, 9)).ok());
  ASSERT_TRUE(inst.Remount().ok());
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(1234, 9));
  LfsChecker checker(inst.fs.get());
  auto report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

}  // namespace
}  // namespace logfs
