// FFS-specific tests: format/mount, allocation, synchronous-write policy,
// persistence across remount.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/disk/recording_disk.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

TEST(FfsFormatTest, RejectsBadParams) {
  SimClock clock;
  MemoryDisk disk(70000, &clock);
  FfsParams params;
  params.block_size = 1000;  // Not sector aligned.
  EXPECT_FALSE(FfsFileSystem::Format(&disk, params).ok());
  params = FfsParams{};
  params.inodes_per_group = 13;  // Not a multiple of 8.
  EXPECT_FALSE(FfsFileSystem::Format(&disk, params).ok());
}

TEST(FfsFormatTest, RejectsTinyDevice) {
  SimClock clock;
  MemoryDisk disk(100, &clock);
  EXPECT_FALSE(FfsFileSystem::Format(&disk, FfsParams{}).ok());
}

TEST(FfsFormatTest, MountFailsOnUnformattedDisk) {
  SimClock clock;
  MemoryDisk disk(70000, &clock);
  EXPECT_FALSE(FfsFileSystem::Mount(&disk, &clock, nullptr).ok());
}

TEST(FfsTest, RootDirectoryExists) {
  FfsInstance inst;
  auto stat = inst.fs->Stat(kRootIno);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->type, FileType::kDirectory);
  EXPECT_EQ(stat->nlink, 2);
  auto entries = inst.fs->ReadDir(kRootIno);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);  // "." and "..".
}

TEST(FfsTest, CreateLookupRoundTrip) {
  FfsInstance inst;
  auto ino = inst.fs->Create(kRootIno, "hello", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  auto found = inst.fs->Lookup(kRootIno, "hello");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
  EXPECT_EQ(inst.fs->Lookup(kRootIno, "nonesuch").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(inst.fs->Create(kRootIno, "hello", FileType::kRegular).status().code(),
            ErrorCode::kExists);
}

TEST(FfsTest, WriteReadSmallFile) {
  FfsInstance inst;
  auto data = TestBytes(1000, 42);
  ASSERT_TRUE(inst.paths->WriteFile("/f", data).ok());
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(FfsTest, WriteReadAfterCacheDrop) {
  FfsInstance inst;
  auto data = TestBytes(20000, 1);
  ASSERT_TRUE(inst.paths->WriteFile("/f", data).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(FfsTest, LargeFileThroughIndirectBlocks) {
  // > 12 * 8 KB = 96 KB forces single-indirect blocks; use 2 MB.
  FfsInstance inst(600000);
  auto data = TestBytes(2 << 20, 3);
  ASSERT_TRUE(inst.paths->WriteFile("/big", data).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto back = inst.paths->ReadFile("/big");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(FfsTest, SparseFileReadsZeros) {
  FfsInstance inst;
  auto ino = inst.fs->Create(kRootIno, "sparse", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  auto data = TestBytes(100, 9);
  ASSERT_TRUE(inst.fs->Write(*ino, 100000, data).ok());
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 100100u);
  std::vector<std::byte> hole(512);
  auto n = inst.fs->Read(*ino, 50000, hole);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 512u);
  for (std::byte b : hole) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(FfsTest, OverwriteInPlaceKeepsSize) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(8192, 1)).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  auto patch = TestBytes(100, 2);
  ASSERT_TRUE(inst.fs->Write(*ino, 1000, patch).ok());
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 8192u);
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::equal(patch.begin(), patch.end(), back->begin() + 1000));
}

TEST(FfsTest, TruncateShrinkAndRegrow) {
  FfsInstance inst;
  auto data = TestBytes(30000, 5);
  ASSERT_TRUE(inst.paths->WriteFile("/f", data).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Truncate(*ino, 10000).ok());
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 10000u);
  // Regrow: the tail must read as zeros, not stale data.
  ASSERT_TRUE(inst.fs->Truncate(*ino, 20000).ok());
  std::vector<std::byte> tail(5000);
  auto n = inst.fs->Read(*ino, 12000, tail);
  ASSERT_TRUE(n.ok());
  for (std::byte b : tail) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(FfsTest, UnlinkFreesSpace) {
  FfsInstance inst;
  const uint64_t free_before = inst.fs->FreeBlockCount();
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(200000, 1)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_LT(inst.fs->FreeBlockCount(), free_before);
  ASSERT_TRUE(inst.paths->Unlink("/f").ok());
  EXPECT_EQ(inst.fs->FreeBlockCount(), free_before);
  EXPECT_FALSE(inst.paths->Exists("/f"));
}

TEST(FfsTest, UnlinkOfDirectoryRejected) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->Mkdir("/d").ok());
  EXPECT_EQ(inst.paths->Unlink("/d").code(), ErrorCode::kIsDirectory);
}

TEST(FfsTest, MkdirRmdir) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->Mkdir("/d").ok());
  auto stat = inst.paths->Stat("/d");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->type, FileType::kDirectory);
  EXPECT_EQ(stat->nlink, 2);
  // Parent gained a link from "..".
  auto root_stat = inst.fs->Stat(kRootIno);
  ASSERT_TRUE(root_stat.ok());
  EXPECT_EQ(root_stat->nlink, 3);
  // Non-empty directories cannot be removed.
  ASSERT_TRUE(inst.paths->CreateFile("/d/f").ok());
  EXPECT_EQ(inst.paths->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(inst.paths->Unlink("/d/f").ok());
  ASSERT_TRUE(inst.paths->Rmdir("/d").ok());
  EXPECT_FALSE(inst.paths->Exists("/d"));
  root_stat = inst.fs->Stat(kRootIno);
  ASSERT_TRUE(root_stat.ok());
  EXPECT_EQ(root_stat->nlink, 2);
}

TEST(FfsTest, NestedPathsAndDotDot) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->MkdirAll("/a/b/c").ok());
  ASSERT_TRUE(inst.paths->WriteFile("/a/b/c/f", TestBytes(10, 0)).ok());
  auto via_dotdot = inst.paths->Resolve("/a/b/c/../c/f");
  ASSERT_TRUE(via_dotdot.ok());
  auto direct = inst.paths->Resolve("/a/b/c/f");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*via_dotdot, *direct);
}

TEST(FfsTest, HardLinkSharesInode) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/orig", TestBytes(100, 7)).ok());
  auto ino = inst.paths->Resolve("/orig");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Link(kRootIno, "alias", *ino).ok());
  auto alias = inst.paths->Resolve("/alias");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(*alias, *ino);
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 2);
  // Deleting one name keeps the data alive.
  ASSERT_TRUE(inst.paths->Unlink("/orig").ok());
  auto back = inst.paths->ReadFile("/alias");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 100u);
  ASSERT_TRUE(inst.paths->Unlink("/alias").ok());
}

TEST(FfsTest, RenameSimple) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/old", TestBytes(50, 1)).ok());
  ASSERT_TRUE(inst.paths->Rename("/old", "/new").ok());
  EXPECT_FALSE(inst.paths->Exists("/old"));
  auto back = inst.paths->ReadFile("/new");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 50u);
}

TEST(FfsTest, RenameAcrossDirectoriesMovesDotDot) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->Mkdir("/src").ok());
  ASSERT_TRUE(inst.paths->Mkdir("/dst").ok());
  ASSERT_TRUE(inst.paths->Mkdir("/src/child").ok());
  ASSERT_TRUE(inst.paths->Rename("/src/child", "/dst/child").ok());
  auto parent = inst.paths->Resolve("/dst/child/..");
  ASSERT_TRUE(parent.ok());
  auto dst = inst.paths->Resolve("/dst");
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(*parent, *dst);
  // nlink moved with the child.
  auto src_stat = inst.paths->Stat("/src");
  ASSERT_TRUE(src_stat.ok());
  EXPECT_EQ(src_stat->nlink, 2);
  auto dst_stat = inst.paths->Stat("/dst");
  ASSERT_TRUE(dst_stat.ok());
  EXPECT_EQ(dst_stat->nlink, 3);
}

TEST(FfsTest, RenameIntoOwnSubtreeRejected) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->MkdirAll("/a/b").ok());
  EXPECT_EQ(inst.paths->Rename("/a", "/a/b/a").code(), ErrorCode::kInvalidArgument);
}

TEST(FfsTest, RenameReplacesExistingFile) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/a", TestBytes(10, 1)).ok());
  ASSERT_TRUE(inst.paths->WriteFile("/b", TestBytes(20, 2)).ok());
  ASSERT_TRUE(inst.paths->Rename("/a", "/b").ok());
  EXPECT_FALSE(inst.paths->Exists("/a"));
  auto back = inst.paths->ReadFile("/b");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 10u);
}

TEST(FfsTest, PersistsAcrossRemount) {
  FfsInstance inst;
  ASSERT_TRUE(inst.paths->MkdirAll("/dir1").ok());
  ASSERT_TRUE(inst.paths->WriteFile("/dir1/file", TestBytes(12345, 8)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  // Remount from the same disk image.
  auto remounted = FfsFileSystem::Mount(inst.disk.get(), inst.clock.get(), inst.cpu.get());
  ASSERT_TRUE(remounted.ok());
  PathFs paths(remounted->get());
  auto back = paths.ReadFile("/dir1/file");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(12345, 8));
  // Free counts must survive the round trip.
  EXPECT_EQ((*remounted)->FreeBlockCount(), inst.fs->FreeBlockCount());
  EXPECT_EQ((*remounted)->FreeInodeCount(), inst.fs->FreeInodeCount());
}

TEST(FfsTest, CreateUsesSynchronousWrites) {
  // The Figure 1 property: each small-file creation performs synchronous
  // metadata writes.
  SimClock clock;
  MemoryDisk inner(70000, &clock);
  ASSERT_TRUE(FfsFileSystem::Format(&inner, FfsParams{}).ok());
  RecordingDisk traced(&inner, &clock);
  auto fs = FfsFileSystem::Mount(&traced, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  const size_t start = traced.write_count();
  ASSERT_TRUE((*fs)->Create(kRootIno, "f1", FileType::kRegular).ok());
  EXPECT_GE(std::count_if(traced.writes().begin() + start, traced.writes().end(),
                          [](const WriteRecord& w) { return w.synchronous; }),
            2);  // Inode block + dir block.
}

TEST(FfsTest, OutOfSpaceSurfacesNoSpace) {
  FfsInstance inst;  // ~34 MB.
  Status status = OkStatus();
  for (int i = 0; i < 100 && status.ok(); ++i) {
    status = inst.paths->WriteFile("/f" + std::to_string(i), TestBytes(1 << 20, i));
  }
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  // The file system remains usable after ENOSPC.
  ASSERT_TRUE(inst.paths->Unlink("/f0").ok());
  EXPECT_TRUE(inst.paths->WriteFile("/small", TestBytes(100, 0)).ok());
}

TEST(FfsTest, StatReportsTimes) {
  FfsInstance inst;
  inst.clock->Advance(100.0);
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(10, 1)).ok());
  auto stat = inst.paths->Stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_GE(stat->mtime, 100.0);
  EXPECT_GE(stat->ctime, 100.0);
  inst.clock->Advance(50.0);
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  std::vector<std::byte> buffer(10);
  ASSERT_TRUE(inst.fs->Read(*ino, 0, buffer).ok());
  stat = inst.paths->Stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_GT(stat->atime, stat->mtime);
}

TEST(FfsTest, ReadDirListsAllEntries) {
  FfsInstance inst;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(inst.paths->CreateFile("/file_" + std::to_string(i)).ok());
  }
  auto entries = inst.fs->ReadDir(kRootIno);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 52u);  // 50 files + "." + "..".
}

}  // namespace
}  // namespace logfs
