// Functional tests for LfsFileSystem: format/mount, namespace ops, file
// I/O, checkpoint persistence, the no-synchronous-write property, and the
// consistency checker on healthy images.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/disk/recording_disk.h"
#include "src/lfs/lfs_check.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

Status ExpectClean(LfsFileSystem* fs) {
  LfsChecker checker(fs);
  ASSIGN_OR_RETURN(LfsCheckReport report, checker.Check());
  if (!report.ok()) {
    return CorruptedError(report.Summary());
  }
  return OkStatus();
}

TEST(LfsFormatTest, FormatAndMountEmpty) {
  LfsInstance inst;
  auto stat = inst.fs->Stat(kRootIno);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->type, FileType::kDirectory);
  EXPECT_EQ(stat->nlink, 2);
  auto entries = inst.fs->ReadDir(kRootIno);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsFormatTest, MountFailsOnBlankDisk) {
  SimClock clock;
  MemoryDisk disk(131072, &clock);
  EXPECT_FALSE(LfsFileSystem::Mount(&disk, &clock, nullptr).ok());
}

TEST(LfsTest, CreateWriteReadDelete) {
  LfsInstance inst;
  auto data = TestBytes(5000, 1);
  ASSERT_TRUE(inst.paths->WriteFile("/f", data).ok());
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  ASSERT_TRUE(inst.paths->Unlink("/f").ok());
  EXPECT_FALSE(inst.paths->Exists("/f"));
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, CreatePerformsNoSynchronousOrRandomWrites) {
  // The Figure 2 property: small-file creation causes no synchronous disk
  // writes, and the eventual flush is one sequential transfer.
  SimClock clock;
  MemoryDisk inner(131072, &clock);
  ASSERT_TRUE(LfsFileSystem::Format(&inner, LfsInstance::DefaultParams()).ok());
  RecordingDisk traced(&inner, &clock);
  auto fs = LfsFileSystem::Mount(&traced, &clock, nullptr);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());

  const size_t start = traced.write_count();
  ASSERT_TRUE(paths.Mkdir("/dir1").ok());
  ASSERT_TRUE(paths.Mkdir("/dir2").ok());
  ASSERT_TRUE(paths.WriteFile("/dir1/file1", TestBytes(4096, 1)).ok());
  ASSERT_TRUE(paths.WriteFile("/dir2/file2", TestBytes(4096, 2)).ok());
  // Nothing hit the disk yet: all changes sit in the cache.
  EXPECT_EQ(traced.write_count(), start);

  ASSERT_TRUE((*fs)->Sync().ok());
  const auto first = traced.writes().begin() + start;
  const auto last = traced.writes().end();
  // Only the checkpoint region.
  EXPECT_EQ(std::count_if(first, last, [](const WriteRecord& w) { return w.synchronous; }), 1);
  // The log writes form a small number of large sequential transfers, not
  // 8 scattered small ones.
  EXPECT_LE(std::count_if(first, last, [](const WriteRecord& w) { return !w.sequential; }), 3);
}

TEST(LfsTest, DataSurvivesCheckpointAndRemount) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->MkdirAll("/a/b").ok());
  ASSERT_TRUE(inst.paths->WriteFile("/a/b/f", TestBytes(20000, 3)).ok());
  ASSERT_TRUE(inst.Remount().ok());
  auto back = inst.paths->ReadFile("/a/b/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(20000, 3));
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, ReadAfterDropCachesGoesToDisk) {
  LfsInstance inst;
  auto data = TestBytes(40000, 4);
  ASSERT_TRUE(inst.paths->WriteFile("/f", data).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  inst.disk->ResetStats();
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_GT(inst.disk->stats().read_ops, 0u);
}

TEST(LfsTest, LargeFileThroughIndirectBlocks) {
  // 4 KB blocks: > 48 KB needs the single indirect, > 2 MB the double.
  LfsInstance inst;
  auto data = TestBytes(3 << 20, 5);
  ASSERT_TRUE(inst.paths->WriteFile("/big", data).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto back = inst.paths->ReadFile("/big");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, SparseFileReadsZeros) {
  LfsInstance inst;
  auto ino = inst.fs->Create(kRootIno, "sparse", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Write(*ino, 500000, TestBytes(100, 6)).ok());
  std::vector<std::byte> hole(4096);
  auto n = inst.fs->Read(*ino, 100000, hole);
  ASSERT_TRUE(n.ok());
  for (std::byte b : hole) {
    EXPECT_EQ(b, std::byte{0});
  }
  ASSERT_TRUE(inst.Remount().ok());
  auto stat = inst.paths->Stat("/sparse");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 500100u);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, OverwriteSupersedesOldBlocks) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(8192, 1)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  const uint64_t live_before = inst.fs->TotalLiveBytes();
  // Overwrite in place (logically): live bytes must not grow.
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Write(*ino, 0, TestBytes(8192, 2)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_EQ(inst.fs->TotalLiveBytes(), live_before);
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(8192, 2));
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, TruncateShrinkRegrowAndVersionBump) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(30000, 7)).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  auto stat0 = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat0.ok());
  ASSERT_TRUE(inst.fs->Truncate(*ino, 10000).ok());
  auto stat1 = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat1.ok());
  EXPECT_EQ(stat1->size, 10000u);
  EXPECT_EQ(stat1->version, stat0->version);  // Partial truncate: no bump.
  ASSERT_TRUE(inst.fs->Truncate(*ino, 0).ok());
  auto stat2 = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat2.ok());
  EXPECT_EQ(stat2->size, 0u);
  EXPECT_GT(stat2->version, stat1->version);  // Truncate-to-zero bumps.
  // Regrow reads zeros.
  ASSERT_TRUE(inst.fs->Truncate(*ino, 5000).ok());
  std::vector<std::byte> tail(5000);
  auto n = inst.fs->Read(*ino, 0, tail);
  ASSERT_TRUE(n.ok());
  for (std::byte b : tail) {
    EXPECT_EQ(b, std::byte{0});
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, UnlinkReclaimsLiveBytes) {
  LfsInstance inst;
  ASSERT_TRUE(inst.fs->Sync().ok());
  const uint64_t live_empty = inst.fs->TotalLiveBytes();
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(1 << 20, 8)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  EXPECT_GT(inst.fs->TotalLiveBytes(), live_empty);
  ASSERT_TRUE(inst.paths->Unlink("/f").ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  // Within a couple of blocks of the empty state (directory block remains).
  EXPECT_LT(inst.fs->TotalLiveBytes(), live_empty + 3 * 4096);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, MkdirRmdirNlink) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->Mkdir("/d").ok());
  auto root_stat = inst.fs->Stat(kRootIno);
  ASSERT_TRUE(root_stat.ok());
  EXPECT_EQ(root_stat->nlink, 3);
  ASSERT_TRUE(inst.paths->CreateFile("/d/f").ok());
  EXPECT_EQ(inst.paths->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(inst.paths->Unlink("/d/f").ok());
  ASSERT_TRUE(inst.paths->Rmdir("/d").ok());
  root_stat = inst.fs->Stat(kRootIno);
  ASSERT_TRUE(root_stat.ok());
  EXPECT_EQ(root_stat->nlink, 2);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, HardLinksAndRename) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/orig", TestBytes(100, 9)).ok());
  auto ino = inst.paths->Resolve("/orig");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Link(kRootIno, "alias", *ino).ok());
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 2);
  ASSERT_TRUE(inst.paths->Mkdir("/sub").ok());
  ASSERT_TRUE(inst.paths->Rename("/orig", "/sub/moved").ok());
  EXPECT_FALSE(inst.paths->Exists("/orig"));
  EXPECT_TRUE(inst.paths->Exists("/sub/moved"));
  ASSERT_TRUE(inst.paths->Unlink("/alias").ok());
  auto stat2 = inst.paths->Stat("/sub/moved");
  ASSERT_TRUE(stat2.ok());
  EXPECT_EQ(stat2->nlink, 1);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, RenameDirectoryAcrossParents) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->MkdirAll("/src/child").ok());
  ASSERT_TRUE(inst.paths->Mkdir("/dst").ok());
  ASSERT_TRUE(inst.paths->Rename("/src/child", "/dst/child").ok());
  auto parent = inst.paths->Resolve("/dst/child/..");
  ASSERT_TRUE(parent.ok());
  auto dst = inst.paths->Resolve("/dst");
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(*parent, *dst);
  EXPECT_EQ(inst.paths->Rename("/dst", "/dst/child/x").code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, FsyncMakesDataDurableWithoutCheckpoint) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(10000, 10)).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  const uint64_t checkpoints_before = inst.fs->checkpoint_count();
  ASSERT_TRUE(inst.fs->Fsync(*ino).ok());
  EXPECT_EQ(inst.fs->checkpoint_count(), checkpoints_before);  // No checkpoint.
}

TEST(LfsTest, ManySmallFilesInManyDirectories) {
  LfsInstance inst;
  for (int d = 0; d < 8; ++d) {
    const std::string dir = "/dir" + std::to_string(d);
    ASSERT_TRUE(inst.paths->Mkdir(dir).ok());
    for (int f = 0; f < 40; ++f) {
      ASSERT_TRUE(
          inst.paths->WriteFile(dir + "/f" + std::to_string(f), TestBytes(1024, d * 100 + f))
              .ok());
    }
  }
  ASSERT_TRUE(inst.Remount().ok());
  for (int d = 0; d < 8; ++d) {
    for (int f = 0; f < 40; ++f) {
      auto back =
          inst.paths->ReadFile("/dir" + std::to_string(d) + "/f" + std::to_string(f));
      ASSERT_TRUE(back.ok());
      ASSERT_EQ(*back, TestBytes(1024, d * 100 + f));
    }
  }
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, AtimeLivesInInodeMap) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(100, 11)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  const DiskAddr inode_home = inst.fs->imap().Get(*ino).block_addr;
  inst.clock->Advance(10.0);
  std::vector<std::byte> buffer(100);
  ASSERT_TRUE(inst.fs->Read(*ino, 0, buffer).ok());
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_GT(stat->atime, stat->mtime);
  ASSERT_TRUE(inst.fs->Sync().ok());
  // The read did not relocate the inode (footnote 2's whole point).
  EXPECT_EQ(inst.fs->imap().Get(*ino).block_addr, inode_home);
}

TEST(LfsTest, SegmentsFillAndAdvance) {
  LfsInstance inst;
  // Write ~4 MB: the log must occupy several segments.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(inst.paths->WriteFile("/big" + std::to_string(i), TestBytes(1 << 20, i)).ok());
    ASSERT_TRUE(inst.fs->Sync().ok());
  }
  uint32_t dirty = inst.fs->usage().CountState(SegState::kDirty);
  EXPECT_GE(dirty, 3u);
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, StatTracksVersionFromImap) {
  LfsInstance inst;
  ASSERT_TRUE(inst.paths->CreateFile("/f").ok());
  auto stat = inst.paths->Stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->version, inst.fs->imap().Get(stat->ino).version);
  EXPECT_GT(stat->version, 0u);
}

TEST(LfsTest, OutOfSpaceSurfacesNoSpaceAndStaysUsable) {
  // Small disk: 24 segments.
  LfsParams params = LfsInstance::DefaultParams();
  LfsInstance inst(24 * 2048 + 4096, params);
  Status status = OkStatus();
  int written = 0;
  for (int i = 0; i < 64 && status.ok(); ++i) {
    status = inst.paths->WriteFile("/f" + std::to_string(i), TestBytes(1 << 20, i));
    if (status.ok()) {
      ++written;
    }
  }
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);
  EXPECT_GT(written, 5);
  // Deleting makes room again (via the cleaner).
  for (int i = 0; i < written; ++i) {
    ASSERT_TRUE(inst.paths->Unlink("/f" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(inst.paths->WriteFile("/again", TestBytes(1 << 20, 99)).ok());
  EXPECT_TRUE(ExpectClean(inst.fs.get()).ok());
}

TEST(LfsTest, ReadAheadCutsDiskRequestsAndPreservesContent) {
  LfsFileSystem::Options options;
  options.read_ahead_blocks = 8;
  LfsInstance with_ra(131072, LfsInstance::DefaultParams(), options);
  LfsInstance without_ra;
  auto data = TestBytes(256 * 1024, 21);  // 64 blocks, written sequentially.
  for (LfsInstance* inst : {&with_ra, &without_ra}) {
    ASSERT_TRUE(inst->paths->WriteFile("/big", data).ok());
    ASSERT_TRUE(inst->fs->Sync().ok());
    ASSERT_TRUE(inst->fs->DropCaches().ok());
    inst->disk->ResetStats();
    auto back = inst->paths->ReadFile("/big");
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, data);
  }
  // One transfer per 9 blocks instead of per block: far fewer requests.
  EXPECT_LT(with_ra.disk->stats().read_ops * 4, without_ra.disk->stats().read_ops);
  // Read-ahead must never fabricate data: spot-check a sparse file too.
  auto ino = with_ra.fs->Create(kRootIno, "sparse", FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(with_ra.fs->Write(*ino, 100000, TestBytes(10, 1)).ok());
  ASSERT_TRUE(with_ra.fs->Sync().ok());
  ASSERT_TRUE(with_ra.fs->DropCaches().ok());
  std::vector<std::byte> hole(4096);
  auto n = with_ra.fs->Read(*ino, 0, hole);
  ASSERT_TRUE(n.ok());
  for (std::byte b : hole) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(LfsTest, ReadAheadDoesNotClobberDirtyCache) {
  LfsFileSystem::Options options;
  options.read_ahead_blocks = 8;
  LfsInstance inst(131072, LfsInstance::DefaultParams(), options);
  auto data = TestBytes(64 * 1024, 5);
  ASSERT_TRUE(inst.paths->WriteFile("/f", data).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  // Dirty block 3 in the cache, then trigger a read-ahead from block 0.
  auto patch = TestBytes(4096, 99);
  ASSERT_TRUE(inst.fs->Write(*ino, 3 * 4096, patch).ok());
  std::vector<std::byte> buffer(16 * 4096);
  auto n = inst.fs->Read(*ino, 0, buffer);
  ASSERT_TRUE(n.ok());
  // The dirty (new) content must win over the stale on-disk run.
  EXPECT_TRUE(std::equal(patch.begin(), patch.end(), buffer.begin() + 3 * 4096));
}

}  // namespace
}  // namespace logfs
