// Cross-file-system conformance suite: the same behavioural contract,
// executed against FfsFileSystem, LfsFileSystem and a 4-log ShardedLfs
// through the shared FileSystem interface. Anything here is semantics every
// system must agree on — the paper's claim that LFS supports "the full UNIX
// file system semantics" is what this suite pins down, and the sharded
// router, whose namespace ops span logs, is held to the same contract.
#include <gtest/gtest.h>

#include "tests/fs_fixture.h"

namespace logfs {
namespace {

template <typename Instance>
class ConformanceTest : public ::testing::Test {
 protected:
  Instance inst_;
};

using Implementations = ::testing::Types<FfsInstance, LfsInstance, ShardedLfsInstance>;

class ImplementationNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, FfsInstance>) {
      return "FFS";
    } else if constexpr (std::is_same_v<T, LfsInstance>) {
      return "LFS";
    } else {
      return "ShardedLFS";
    }
  }
};

TYPED_TEST_SUITE(ConformanceTest, Implementations, ImplementationNames);

TYPED_TEST(ConformanceTest, RootIsADirectoryWithDotEntries) {
  auto& inst = this->inst_;
  auto entries = inst.fs->ReadDir(kRootIno);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  bool dot = false;
  bool dotdot = false;
  for (const auto& entry : *entries) {
    dot |= entry.name == "." && entry.ino == kRootIno;
    dotdot |= entry.name == ".." && entry.ino == kRootIno;
  }
  EXPECT_TRUE(dot);
  EXPECT_TRUE(dotdot);
}

TYPED_TEST(ConformanceTest, LookupErrors) {
  auto& inst = this->inst_;
  EXPECT_EQ(inst.fs->Lookup(kRootIno, "missing").status().code(), ErrorCode::kNotFound);
  auto file = inst.paths->CreateFile("/f");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(inst.fs->Lookup(*file, "x").status().code(), ErrorCode::kNotDirectory);
  EXPECT_FALSE(inst.fs->Lookup(0, "x").ok());
  EXPECT_FALSE(inst.fs->Lookup(999999, "x").ok());
}

TYPED_TEST(ConformanceTest, CreateErrors) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->CreateFile("/f").ok());
  EXPECT_EQ(inst.fs->Create(kRootIno, "f", FileType::kRegular).status().code(),
            ErrorCode::kExists);
  auto file = inst.paths->Resolve("/f");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(inst.fs->Create(*file, "x", FileType::kRegular).status().code(),
            ErrorCode::kNotDirectory);
  std::string long_name(kMaxNameLen + 1, 'a');
  EXPECT_EQ(inst.fs->Create(kRootIno, long_name, FileType::kRegular).status().code(),
            ErrorCode::kNameTooLong);
}

TYPED_TEST(ConformanceTest, WriteThenReadBackExactBytes) {
  auto& inst = this->inst_;
  for (size_t size : {1u, 100u, 4096u, 8192u, 10000u, 100000u}) {
    const std::string name = "/size_" + std::to_string(size);
    auto data = TestBytes(size, size);
    ASSERT_TRUE(inst.paths->WriteFile(name, data).ok());
    auto back = inst.paths->ReadFile(name);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data) << name;
  }
}

TYPED_TEST(ConformanceTest, ReadBeyondEofReturnsShortCount) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(100, 1)).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  std::vector<std::byte> buffer(1000);
  auto n = inst.fs->Read(*ino, 50, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 50u);
  n = inst.fs->Read(*ino, 100, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  n = inst.fs->Read(*ino, 5000, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TYPED_TEST(ConformanceTest, UnalignedOverwriteAcrossBlocks) {
  auto& inst = this->inst_;
  auto base = TestBytes(50000, 1);
  ASSERT_TRUE(inst.paths->WriteFile("/f", base).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  auto patch = TestBytes(10000, 2);
  ASSERT_TRUE(inst.fs->Write(*ino, 3000, patch).ok());
  std::copy(patch.begin(), patch.end(), base.begin() + 3000);
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, base);
}

TYPED_TEST(ConformanceTest, AppendGrowsFile) {
  auto& inst = this->inst_;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(inst.paths->AppendFile("/log", TestBytes(3000, i)).ok());
  }
  auto stat = inst.paths->Stat("/log");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 30000u);
  auto back = inst.paths->ReadFile("/log");
  ASSERT_TRUE(back.ok());
  for (int i = 0; i < 10; ++i) {
    auto expected = TestBytes(3000, i);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), back->begin() + i * 3000)) << i;
  }
}

TYPED_TEST(ConformanceTest, HolesReadAsZeros) {
  auto& inst = this->inst_;
  auto ino = inst.paths->CreateFile("/sparse");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Write(*ino, 200000, TestBytes(10, 1)).ok());
  std::vector<std::byte> buffer(65536);
  auto n = inst.fs->Read(*ino, 10000, buffer);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, buffer.size());
  for (std::byte b : buffer) {
    ASSERT_EQ(b, std::byte{0});
  }
}

TYPED_TEST(ConformanceTest, TruncateUpAndDown) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(20000, 1)).ok());
  auto ino = inst.paths->Resolve("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Truncate(*ino, 7777).ok());
  auto back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  auto expected = TestBytes(20000, 1);
  expected.resize(7777);
  EXPECT_EQ(*back, expected);
  ASSERT_TRUE(inst.fs->Truncate(*ino, 40000).ok());
  back = inst.paths->ReadFile("/f");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 40000u);
  expected.resize(40000, std::byte{0});
  EXPECT_EQ(*back, expected);
}

TYPED_TEST(ConformanceTest, DirectoryLifecycle) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->MkdirAll("/a/b/c").ok());
  ASSERT_TRUE(inst.paths->WriteFile("/a/b/c/f", TestBytes(100, 1)).ok());
  EXPECT_EQ(inst.paths->Rmdir("/a/b").code(), ErrorCode::kNotEmpty);
  EXPECT_EQ(inst.paths->Rmdir("/a/b/c").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(inst.paths->Unlink("/a/b/c/f").ok());
  ASSERT_TRUE(inst.paths->Rmdir("/a/b/c").ok());
  ASSERT_TRUE(inst.paths->Rmdir("/a/b").ok());
  ASSERT_TRUE(inst.paths->Rmdir("/a").ok());
  auto entries = inst.fs->ReadDir(kRootIno);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TYPED_TEST(ConformanceTest, RmdirOfFileAndUnlinkOfDirRejected) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->CreateFile("/f").ok());
  ASSERT_TRUE(inst.paths->Mkdir("/d").ok());
  EXPECT_EQ(inst.paths->Rmdir("/f").code(), ErrorCode::kNotDirectory);
  EXPECT_EQ(inst.paths->Unlink("/d").code(), ErrorCode::kIsDirectory);
}

TYPED_TEST(ConformanceTest, ManyEntriesForceDirectoryGrowth) {
  auto& inst = this->inst_;
  // Enough names to overflow several directory blocks.
  const int count = 600;
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(
        inst.fs->Create(kRootIno, "entry_with_a_longish_name_" + std::to_string(i),
                        FileType::kRegular)
            .ok())
        << i;
  }
  auto entries = inst.fs->ReadDir(kRootIno);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(count) + 2);
  // Spot-check lookups.
  for (int i = 0; i < count; i += 37) {
    EXPECT_TRUE(
        inst.fs->Lookup(kRootIno, "entry_with_a_longish_name_" + std::to_string(i)).ok());
  }
  // Delete all and confirm the directory still works.
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(
        inst.fs->Unlink(kRootIno, "entry_with_a_longish_name_" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(inst.paths->CreateFile("/fresh").ok());
}

TYPED_TEST(ConformanceTest, LinkCountsAcrossRenameAndUnlink) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->WriteFile("/a", TestBytes(100, 1)).ok());
  auto ino = inst.paths->Resolve("/a");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.fs->Link(kRootIno, "b", *ino).ok());
  ASSERT_TRUE(inst.fs->Link(kRootIno, "c", *ino).ok());
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 3);
  ASSERT_TRUE(inst.paths->Rename("/b", "/renamed").ok());
  stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 3);
  ASSERT_TRUE(inst.paths->Unlink("/a").ok());
  ASSERT_TRUE(inst.paths->Unlink("/c").ok());
  stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->nlink, 1);
  auto back = inst.paths->ReadFile("/renamed");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(100, 1));
}

TYPED_TEST(ConformanceTest, RenameOntoSelfIsNoOp) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(10, 1)).ok());
  ASSERT_TRUE(inst.paths->Rename("/f", "/f").ok());
  EXPECT_TRUE(inst.paths->Exists("/f"));
}

TYPED_TEST(ConformanceTest, SyncThenDropCachesPreservesEverything) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->MkdirAll("/deep/tree").ok());
  ASSERT_TRUE(inst.paths->WriteFile("/deep/tree/f1", TestBytes(12345, 1)).ok());
  ASSERT_TRUE(inst.paths->WriteFile("/deep/tree/f2", TestBytes(54321, 2)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto f1 = inst.paths->ReadFile("/deep/tree/f1");
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(*f1, TestBytes(12345, 1));
  auto f2 = inst.paths->ReadFile("/deep/tree/f2");
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(*f2, TestBytes(54321, 2));
}

TYPED_TEST(ConformanceTest, StatReflectsWrites) {
  auto& inst = this->inst_;
  inst.clock->Advance(5.0);
  ASSERT_TRUE(inst.paths->WriteFile("/f", TestBytes(9999, 1)).ok());
  auto stat = inst.paths->Stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->type, FileType::kRegular);
  EXPECT_EQ(stat->size, 9999u);
  EXPECT_EQ(stat->nlink, 1);
  EXPECT_GE(stat->mtime, 5.0);
}

TYPED_TEST(ConformanceTest, WritesToDirectoriesRejected) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->Mkdir("/d").ok());
  auto dir = inst.paths->Resolve("/d");
  ASSERT_TRUE(dir.ok());
  std::vector<std::byte> buffer(100);
  EXPECT_EQ(inst.fs->Write(*dir, 0, buffer).status().code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(inst.fs->Read(*dir, 0, buffer).status().code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(inst.fs->Truncate(*dir, 0).code(), ErrorCode::kIsDirectory);
}

TYPED_TEST(ConformanceTest, MaxLengthNamesWork) {
  auto& inst = this->inst_;
  const std::string name(kMaxNameLen, 'n');
  auto ino = inst.fs->Create(kRootIno, name, FileType::kRegular);
  ASSERT_TRUE(ino.ok());
  auto found = inst.fs->Lookup(kRootIno, name);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *ino);
  ASSERT_TRUE(inst.fs->Unlink(kRootIno, name).ok());
}

TYPED_TEST(ConformanceTest, DeepDirectoryTree) {
  auto& inst = this->inst_;
  std::string path;
  for (int depth = 0; depth < 24; ++depth) {
    path += "/d" + std::to_string(depth);
    ASSERT_TRUE(inst.paths->Mkdir(path).ok()) << path;
  }
  ASSERT_TRUE(inst.paths->WriteFile(path + "/leaf", TestBytes(100, 1)).ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto back = inst.paths->ReadFile(path + "/leaf");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 100u);
  // Tear it back down from the leaf.
  ASSERT_TRUE(inst.paths->Unlink(path + "/leaf").ok());
  for (int depth = 23; depth >= 0; --depth) {
    ASSERT_TRUE(inst.paths->Rmdir(path).ok()) << path;
    const size_t cut = path.rfind('/');
    path.resize(cut);
  }
}

TYPED_TEST(ConformanceTest, ReadDirOfFileRejected) {
  auto& inst = this->inst_;
  auto ino = inst.paths->CreateFile("/f");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(inst.fs->ReadDir(*ino).status().code(), ErrorCode::kNotDirectory);
}

TYPED_TEST(ConformanceTest, StatOfInvalidInodeFails) {
  auto& inst = this->inst_;
  EXPECT_FALSE(inst.fs->Stat(0).ok());
  EXPECT_FALSE(inst.fs->Stat(99999999).ok());
  // A freed inode's number stops resolving.
  auto ino = inst.paths->CreateFile("/gone");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(inst.paths->Unlink("/gone").ok());
  EXPECT_FALSE(inst.fs->Stat(*ino).ok());
}

TYPED_TEST(ConformanceTest, ZeroByteFilesRoundTrip) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->CreateFile("/empty").ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto stat = inst.paths->Stat("/empty");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 0u);
  auto back = inst.paths->ReadFile("/empty");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TYPED_TEST(ConformanceTest, ZeroLengthWriteIsANoOp) {
  auto& inst = this->inst_;
  auto ino = inst.paths->CreateFile("/f");
  ASSERT_TRUE(ino.ok());
  auto n = inst.fs->Write(*ino, 0, std::span<const std::byte>{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  auto stat = inst.fs->Stat(*ino);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 0u);
}

TYPED_TEST(ConformanceTest, SymlinkRoundTrip) {
  auto& inst = this->inst_;
  auto link = inst.paths->Symlink("/link", "/some/target/path");
  ASSERT_TRUE(link.ok());
  auto target = inst.paths->Readlink("/link");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/some/target/path");
  auto stat = inst.paths->Stat("/link");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->type, FileType::kSymlink);
  // Readlink of a regular file is rejected.
  ASSERT_TRUE(inst.paths->CreateFile("/plain").ok());
  EXPECT_FALSE(inst.paths->Readlink("/plain").ok());
  // Links can be renamed and unlinked like files.
  ASSERT_TRUE(inst.paths->Rename("/link", "/moved_link").ok());
  auto moved = inst.paths->Readlink("/moved_link");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, "/some/target/path");
  ASSERT_TRUE(inst.paths->Unlink("/moved_link").ok());
  EXPECT_FALSE(inst.paths->Exists("/moved_link"));
}

TYPED_TEST(ConformanceTest, SymlinkSurvivesSyncAndCacheDrop) {
  auto& inst = this->inst_;
  ASSERT_TRUE(inst.paths->Symlink("/durable_link", "relative/target").ok());
  ASSERT_TRUE(inst.fs->Sync().ok());
  ASSERT_TRUE(inst.fs->DropCaches().ok());
  auto target = inst.paths->Readlink("/durable_link");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "relative/target");
}

TYPED_TEST(ConformanceTest, SymlinkRejectsBadTargets) {
  auto& inst = this->inst_;
  EXPECT_FALSE(inst.paths->Symlink("/bad", "").ok());
  EXPECT_FALSE(inst.paths->Symlink("/bad", std::string(5000, 'x')).ok());
}

TYPED_TEST(ConformanceTest, TickIsAlwaysSafe) {
  auto& inst = this->inst_;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(inst.paths->WriteFile("/f" + std::to_string(i), TestBytes(5000, i)).ok());
    inst.clock->Advance(40.0);
    ASSERT_TRUE(inst.fs->Tick().ok());
  }
  for (int i = 0; i < 5; ++i) {
    auto back = inst.paths->ReadFile("/f" + std::to_string(i));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(5000, i));
  }
}

}  // namespace
}  // namespace logfs
