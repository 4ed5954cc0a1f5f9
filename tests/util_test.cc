// Unit tests for src/util: Status/Result, CRC32, Rng, serialization.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/serializer.h"
#include "src/util/status.h"

namespace logfs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(ExistsError("").code(), ErrorCode::kExists);
  EXPECT_EQ(NoSpaceError("").code(), ErrorCode::kNoSpace);
  EXPECT_EQ(InvalidArgumentError("").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(IoError("").code(), ErrorCode::kIoError);
  EXPECT_EQ(CorruptedError("").code(), ErrorCode::kCorrupted);
  EXPECT_EQ(NotDirectoryError("").code(), ErrorCode::kNotDirectory);
  EXPECT_EQ(IsDirectoryError("").code(), ErrorCode::kIsDirectory);
  EXPECT_EQ(NotEmptyError("").code(), ErrorCode::kNotEmpty);
  EXPECT_EQ(NameTooLongError("").code(), ErrorCode::kNameTooLong);
  EXPECT_EQ(TooLargeError("").code(), ErrorCode::kTooLarge);
  EXPECT_EQ(ReadOnlyError("").code(), ErrorCode::kReadOnly);
  EXPECT_EQ(BusyError("").code(), ErrorCode::kBusy);
  EXPECT_EQ(CrashedError("").code(), ErrorCode::kCrashed);
  EXPECT_EQ(NotSupportedError("").code(), ErrorCode::kNotSupported);
  EXPECT_EQ(OutOfRangeError("").code(), ErrorCode::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  ASSIGN_OR_RETURN(int half, HalveEven(x));
  ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = QuarterViaMacro(6);  // 6/2 = 3 is odd.
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (standard check value).
  const char* s = "123456789";
  uint32_t crc = Crc32(std::as_bytes(std::span<const char>(s, 9)));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) {
  EXPECT_EQ(Crc32(std::span<const std::byte>()), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<std::byte> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 3);
  }
  uint32_t one_shot = Crc32(data);
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const std::byte>(data).subspan(0, 400));
  state = Crc32Update(state, std::span<const std::byte>(data).subspan(400));
  EXPECT_EQ(Crc32Finalize(state), one_shot);
}

TEST(Crc32Test, Ieee8023KnownAnswers) {
  // Standard check values for the reflected IEEE 802.3 polynomial.
  auto crc_of = [](std::string_view s) {
    return Crc32(std::as_bytes(std::span<const char>(s.data(), s.size())));
  };
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("abc"), 0x352441C2u);
  EXPECT_EQ(crc_of("message digest"), 0x20159D7Fu);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(Crc32(zeros), 0x190A55ADu);
  const std::vector<std::byte> ones(32, std::byte{0xFF});
  EXPECT_EQ(Crc32(ones), 0xFF6CAB0Bu);
}

TEST(Crc32Test, Slice8MatchesBytewiseUnderRandomStreaming) {
  // Feed the same random buffer through the slice-by-8 kernel and the
  // one-table reference, carved into different random chunkings. The
  // slice-by-8 tail handling (head alignment, <8-byte remainders) only
  // matters at chunk seams, so random seams are the interesting input.
  Rng rng(0xC5C32u);
  for (int round = 0; round < 50; ++round) {
    const size_t size = rng.NextInRange(0, 4096);
    std::vector<std::byte> data(size);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.NextBelow(256));
    }
    const uint32_t reference = Crc32Finalize(Crc32UpdateBytewise(Crc32Init(), data));
    EXPECT_EQ(Crc32(data), reference);

    uint32_t sliced = Crc32Init();
    uint32_t bytewise = Crc32Init();
    for (size_t pos = 0; pos < size;) {
      const size_t chunk = std::min<size_t>(rng.NextInRange(1, 97), size - pos);
      std::span<const std::byte> piece = std::span(data).subspan(pos, chunk);
      sliced = Crc32Update(sliced, piece);
      bytewise = Crc32UpdateBytewise(bytewise, piece);
      pos += chunk;
    }
    EXPECT_EQ(sliced, bytewise) << "round " << round << " size " << size;
    EXPECT_EQ(Crc32Finalize(sliced), reference);
  }
}

TEST(Crc32Test, HardwareKernelKnownAnswers) {
  // The dispatched kernel (PCLMULQDQ folding on x86-64, the ARMv8 CRC32
  // extension on aarch64, slice-by-8 where neither exists) must hit the
  // same standard check values as the reference. Exercised regardless of
  // host support: Crc32Update always resolves to something.
  auto hw_crc = [](std::span<const std::byte> data) {
    return Crc32Finalize(Crc32Update(Crc32Init(), data));
  };
  const char* s = "123456789";
  EXPECT_EQ(hw_crc(std::as_bytes(std::span<const char>(s, 9))), 0xCBF43926u);
  // Sizes that cross the folding kernel's structural boundaries: below the
  // 64-byte minimum, exact multiples of 64, the 16-byte single-fold path,
  // and ragged tails peeled back to the table kernel.
  for (size_t size : {0u, 1u, 7u, 15u, 16u, 63u, 64u, 65u, 80u, 112u, 128u,
                      192u, 255u, 256u, 1024u, 4096u, 65536u, 65543u}) {
    std::vector<std::byte> data(size);
    for (size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::byte>((i * 131 + 89) & 0xFF);
    }
    EXPECT_EQ(hw_crc(data), Crc32Finalize(Crc32UpdateBytewise(Crc32Init(), data)))
        << "size " << size << " backend " << Crc32Backend();
  }
}

TEST(Crc32Test, AllKernelsAgreeUnderRandomStreaming) {
  // Same random buffers, random chunk seams, three kernels — and the
  // streaming pass rotates kernels between chunks, since all share one
  // running-state convention.
  Rng rng(0xC5C33u);
  for (int round = 0; round < 30; ++round) {
    const size_t size = rng.NextInRange(0, 20000);
    std::vector<std::byte> data(size);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.NextBelow(256));
    }
    const uint32_t reference = Crc32UpdateBytewise(Crc32Init(), data);
    EXPECT_EQ(Crc32UpdateSlice8(Crc32Init(), data), reference);
    EXPECT_EQ(Crc32Update(Crc32Init(), data), reference);

    uint32_t mixed = Crc32Init();
    int kernel = 0;
    for (size_t pos = 0; pos < size;) {
      const size_t chunk = std::min<size_t>(rng.NextInRange(1, 300), size - pos);
      std::span<const std::byte> piece = std::span(data).subspan(pos, chunk);
      switch (kernel++ % 3) {
        case 0: mixed = Crc32UpdateBytewise(mixed, piece); break;
        case 1: mixed = Crc32UpdateSlice8(mixed, piece); break;
        default: mixed = Crc32Update(mixed, piece); break;
      }
      pos += chunk;
    }
    EXPECT_EQ(mixed, reference) << "round " << round << " size " << size
                                << " backend " << Crc32Backend();
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  std::vector<std::byte> data(64, std::byte{0xAB});
  uint32_t before = Crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(Crc32(data), before);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  // bound 1 always yields 0.
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(21);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(SerializerTest, RoundTripAllTypes) {
  std::vector<std::byte> buffer(256);
  BufferWriter writer(buffer);
  ASSERT_TRUE(writer.WriteU8(0xAB).ok());
  ASSERT_TRUE(writer.WriteU16(0xBEEF).ok());
  ASSERT_TRUE(writer.WriteU32(0xDEADBEEF).ok());
  ASSERT_TRUE(writer.WriteU64(0x0123456789ABCDEFull).ok());
  ASSERT_TRUE(writer.WriteI64(-42).ok());
  ASSERT_TRUE(writer.WriteF64(3.14159).ok());
  ASSERT_TRUE(writer.WriteString("hello").ok());

  BufferReader reader(buffer);
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadF64().value(), 3.14159);
  EXPECT_EQ(reader.ReadString().value(), "hello");
}

TEST(SerializerTest, LittleEndianLayout) {
  std::vector<std::byte> buffer(4);
  BufferWriter writer(buffer);
  ASSERT_TRUE(writer.WriteU32(0x01020304).ok());
  EXPECT_EQ(buffer[0], std::byte{0x04});
  EXPECT_EQ(buffer[1], std::byte{0x03});
  EXPECT_EQ(buffer[2], std::byte{0x02});
  EXPECT_EQ(buffer[3], std::byte{0x01});
}

TEST(SerializerTest, OverflowDetected) {
  std::vector<std::byte> buffer(3);
  BufferWriter writer(buffer);
  EXPECT_TRUE(writer.WriteU16(1).ok());
  EXPECT_FALSE(writer.WriteU16(2).ok());

  BufferReader reader(buffer);
  EXPECT_TRUE(reader.ReadU16().ok());
  EXPECT_FALSE(reader.ReadU16().ok());
}

TEST(SerializerTest, SeekPatchesChecksumField) {
  std::vector<std::byte> buffer(16);
  BufferWriter writer(buffer);
  ASSERT_TRUE(writer.WriteU32(0).ok());  // Placeholder.
  ASSERT_TRUE(writer.WriteU64(77).ok());
  ASSERT_TRUE(writer.SeekTo(0).ok());
  ASSERT_TRUE(writer.WriteU32(123).ok());
  BufferReader reader(buffer);
  EXPECT_EQ(reader.ReadU32().value(), 123u);
  EXPECT_EQ(reader.ReadU64().value(), 77u);
}

TEST(SerializerTest, ZerosAndSkip) {
  std::vector<std::byte> buffer(8, std::byte{0xFF});
  BufferWriter writer(buffer);
  ASSERT_TRUE(writer.WriteZeros(4).ok());
  EXPECT_EQ(buffer[3], std::byte{0});
  EXPECT_EQ(buffer[4], std::byte{0xFF});
  BufferReader reader(buffer);
  ASSERT_TRUE(reader.Skip(4).ok());
  EXPECT_EQ(reader.ReadU32().value(), 0xFFFFFFFFu);
}

}  // namespace
}  // namespace logfs
