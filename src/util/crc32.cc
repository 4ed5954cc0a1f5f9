#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define LOGFS_CRC32_PCLMUL 1
#include <immintrin.h>
#include <wmmintrin.h>
#elif defined(__aarch64__) && defined(__GNUC__)
#define LOGFS_CRC32_ARMV8 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

namespace logfs {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // Reflected IEEE 802.3.

// Slice-by-8 tables: kTables[k][b] is the CRC of byte b followed by k zero
// bytes, so eight table lookups advance the state by eight input bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = BuildTables();

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32UpdateBytewise(uint32_t state, std::span<const std::byte> data) {
  const auto& table = kTables[0];
  for (std::byte b : data) {
    state = table[(state ^ static_cast<uint32_t>(b)) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32UpdateSlice8(uint32_t state, std::span<const std::byte> data) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  const std::byte* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    // One unaligned 64-bit load; the state folds into the low word.
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= state;
    state = kTables[7][chunk & 0xFFu] ^ kTables[6][(chunk >> 8) & 0xFFu] ^
            kTables[5][(chunk >> 16) & 0xFFu] ^ kTables[4][(chunk >> 24) & 0xFFu] ^
            kTables[3][(chunk >> 32) & 0xFFu] ^ kTables[2][(chunk >> 40) & 0xFFu] ^
            kTables[1][(chunk >> 48) & 0xFFu] ^ kTables[0][(chunk >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  return Crc32UpdateBytewise(state, data.subspan(data.size() - n));
#else
  // The wide loads above assume little-endian byte order; big-endian hosts
  // take the table[0] kernel.
  return Crc32UpdateBytewise(state, data);
#endif
}

namespace {

using UpdateFn = uint32_t (*)(uint32_t, std::span<const std::byte>);

#if defined(LOGFS_CRC32_PCLMUL)

// Carry-less-multiply folding for the reflected IEEE polynomial, after
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ" (Intel, 2009). Folding constants are x^k mod P for the fold
// distances used below; the final Barrett step divides by P once to bring
// 64 bits of remainder down to the 32-bit CRC.
//
//   kFold512  = { x^(512+32) mod P, x^(512-32) mod P }  fold 4 lanes ahead
//   kFold128  = { x^(128+32) mod P, x^(128-32) mod P }  fold 1 lane ahead
//   kFold64   =   x^(64+32)  mod P                      fold 96 -> 64 bits
//   kBarrett  = { P' (full 33-bit poly), mu = floor(x^64 / P) }
//
// Requires len >= 64 and len % 16 == 0; the dispatcher peels head/tail.
__attribute__((target("pclmul,sse4.1"))) uint32_t
UpdatePclmulAligned(uint32_t state, const std::byte* buf, size_t len) {
  alignas(16) static const uint64_t kFold512[2] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t kFold128[2] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t kFold64[2] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const uint64_t kBarrett[2] = {0x01db710641, 0x01f7011641};

  const __m128i* p = reinterpret_cast<const __m128i*>(buf);
  __m128i a = _mm_loadu_si128(p + 0);
  __m128i b = _mm_loadu_si128(p + 1);
  __m128i c = _mm_loadu_si128(p + 2);
  __m128i d = _mm_loadu_si128(p + 3);
  a = _mm_xor_si128(a, _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 4;
  len -= 64;

  // Four independent 128-bit lanes, each folded 512 bits forward per step:
  // enough ILP to keep the multiplier busy.
  const __m128i k512 = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  while (len >= 64) {
    const __m128i la = _mm_clmulepi64_si128(a, k512, 0x00);
    const __m128i lb = _mm_clmulepi64_si128(b, k512, 0x00);
    const __m128i lc = _mm_clmulepi64_si128(c, k512, 0x00);
    const __m128i ld = _mm_clmulepi64_si128(d, k512, 0x00);
    a = _mm_clmulepi64_si128(a, k512, 0x11);
    b = _mm_clmulepi64_si128(b, k512, 0x11);
    c = _mm_clmulepi64_si128(c, k512, 0x11);
    d = _mm_clmulepi64_si128(d, k512, 0x11);
    a = _mm_xor_si128(_mm_xor_si128(a, la), _mm_loadu_si128(p + 0));
    b = _mm_xor_si128(_mm_xor_si128(b, lb), _mm_loadu_si128(p + 1));
    c = _mm_xor_si128(_mm_xor_si128(c, lc), _mm_loadu_si128(p + 2));
    d = _mm_xor_si128(_mm_xor_si128(d, ld), _mm_loadu_si128(p + 3));
    p += 4;
    len -= 64;
  }

  // Collapse the four lanes into one, then fold any 16-byte stragglers.
  const __m128i k128 = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  __m128i lo = _mm_clmulepi64_si128(a, k128, 0x00);
  a = _mm_clmulepi64_si128(a, k128, 0x11);
  a = _mm_xor_si128(_mm_xor_si128(a, lo), b);
  lo = _mm_clmulepi64_si128(a, k128, 0x00);
  a = _mm_clmulepi64_si128(a, k128, 0x11);
  a = _mm_xor_si128(_mm_xor_si128(a, lo), c);
  lo = _mm_clmulepi64_si128(a, k128, 0x00);
  a = _mm_clmulepi64_si128(a, k128, 0x11);
  a = _mm_xor_si128(_mm_xor_si128(a, lo), d);
  while (len >= 16) {
    lo = _mm_clmulepi64_si128(a, k128, 0x00);
    a = _mm_clmulepi64_si128(a, k128, 0x11);
    a = _mm_xor_si128(_mm_xor_si128(a, lo), _mm_loadu_si128(p));
    ++p;
    len -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(a, k128, 0x10);
  a = _mm_srli_si128(a, 8);
  a = _mm_xor_si128(a, t);
  const __m128i k64 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  t = _mm_srli_si128(a, 4);
  a = _mm_and_si128(a, mask32);
  a = _mm_clmulepi64_si128(a, k64, 0x00);
  a = _mm_xor_si128(a, t);

  // Barrett reduction: q = (a * mu) >> 32, remainder = a ^ q * P'.
  const __m128i barrett = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  t = _mm_and_si128(a, mask32);
  t = _mm_clmulepi64_si128(t, barrett, 0x10);
  t = _mm_and_si128(t, mask32);
  t = _mm_clmulepi64_si128(t, barrett, 0x00);
  a = _mm_xor_si128(a, t);
  return static_cast<uint32_t>(_mm_extract_epi32(a, 1));
}

uint32_t UpdatePclmul(uint32_t state, std::span<const std::byte> data) {
  if (data.size() < 64) {
    return Crc32UpdateSlice8(state, data);
  }
  const size_t main = data.size() & ~size_t{15};
  state = UpdatePclmulAligned(state, data.data(), main);
  return Crc32UpdateSlice8(state, data.subspan(main));
}

UpdateFn ResolveHardware() {
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return &UpdatePclmul;
  }
  return nullptr;
}
const char* const kHwName = "pclmul";

#elif defined(LOGFS_CRC32_ARMV8)

// The ARMv8 CRC32 extension implements the IEEE polynomial directly
// (__crc32*; the Castagnoli variants are the separate __crc32c* family).
__attribute__((target("+crc"))) uint32_t UpdateArmv8(uint32_t state,
                                                     std::span<const std::byte> data) {
  const std::byte* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    state = __crc32d(state, v);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    state = __crc32w(state, v);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    state = __crc32b(state, static_cast<uint8_t>(*p));
    ++p;
    --n;
  }
  return state;
}

UpdateFn ResolveHardware() {
#if defined(__linux__) && defined(HWCAP_CRC32)
  if ((getauxval(AT_HWCAP) & HWCAP_CRC32) != 0) {
    return &UpdateArmv8;
  }
#endif
  return nullptr;
}
const char* const kHwName = "armv8-crc";

#else

UpdateFn ResolveHardware() { return nullptr; }
const char* const kHwName = "slice8";

#endif

struct Dispatch {
  UpdateFn fn;
  bool hardware;
  Dispatch() {
    fn = ResolveHardware();
    hardware = fn != nullptr;
    if (fn == nullptr) {
      fn = &Crc32UpdateSlice8;
    }
  }
};

const Dispatch& GetDispatch() {
  static const Dispatch dispatch;  // Magic-static: detect once, thread-safe.
  return dispatch;
}

}  // namespace

uint32_t Crc32Update(uint32_t state, std::span<const std::byte> data) {
  return GetDispatch().fn(state, data);
}

const char* Crc32Backend() { return GetDispatch().hardware ? kHwName : "slice8"; }

uint32_t Crc32Finalize(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const std::byte> data) {
  return Crc32Finalize(Crc32Update(Crc32Init(), data));
}

}  // namespace logfs
