// CRC-32 (IEEE 802.3 polynomial, reflected) used to validate on-disk
// structures: segment summaries, checkpoint regions, superblocks.
//
// Three kernels, one answer:
//   - bytewise: one table lookup per byte; the reference implementation.
//   - slice-by-8: eight table lookups per eight input bytes; the portable
//     fast path.
//   - hardware: carry-less-multiply folding (PCLMULQDQ) on x86-64, or the
//     ARMv8 CRC32 extension (__crc32d) on aarch64. Note the SSE4.2 `crc32`
//     instruction is NOT usable here — it hardwires the Castagnoli
//     polynomial (CRC-32C), not IEEE 802.3.
//
// Crc32Update dispatches to the best kernel the host supports, detected
// once at first use (CPUID on x86-64, HWCAP on aarch64). All kernels share
// the same running-state convention, so chunking a buffer arbitrarily —
// even across kernels — yields the same result as one pass.
#ifndef LOGFS_SRC_UTIL_CRC32_H_
#define LOGFS_SRC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace logfs {

// One-shot CRC of a buffer.
uint32_t Crc32(std::span<const std::byte> data);

// Incremental interface: Crc32Update(Crc32Init(), a) then more chunks,
// finish with Crc32Finalize. Update routes through the dispatched kernel.
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const std::byte> data);
uint32_t Crc32Finalize(uint32_t state);

// The one-table byte-at-a-time kernel. Same results as Crc32Update; kept as
// the reference the other kernels are cross-checked (and benchmarked)
// against.
uint32_t Crc32UpdateBytewise(uint32_t state, std::span<const std::byte> data);

// The portable slice-by-8 kernel, callable directly (tests cross-check it
// against the dispatched kernel; the dispatcher falls back to it).
uint32_t Crc32UpdateSlice8(uint32_t state, std::span<const std::byte> data);

// Name of the selected kernel: "pclmul", "armv8-crc", or "slice8".
const char* Crc32Backend();

}  // namespace logfs

#endif  // LOGFS_SRC_UTIL_CRC32_H_
