// CRC-32 (IEEE 802.3 polynomial, reflected) for page and log-record
// checksumming. Two implementations compute the same value:
//   - x86 with PCLMULQDQ and SSE4.1: inputs of 64 bytes or more are folded
//     64 bytes at a time with carry-less multiplies (Intel, "Fast CRC
//     Computation for Generic Polynomials Using PCLMULQDQ"). A CPUID check
//     during static initialisation decides whether the path is taken.
//   - everywhere else (non-x86 embedded targets, CPUs without PCLMULQDQ,
//     short inputs and the tail after folding): table-driven slice-by-8.
//     Its 8 KiB of tables are built on first use into zero-initialised
//     storage, so they cost RAM but no ROM.
// No build option or runtime setting chooses between them.
#ifndef FAME_COMMON_CRC32_H_
#define FAME_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fame {

/// Computes the CRC-32 of data[0, n).
uint32_t Crc32(const void* data, size_t n);

/// Extends `init_crc` (a previous Crc32 result) with data[0, n).
uint32_t Crc32Extend(uint32_t init_crc, const void* data, size_t n);

namespace internal {
/// Crc32Extend restricted to the portable slice-by-8 code. For tests and
/// benchmarks only: it keeps that code measurable and tested on hosts where
/// Crc32Extend would fold in hardware.
uint32_t Crc32ExtendPortable(uint32_t init_crc, const void* data, size_t n);
}  // namespace internal

/// Masks a CRC stored alongside the data it covers, so that re-checksumming
/// a buffer that embeds its own checksum does not "verify" trivially
/// (same trick as LevelDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace fame

#endif  // FAME_COMMON_CRC32_H_
