#include "common/crc32.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define FAME_CRC32_CLMUL 1
#include <cpuid.h>
#include <smmintrin.h>
#include <wmmintrin.h>
#else
#define FAME_CRC32_CLMUL 0
#endif

namespace fame {
namespace {

constexpr uint32_t kPoly = 0xedb88320u;  // reflected IEEE polynomial

// Slice-by-8: t[0] is the classic byte-at-a-time table; t[k][b] is the CRC
// of byte b followed by k zero bytes, so one step consumes 8 input bytes
// with 8 independent lookups.
struct SliceTables {
  uint32_t t[8][256];

  // Runs once per process: compiled for size, not speed.
  __attribute__((cold)) SliceTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
      }
    }
  }
};

// Built on first use, so the 8 KiB live in .bss rather than in the image.
const SliceTables& Tables() {
  static SliceTables tables;
  return tables;
}

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Advances the raw (un-inverted) CRC state `c` over p[0, n).
uint32_t SliceBy8(uint32_t c, const unsigned char* p, size_t n) {
  const auto& t = Tables().t;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

#if FAME_CRC32_CLMUL

bool CpuHasClmul() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds x forward over the next 16 bytes: its low half times k's low
/// constant, xor its high half times k's high constant, xor `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the raw CRC state `c` over p[0, n), where n >= 64 and n is a
/// multiple of 16: four lanes fold 64 bytes per step, then collapse into
/// one 128-bit lane, which is reduced to 32 bits by a Barrett reduction.
/// Constants are the reflected-domain values for the IEEE polynomial.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(
    uint32_t c, const unsigned char* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k3k4, Load(p));

  // 128 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits (with 32 bits of headroom for the Barrett step).
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction modulo the polynomial.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

// Decided once, while the program's statics are initialised. A Crc32 call
// from another file's static initialiser that runs earlier sees false and
// takes the portable path, which gives the same result.
const bool kHasClmul = CpuHasClmul();

#endif  // FAME_CRC32_CLMUL

}  // namespace

uint32_t Crc32Extend(uint32_t init_crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~init_crc;
#if FAME_CRC32_CLMUL
  if (n >= 64 && kHasClmul) {
    size_t bulk = n & ~size_t{15};
    c = FoldClmul(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~SliceBy8(c, p, n);
}

uint32_t Crc32(const void* data, size_t n) { return Crc32Extend(0, data, n); }

namespace internal {
uint32_t Crc32ExtendPortable(uint32_t init_crc, const void* data, size_t n) {
  return ~SliceBy8(~init_crc, static_cast<const unsigned char*>(data), n);
}
}  // namespace internal

}  // namespace fame
