#include "util/crc32.h"

#include <array>
#include <cstddef>

#include "util/cpu.h"
#include "util/crc32_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace securestore {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

// tables[0] is the classic bytewise table. tables[k][b] is the CRC state
// after byte b is followed by k zero bytes, so a 16-byte block folds into
// one XOR of 16 independent lookups: byte j of the block goes through
// tables[15 - j].
constexpr Tables build_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? kPolynomial ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = build_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

/// Slicing-by-16 over `n` bytes at `p`, on the inverted (running) state.
std::uint32_t slice16(const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  const auto& t = kTables;
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t a = load_le32(p) ^ crc;
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t c = load_le32(p + 8);
    const std::uint32_t d = load_le32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
          t[12][a >> 24] ^ t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
          t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^ t[7][c & 0xFFu] ^
          t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^ t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)

/// x.lo·k.lo ⊕ x.hi·k.hi: advances lane x by the distance k encodes, ready
/// to be XORed into the lane that distance further on.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) with the
/// bit-reflected constants for 0xEDB88320: four 128-bit lanes fold 64 bytes
/// per step, collapse to one lane, fold the remaining 16-byte blocks, then
/// reduce 128 → 64 → 32 bits (Barrett). `n` is at least 64 and a multiple
/// of 16; `crc` is the inverted (running) state, as is the result.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(const std::uint8_t* p,
                                                                  std::size_t n,
                                                                  std::uint32_t crc) {
  const auto load = [](const std::uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512-bit distance
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128-bit distance
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // μ, P(x)
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; n -= 64, p += 64) {
    x1 = _mm_xor_si128(fold(x1, k1k2), load(p));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 16));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 32));
    x4 = _mm_xor_si128(fold(x4, k1k2), load(p + 48));
  }
  x1 = _mm_xor_si128(fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold(x1, k3k4), x4);
  for (; n >= 16; n -= 16, p += 16) x1 = _mm_xor_si128(fold(x1, k3k4), load(p));

  // 128 → 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

std::uint32_t crc32_pclmul(BytesView data, std::uint32_t seed) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    crc = fold_pclmul(p, bulk, crc);
    p += bulk;
    n -= bulk;
  }
  return slice16(p, n, crc) ^ 0xFFFFFFFFu;
}

#endif  // __x86_64__

crc32_internal::Crc32Fn selected_kernel() {
  static const crc32_internal::Crc32Fn kernel = [] {
    const crc32_internal::Crc32Fn hardware = crc32_internal::crc32_hardware();
    return hardware != nullptr ? hardware : crc32_internal::crc32_portable;
  }();
  return kernel;
}

}  // namespace

namespace crc32_internal {

std::uint32_t crc32_portable(BytesView data, std::uint32_t seed) {
  return slice16(data.data(), data.size(), seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

Crc32Fn crc32_hardware() {
#if defined(__x86_64__)
  if (cpu_features().pclmul) return crc32_pclmul;
#endif
  return nullptr;
}

const char* crc32_kernel_name() {
  return selected_kernel() == crc32_portable ? "portable" : "pclmul";
}

}  // namespace crc32_internal

std::uint32_t crc32(BytesView data, std::uint32_t seed) { return selected_kernel()(data, seed); }

}  // namespace securestore
