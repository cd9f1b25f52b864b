// Scalar arithmetic mod the Ed25519 group order L, by Barrett reduction
// over 64-bit words (Menezes et al., Handbook of Applied Cryptography,
// Algorithm 14.42, with b = 2^64 and k = 4).
#include <cstring>

#include "crypto/ed25519_internal.h"

namespace securestore::crypto::ed25519_internal {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L = 2^252 + 27742317777372353535851937790883648493, little-endian words.
constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL};
// mu = floor(2^512 / L), 261 bits.
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
                        0xffffffffffffffffULL, 0xfULL};
// 8L, the order of the full curve group, and floor(2^512 / 8L) = mu >> 3.
constexpr u64 k8L[4] = {kL[0] << 3, (kL[1] << 3) | (kL[0] >> 61), kL[1] >> 61, kL[3] << 3};
constexpr u64 kMu8L[5] = {(kMu[0] >> 3) | (kMu[1] << 61), (kMu[1] >> 3) | (kMu[2] << 61),
                          (kMu[2] >> 3) | (kMu[3] << 61), (kMu[3] >> 3) | (kMu[4] << 61),
                          kMu[4] >> 3};

/// A Barrett modulus: four words with a nonzero top word, and
/// mu = floor(2^512 / m).
struct Modulus {
  const u64* m;
  const u64* mu;
};
constexpr Modulus kModL{kL, kMu};
constexpr Modulus kMod8L{k8L, kMu8L};

/// out[0 .. na+nb) = a * b (schoolbook).
void mul_words(u64* out, const u64* a, int na, const u64* b, int nb) {
  std::memset(out, 0, sizeof(u64) * static_cast<std::size_t>(na + nb));
  for (int i = 0; i < na; ++i) {
    u64 carry = 0;
    for (int j = 0; j < nb; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + nb] = carry;
  }
}

/// a -= b over n words; returns the final borrow.
u64 sub_words(u64* a, const u64* b, int n) {
  u64 borrow = 0;
  for (int i = 0; i < n; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  return borrow;
}

/// r >= m for a five-word r and four-word m.
bool geq(const u64 r[5], const u64 m[4]) {
  if (r[4] != 0) return true;
  for (int i = 3; i >= 0; --i) {
    if (r[i] != m[i]) return r[i] > m[i];
  }
  return true;
}

/// out = x mod m for x < 2^512 (eight little-endian words).
void barrett(std::uint8_t out[32], const u64 x[8], const Modulus& mod) {
  // q3 = floor(floor(x / b^3) * mu / b^5): q1 = x >> 192 has five words.
  u64 q2[10];
  mul_words(q2, x + 3, 5, mod.mu, 5);
  const u64* q3 = q2 + 5;
  // r = (x mod b^5) - (q3 * m mod b^5), taken mod b^5; then 0 <= r < 3m.
  u64 q3m[9];
  mul_words(q3m, q3, 5, mod.m, 4);
  u64 r[5] = {x[0], x[1], x[2], x[3], x[4]};
  sub_words(r, q3m, 5);
  const u64 m5[5] = {mod.m[0], mod.m[1], mod.m[2], mod.m[3], 0};
  while (geq(r, mod.m)) sub_words(r, m5, 5);
  for (int i = 0; i < 32; ++i) out[i] = static_cast<std::uint8_t>(r[i / 8] >> (8 * (i % 8)));
}

void load_words(u64* out, const std::uint8_t* bytes, int n_words) {
  for (int w = 0; w < n_words; ++w) {
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(bytes[8 * w + i]) << (8 * i);
    out[w] = v;
  }
}

/// out = (a * b + c) mod m.
void muladd(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32],
            const std::uint8_t c[32], const Modulus& mod) {
  u64 aw[4], bw[4], cw[4];
  load_words(aw, a, 4);
  load_words(bw, b, 4);
  load_words(cw, c, 4);
  // a * b + c < (2^256 - 1)^2 + 2^256 < 2^512.
  u64 x[8];
  mul_words(x, aw, 4, bw, 4);
  u64 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 sum = static_cast<u128>(x[i]) + (i < 4 ? cw[i] : 0) + carry;
    x[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  barrett(out, x, mod);
}

}  // namespace

void sc_reduce64(std::uint8_t out[32], const std::uint8_t x[64]) {
  u64 words[8];
  load_words(words, x, 8);
  barrett(out, words, kModL);
}

void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32],
               const std::uint8_t c[32]) {
  muladd(out, a, b, c, kModL);
}

void sc_mul(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]) {
  static constexpr std::uint8_t kZero[32] = {};
  sc_muladd(out, a, b, kZero);
}

void sc_mul_mod_8l(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]) {
  static constexpr std::uint8_t kZero[32] = {};
  muladd(out, a, b, kZero, kMod8L);
}

void sc_add(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]) {
  static constexpr std::uint8_t kOne[32] = {1};
  sc_muladd(out, a, kOne, b);
}

bool sc_is_canonical(const std::uint8_t s[32]) {
  u64 w[5] = {0, 0, 0, 0, 0};
  load_words(w, s, 4);
  return !geq(w, kL);
}

}  // namespace securestore::crypto::ed25519_internal
