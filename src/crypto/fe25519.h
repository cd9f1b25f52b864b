// Field arithmetic mod p = 2^255 - 19 (internal).
//
// Shared by Ed25519 (signatures) and X25519 (Diffie–Hellman). An element is
// five unsigned limbs in radix 2^51, value = sum v[i] * 2^(51*i), kept only
// loosely reduced. Not constant-time (see the note in ed25519.h).
//
// Limb bounds (lazy reduction). Call an element *reduced* when every limb
// is < 2^51 + 2^18.
//   * mul, sq, sub, neg, mul_small, carry and from_bytes return reduced
//     elements.
//   * add never carries: the sum of k reduced elements has limbs
//     < k * (2^51 + 2^18).
//   * mul and sq accept limbs < 2^54, i.e. the add of up to four reduced
//     elements. With that bound every 128-bit column sum stays < 2^115 and
//     every carry fits 64 bits (see mul).
//   * sub and neg accept a minuend with limbs < 2^63 and a subtrahend with
//     limbs < 2^55 - 304 (the smallest limb of 16p), so either side may be
//     an add result; the difference is folded back to reduced in one
//     branch-free pass.
//   * carry, to_bytes, is_zero, is_negative and equal accept limbs < 2^63.
// The group code in ed25519_internal.h and the X25519 ladder stay inside
// these bounds; tests/crypto_test.cpp drives chains at the bounds against
// the fully reducing reference ops.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace securestore::crypto::fe25519 {

struct Fe {
  std::uint64_t v[5];
};

inline constexpr Fe kZero = {{0, 0, 0, 0, 0}};
inline constexpr Fe kOne = {{1, 0, 0, 0, 0}};

inline constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

/// Normalizes limbs to < 2^51 (two carry rounds, folding the top carry
/// back through 2^255 = 19). Accepts limbs < 2^63.
void carry(Fe& h);

/// Little-endian 32-byte load; bit 255 is ignored.
Fe from_bytes(const std::uint8_t s[32]);

/// Canonical little-endian 32-byte store (fully reduced mod p).
void to_bytes(std::uint8_t s[32], const Fe& f);

/// a + b, no carry.
inline Fe add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3], a.v[4] + b.v[4]}};
}

/// One parallel carry pass: each limb keeps its low 51 bits and receives
/// its lower neighbour's carry (limb 0 receives 19 * the top carry). For
/// input limbs < 2^64 the carries are < 2^13, so the output is reduced.
inline Fe weak_reduce(const Fe& a) {
  const std::uint64_t c0 = a.v[0] >> 51, c1 = a.v[1] >> 51, c2 = a.v[2] >> 51,
                      c3 = a.v[3] >> 51, c4 = a.v[4] >> 51;
  return Fe{{(a.v[0] & kMask51) + c4 * 19, (a.v[1] & kMask51) + c0, (a.v[2] & kMask51) + c1,
             (a.v[3] & kMask51) + c2, (a.v[4] & kMask51) + c3}};
}

/// (a + 16p) - b, weakly reduced. 16p's limbs exceed any b < 2^55 - 304,
/// so nothing underflows.
inline Fe sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t k16P0 = 16 * ((std::uint64_t{1} << 51) - 19);
  constexpr std::uint64_t k16Pi = 16 * ((std::uint64_t{1} << 51) - 1);
  return weak_reduce(Fe{{a.v[0] + k16P0 - b.v[0], a.v[1] + k16Pi - b.v[1], a.v[2] + k16Pi - b.v[2],
                         a.v[3] + k16Pi - b.v[3], a.v[4] + k16Pi - b.v[4]}});
}

inline Fe neg(const Fe& a) { return sub(kZero, a); }

/// Folds five 128-bit column sums (each < 2^115) into a reduced element.
/// Each carry out of a column is < 2^64; the top one is < 2^59.4 (the top
/// column has no factor 19), so 19 * it still fits 64 bits.
inline Fe fold_columns(unsigned __int128 t0, unsigned __int128 t1, unsigned __int128 t2,
                       unsigned __int128 t3, unsigned __int128 t4) {
  using u64 = std::uint64_t;
  Fe h;
  t1 += static_cast<u64>(t0 >> 51);
  h.v[0] = static_cast<u64>(t0) & kMask51;
  t2 += static_cast<u64>(t1 >> 51);
  h.v[1] = static_cast<u64>(t1) & kMask51;
  t3 += static_cast<u64>(t2 >> 51);
  h.v[2] = static_cast<u64>(t2) & kMask51;
  t4 += static_cast<u64>(t3 >> 51);
  h.v[3] = static_cast<u64>(t3) & kMask51;
  const u64 c = static_cast<u64>(t4 >> 51);
  h.v[4] = static_cast<u64>(t4) & kMask51;
  h.v[0] += c * 19;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

/// a * b for limbs < 2^54: the largest column, t0 = a0*b0 + 19*(a1*b4 +
/// a2*b3 + a3*b2 + a4*b1), is < 77 * 2^108 < 2^115.
inline Fe mul(const Fe& a, const Fe& b) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;
  return fold_columns(a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19,
                      a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19,
                      a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19,
                      a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19,
                      a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0);
}

/// a^2 with 15 instead of 25 limb products; same input bound as mul.
inline Fe sq(const Fe& a) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u128 d0 = a.v[0] * 2, d1 = a.v[1] * 2, d2 = a.v[2] * 2, d3 = a.v[3] * 2;
  const u64 a3_19 = a.v[3] * 19, a4_19 = a.v[4] * 19;
  return fold_columns(a0 * a0 + d1 * a4_19 + d2 * a3_19,  //
                      d0 * a1 + d2 * a4_19 + a3 * a3_19,  //
                      d0 * a2 + a1 * a1 + d3 * a4_19,     //
                      d0 * a3 + d1 * a2 + a4 * a4_19,     //
                      d0 * a4 + d1 * a3 + a2 * a2);
}

/// a^(2^n) by repeated squaring.
Fe sqn(Fe a, int n);
/// Multiplies by a small scalar (< 2^17, e.g. X25519's a24 = 121665).
Fe mul_small(const Fe& a, std::uint64_t small);
/// a^(p-2) = a^-1.
Fe invert(const Fe& a);
/// a^((p-5)/8), for square roots in point decompression.
Fe pow22523(const Fe& a);

bool is_zero(const Fe& a);
bool is_negative(const Fe& a);
bool equal(const Fe& a, const Fe& b);

}  // namespace securestore::crypto::fe25519
