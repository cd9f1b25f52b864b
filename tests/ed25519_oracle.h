// Reference Ed25519 arithmetic for differential tests.
//
// The straightforward implementation the production code replaced, kept
// only as a test oracle: fully reducing field add/sub (two carry rounds
// after every operation), extended-coordinate points with MSB-first
// double-and-add scalar multiplication, and scalars mod L by 260-step
// shift-subtract long division over a fixed-width 512-bit integer. Slow,
// but every step is obviously correct. `sign` and `verify` are the
// original RFC 8032 code paths built on it, so their outputs are the
// verdicts the optimized engine must reproduce.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "crypto/fe25519.h"
#include "crypto/sha2.h"
#include "util/bytes.h"

namespace securestore::crypto::ed25519_oracle {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using fe25519::Fe;

// ---------------------------------------------------------------------------
// Field: fully reducing add/sub on top of the shared multiply.
// ---------------------------------------------------------------------------

inline Fe fe_carried(Fe h) {
  fe25519::carry(h);
  return h;
}

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe h;
  for (int i = 0; i < 5; ++i) h.v[i] = a.v[i] + b.v[i];
  return fe_carried(h);
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  static constexpr u64 k8P0 = 8 * ((u64{1} << 51) - 19);
  static constexpr u64 k8Pi = 8 * ((u64{1} << 51) - 1);
  Fe h;
  h.v[0] = a.v[0] + k8P0 - b.v[0];
  for (int i = 1; i < 5; ++i) h.v[i] = a.v[i] + k8Pi - b.v[i];
  return fe_carried(h);
}

inline Fe fe_neg(const Fe& a) { return fe_sub(fe25519::kZero, a); }
inline Fe fe_mul(const Fe& a, const Fe& b) { return fe25519::mul(fe_carried(a), fe_carried(b)); }
inline Fe fe_sq(const Fe& a) { return fe_mul(a, a); }

inline bool fe_equal(const Fe& a, const Fe& b) {
  std::uint8_t x[32], y[32];
  fe25519::to_bytes(x, a);
  fe25519::to_bytes(y, b);
  return std::memcmp(x, y, 32) == 0;
}

inline const Fe& fe_d() {
  static const Fe d = [] {
    const std::uint8_t bytes[32] = {0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75,
                                    0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
                                    0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c,
                                    0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52};
    return fe25519::from_bytes(bytes);
  }();
  return d;
}

inline const Fe& fe_2d() {
  static const Fe two_d = fe_add(fe_d(), fe_d());
  return two_d;
}

inline const Fe& fe_sqrtm1() {
  static const Fe s = [] {
    const std::uint8_t bytes[32] = {0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4,
                                    0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43, 0x2f,
                                    0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b,
                                    0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};
    return fe25519::from_bytes(bytes);
  }();
  return s;
}

// ---------------------------------------------------------------------------
// Group: extended twisted-Edwards coordinates (X:Y:Z:T), a = -1.
// ---------------------------------------------------------------------------

struct Ge {
  Fe x, y, z, t;
};

inline Ge ge_identity() { return Ge{fe25519::kZero, fe25519::kOne, fe25519::kOne, fe25519::kZero}; }

/// Unified addition (add-2008-hwcd-3, complete for Ed25519).
inline Ge ge_add(const Ge& p, const Ge& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, fe_2d()), q.t);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

/// Doubling (dbl-2008-hwcd).
inline Ge ge_double(const Ge& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe c = fe_add(fe_sq(p.z), fe_sq(p.z));
  const Fe d = fe_neg(a);
  const Fe e = fe_sub(fe_sub(fe_sq(fe_add(p.x, p.y)), a), b);
  const Fe g = fe_add(d, b);
  const Fe f = fe_sub(g, c);
  const Fe h = fe_sub(d, b);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

inline Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

/// Scalar multiplication, plain MSB-first double-and-add over all 256 bits
/// of the little-endian `scalar`.
inline Ge ge_scalar_mul(const Ge& p, const std::uint8_t scalar[32]) {
  Ge r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = ge_double(r);
    if ((scalar[i / 8] >> (i % 8)) & 1) r = ge_add(r, p);
  }
  return r;
}

inline void ge_compress(std::uint8_t out[32], const Ge& p) {
  const Fe zinv = fe25519::invert(fe_carried(p.z));
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe25519::to_bytes(out, y);
  if (fe25519::is_negative(x)) out[31] |= 0x80;
}

inline bool ge_is_identity(const Ge& p) {
  return fe25519::is_zero(p.x) && fe_equal(p.y, p.z);
}

inline bool ge_decompress(Ge& out, const std::uint8_t in[32]) {
  std::uint8_t y_bytes[32];
  std::memcpy(y_bytes, in, 32);
  const bool sign = (y_bytes[31] & 0x80) != 0;
  y_bytes[31] &= 0x7f;

  const Fe y = fe25519::from_bytes(y_bytes);
  std::uint8_t canonical[32];
  fe25519::to_bytes(canonical, y);
  if (std::memcmp(canonical, y_bytes, 32) != 0) return false;

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe25519::kOne);
  const Fe v = fe_add(fe_mul(fe_d(), y2), fe25519::kOne);
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe25519::pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (!fe_equal(vx2, fe_neg(u))) return false;
    x = fe_mul(x, fe_sqrtm1());
  }

  if (fe25519::is_zero(x) && sign) return false;
  if (fe25519::is_negative(x) != sign) x = fe_neg(x);

  out = Ge{x, y, fe25519::kOne, fe_mul(x, y)};
  return true;
}

inline const Ge& ge_base() {
  static const Ge base = [] {
    std::uint8_t y_bytes[32];
    std::memset(y_bytes, 0x66, 32);
    y_bytes[0] = 0x58;
    Ge b;
    if (!ge_decompress(b, y_bytes)) throw std::logic_error("oracle: bad base point");
    return b;
  }();
  return base;
}

// ---------------------------------------------------------------------------
// Scalars: 512-bit integers, shift-subtract reduction mod L.
// ---------------------------------------------------------------------------

struct U512 {
  u64 w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
};

inline U512 u512_from_le(BytesView bytes) {
  if (bytes.size() > 64) throw std::invalid_argument("u512_from_le: too long");
  U512 x;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    x.w[i / 8] |= static_cast<u64>(bytes[i]) << (8 * (i % 8));
  }
  return x;
}

inline int u512_compare(const U512& a, const U512& b) {
  for (int i = 7; i >= 0; --i) {
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i] ? -1 : 1;
  }
  return 0;
}

inline void u512_sub_inplace(U512& a, const U512& b) {
  u64 borrow = 0;
  for (int i = 0; i < 8; ++i) {
    const u64 bi = b.w[i];
    const u64 tmp = a.w[i] - bi;
    const u64 borrow1 = a.w[i] < bi ? 1 : 0;
    const u64 res = tmp - borrow;
    const u64 borrow2 = tmp < borrow ? 1 : 0;
    a.w[i] = res;
    borrow = borrow1 | borrow2;
  }
}

inline U512 u512_shift_left(const U512& a, int bits) {
  U512 r;
  const int word_shift = bits / 64;
  const int bit_shift = bits % 64;
  for (int i = 7; i >= 0; --i) {
    u64 v = 0;
    if (i - word_shift >= 0) v = a.w[i - word_shift] << bit_shift;
    if (bit_shift != 0 && i - word_shift - 1 >= 0) {
      v |= a.w[i - word_shift - 1] >> (64 - bit_shift);
    }
    r.w[i] = v;
  }
  return r;
}

inline U512 u512_add(const U512& a, const U512& b) {
  U512 r;
  u64 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u64 sum1 = a.w[i] + b.w[i];
    const u64 carry1 = sum1 < a.w[i] ? 1 : 0;
    const u64 sum2 = sum1 + carry;
    const u64 carry2 = sum2 < sum1 ? 1 : 0;
    r.w[i] = sum2;
    carry = carry1 | carry2;
  }
  return r;
}

/// 256x256 -> 512 bit multiply (low 4 words of each input).
inline U512 u512_mul_256(const U512& a, const U512& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.w[i]) * b.w[j] + r.w[i + j] + carry;
      r.w[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    r.w[i + 4] = carry;
  }
  return r;
}

inline const U512& order_l() {
  static const U512 L = [] {
    const std::uint8_t bytes[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                    0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};
    return u512_from_le(BytesView(bytes, 32));
  }();
  return L;
}

/// x mod m by shift-subtract long division; m must have at most 256 bits.
inline U512 u512_mod(U512 x, const U512& m, int m_bits) {
  for (int shift = 512 - m_bits; shift >= 0; --shift) {
    const U512 shifted = u512_shift_left(m, shift);
    if (u512_compare(x, shifted) >= 0) u512_sub_inplace(x, shifted);
  }
  return x;
}

/// x mod L (L has 253 bits).
inline U512 u512_mod_l(const U512& x) { return u512_mod(x, order_l(), 253); }

/// p = 2^255 - 19.
inline const U512& prime_p() {
  static const U512 p = [] {
    U512 x;
    x.w[0] = ~u64{0} - 18;
    x.w[1] = x.w[2] = ~u64{0};
    x.w[3] = ~u64{0} >> 1;
    return x;
  }();
  return p;
}

/// The integer value of a field element, sum v[i] * 2^(51 i), reduced mod
/// p with integer arithmetic only (no fe25519 code involved).
inline U512 fe_value(const Fe& a) {
  U512 x;
  for (int i = 0; i < 5; ++i) {
    U512 limb;
    limb.w[0] = a.v[i];
    x = u512_add(x, u512_shift_left(limb, 51 * i));
  }
  return u512_mod(x, prime_p(), 255);
}

/// (a * b) mod p for values already reduced mod p.
inline U512 value_mul(const U512& a, const U512& b) {
  return u512_mod(u512_mul_256(a, b), prime_p(), 255);
}

inline void scalar_to_bytes(std::uint8_t out[32], const U512& x) {
  for (int i = 0; i < 32; ++i) out[i] = static_cast<std::uint8_t>(x.w[i / 8] >> (8 * (i % 8)));
}

inline void reduce_hash_to_scalar(std::uint8_t out[32], BytesView hash64) {
  scalar_to_bytes(out, u512_mod_l(u512_from_le(hash64)));
}

/// out = (k * a + r) mod L.
inline void scalar_muladd(std::uint8_t out[32], const std::uint8_t k[32], const std::uint8_t a[32],
                          const std::uint8_t r[32]) {
  const U512 sum = u512_add(u512_mul_256(u512_from_le(BytesView(k, 32)), u512_from_le(BytesView(a, 32))),
                            u512_from_le(BytesView(r, 32)));
  scalar_to_bytes(out, u512_mod_l(sum));
}

inline bool scalar_is_canonical(const std::uint8_t s[32]) {
  return u512_compare(u512_from_le(BytesView(s, 32)), order_l()) < 0;
}

// ---------------------------------------------------------------------------
// RFC 8032 sign and verify, as originally written.
// ---------------------------------------------------------------------------

struct ExpandedKey {
  std::uint8_t scalar[32];
  std::uint8_t prefix[32];
};

inline ExpandedKey expand_seed(BytesView seed) {
  const Bytes h = sha512(seed);
  ExpandedKey key;
  std::memcpy(key.scalar, h.data(), 32);
  std::memcpy(key.prefix, h.data() + 32, 32);
  key.scalar[0] &= 248;
  key.scalar[31] &= 127;
  key.scalar[31] |= 64;
  return key;
}

inline Bytes public_key(BytesView seed) {
  const ExpandedKey key = expand_seed(seed);
  Bytes out(32);
  ge_compress(out.data(), ge_scalar_mul(ge_base(), key.scalar));
  return out;
}

inline Bytes sign(BytesView seed, BytesView message) {
  const ExpandedKey key = expand_seed(seed);
  const Bytes pk = public_key(seed);

  Sha512 hr;
  hr.update(BytesView(key.prefix, 32));
  hr.update(message);
  const auto r_hash = hr.finish();
  std::uint8_t r_scalar[32];
  reduce_hash_to_scalar(r_scalar, BytesView(r_hash.data(), r_hash.size()));

  std::uint8_t r_bytes[32];
  ge_compress(r_bytes, ge_scalar_mul(ge_base(), r_scalar));

  Sha512 hk;
  hk.update(BytesView(r_bytes, 32));
  hk.update(pk);
  hk.update(message);
  const auto k_hash = hk.finish();
  std::uint8_t k_scalar[32];
  reduce_hash_to_scalar(k_scalar, BytesView(k_hash.data(), k_hash.size()));

  std::uint8_t s_scalar[32];
  scalar_muladd(s_scalar, k_scalar, key.scalar, r_scalar);

  Bytes signature(64);
  std::memcpy(signature.data(), r_bytes, 32);
  std::memcpy(signature.data() + 32, s_scalar, 32);
  return signature;
}

/// Cofactorless check [S]B == R + [k]A by two double-and-add
/// multiplications and a byte comparison with the encoded R.
inline bool verify(BytesView pk, BytesView message, BytesView signature) {
  if (pk.size() != 32 || signature.size() != 64) return false;
  const std::uint8_t* r_bytes = signature.data();
  const std::uint8_t* s_bytes = signature.data() + 32;
  if (!scalar_is_canonical(s_bytes)) return false;

  Ge a_point;
  if (!ge_decompress(a_point, pk.data())) return false;
  Ge r_point;
  if (!ge_decompress(r_point, r_bytes)) return false;

  Sha512 hk;
  hk.update(BytesView(r_bytes, 32));
  hk.update(pk);
  hk.update(message);
  const auto k_hash = hk.finish();
  std::uint8_t k_scalar[32];
  reduce_hash_to_scalar(k_scalar, BytesView(k_hash.data(), k_hash.size()));

  const Ge check =
      ge_add(ge_scalar_mul(ge_base(), s_bytes), ge_scalar_mul(ge_neg(a_point), k_scalar));
  std::uint8_t check_bytes[32];
  ge_compress(check_bytes, check);
  return std::memcmp(check_bytes, r_bytes, 32) == 0;
}

}  // namespace securestore::crypto::ed25519_oracle
