// Ed25519 internals shared by signing and key derivation (ed25519.cpp) and
// by the multi-scalar verification engine (ed25519_batch.cpp).
//
// Single and batch verification run through the same engine, so they agree
// bit-for-bit on what a valid point or canonical scalar is. Not part of the
// public crypto API: include only from crypto/*.cpp and crypto tests.
//
// Group arithmetic follows the ref10 layering over the twisted Edwards
// curve -x^2 + y^2 = 1 + d x^2 y^2 (Hisil-Wong-Carter-Dawson 2008, a = -1):
//   GeP2     projective (X:Y:Z)                  x = X/Z, y = Y/Z
//   GeP3     extended (X:Y:Z:T)                  also T = XY/Z
//   GeP1P1   completed ((X:Z),(Y:T))             x = X/Z, y = Y/T
//   GeCached (Y+X, Y-X, Z, 2dT)                  addend of a full addition
//   GeNiels  (y+x, y-x, 2dxy), affine            addend of a mixed addition
// A doubling is P2 -> P1P1 (4 squarings), an addition P3 + Cached -> P1P1
// (4 multiplications) or P3 + Niels -> P1P1 (3); converting P1P1 to P2
// costs 3 multiplications and to P3 costs 4, so a doubling followed by a
// doubling never computes T. Every field input stays inside the limb bounds
// documented in fe25519.h: each add result below feeds only mul, sq or sub.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/ed25519_batch.h"
#include "crypto/fe25519.h"

namespace securestore::crypto::ed25519_internal {

using fe25519::Fe;
namespace fe = fe25519;

/// 2d, for d = -121665/121666 mod p the curve constant.
const Fe& fe_2d();

// ---------------------------------------------------------------------------
// Point representations and formulas.
// ---------------------------------------------------------------------------

struct GeP2 {
  Fe x, y, z;
};

struct GeP3 {
  Fe x, y, z, t;
};

struct GeP1P1 {
  Fe x, y, z, t;
};

struct GeCached {
  Fe y_plus_x, y_minus_x, z, t2d;
};

struct GeNiels {
  Fe y_plus_x, y_minus_x, xy2d;
};

inline GeP2 ge_p2_identity() { return GeP2{fe::kZero, fe::kOne, fe::kOne}; }
inline GeP3 ge_p3_identity() { return GeP3{fe::kZero, fe::kOne, fe::kOne, fe::kZero}; }

inline GeP2 ge_p3_to_p2(const GeP3& p) { return GeP2{p.x, p.y, p.z}; }

inline GeP2 ge_p1p1_to_p2(const GeP1P1& p) {
  return GeP2{fe::mul(p.x, p.t), fe::mul(p.y, p.z), fe::mul(p.z, p.t)};
}

inline GeP3 ge_p1p1_to_p3(const GeP1P1& p) {
  return GeP3{fe::mul(p.x, p.t), fe::mul(p.y, p.z), fe::mul(p.z, p.t), fe::mul(p.x, p.y)};
}

inline GeCached ge_p3_to_cached(const GeP3& p) {
  return GeCached{fe::add(p.y, p.x), fe::sub(p.y, p.x), p.z, fe::mul(p.t, fe_2d())};
}

inline GeP3 ge_p3_neg(const GeP3& p) { return GeP3{fe::neg(p.x), p.y, p.z, fe::neg(p.t)}; }

/// 2p (dbl-2008-hwcd). T3 is formed as (2Z^2 + X^2) - Y^2 so that no sub
/// ever takes a sub result as its subtrahend.
inline GeP1P1 ge_p2_dbl(const GeP2& p) {
  const Fe xx = fe::sq(p.x);
  const Fe yy = fe::sq(p.y);
  const Fe zz = fe::sq(p.z);
  const Fe aa = fe::sq(fe::add(p.x, p.y));
  const Fe y_sum = fe::add(yy, xx);
  return GeP1P1{fe::sub(aa, y_sum), y_sum, fe::sub(yy, xx),
                fe::sub(fe::add(fe::add(zz, zz), xx), yy)};
}

inline GeP1P1 ge_p3_dbl(const GeP3& p) { return ge_p2_dbl(ge_p3_to_p2(p)); }

/// p + q (add-2008-hwcd-3, complete on Ed25519).
inline GeP1P1 ge_add(const GeP3& p, const GeCached& q) {
  const Fe a = fe::mul(fe::sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe::mul(fe::add(p.y, p.x), q.y_plus_x);
  const Fe c = fe::mul(q.t2d, p.t);
  const Fe zz = fe::mul(p.z, q.z);
  const Fe d = fe::add(zz, zz);
  return GeP1P1{fe::sub(b, a), fe::add(b, a), fe::add(d, c), fe::sub(d, c)};
}

/// p - q: the negation of q swaps Y+X with Y-X and negates 2dT.
inline GeP1P1 ge_sub(const GeP3& p, const GeCached& q) {
  const Fe a = fe::mul(fe::sub(p.y, p.x), q.y_plus_x);
  const Fe b = fe::mul(fe::add(p.y, p.x), q.y_minus_x);
  const Fe c = fe::mul(q.t2d, p.t);
  const Fe zz = fe::mul(p.z, q.z);
  const Fe d = fe::add(zz, zz);
  return GeP1P1{fe::sub(b, a), fe::add(b, a), fe::sub(d, c), fe::add(d, c)};
}

/// p + q for affine q (mixed addition, Z2 = 1).
inline GeP1P1 ge_madd(const GeP3& p, const GeNiels& q) {
  const Fe a = fe::mul(fe::sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe::mul(fe::add(p.y, p.x), q.y_plus_x);
  const Fe c = fe::mul(q.xy2d, p.t);
  const Fe d = fe::add(p.z, p.z);
  return GeP1P1{fe::sub(b, a), fe::add(b, a), fe::add(d, c), fe::sub(d, c)};
}

/// p - q for affine q.
inline GeP1P1 ge_msub(const GeP3& p, const GeNiels& q) {
  const Fe a = fe::mul(fe::sub(p.y, p.x), q.y_plus_x);
  const Fe b = fe::mul(fe::add(p.y, p.x), q.y_minus_x);
  const Fe c = fe::mul(q.xy2d, p.t);
  const Fe d = fe::add(p.z, p.z);
  return GeP1P1{fe::sub(b, a), fe::add(b, a), fe::sub(d, c), fe::add(d, c)};
}

/// True iff p is the identity (projective check, no inversion): X = 0 and
/// Y = Z.
inline bool ge_is_identity(const GeP2& p) {
  return fe::is_zero(p.x) && fe::equal(p.y, p.z);
}

/// Canonical 32-byte encoding: y with the sign of x in bit 255.
void ge_compress(std::uint8_t out[32], const GeP2& p);

/// Decodes a point (RFC 8032 §5.1.3). Returns false, leaving `out`
/// unspecified, for y >= p, for a y with no x on the curve, and for the
/// sign bit set on x = 0.
bool ge_decompress(GeP3& out, const std::uint8_t in[32]);

/// The base point B (y = 4/5, x even).
const GeP3& ge_base();

/// [a]B through the precomputed radix-16 table of B: 64 mixed additions and
/// 4 doublings. Requires a[31] <= 127 (every clamped or reduced scalar).
GeP3 ge_scalarmult_base(const std::uint8_t a[32]);

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493
// (and mod 8L), by Barrett reduction over 64-bit words (HAC 14.42); every
// output is fully reduced.
// ---------------------------------------------------------------------------

/// out = x mod L for a 64-byte little-endian x (a SHA-512 digest).
void sc_reduce64(std::uint8_t out[32], const std::uint8_t x[64]);

/// out = (a * b + c) mod L; a, b, c are any 32-byte little-endian values.
void sc_muladd(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32],
               const std::uint8_t c[32]);

/// out = (a * b) mod L.
void sc_mul(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]);

/// out = (a * b) mod 8L. The order of every curve point divides 8L, so
/// [out]P = [a * b]P exactly, even for a P with a small-torsion component.
void sc_mul_mod_8l(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]);

/// out = (a + b) mod L.
void sc_add(std::uint8_t out[32], const std::uint8_t a[32], const std::uint8_t b[32]);

/// True iff the 32 little-endian bytes encode an integer < L.
bool sc_is_canonical(const std::uint8_t s[32]);

// ---------------------------------------------------------------------------
// Multi-scalar multiplication.
// ---------------------------------------------------------------------------

/// Width-w non-adjacent form of s (requires s < 2^255, so 256 digits
/// suffice): every digit is 0 or odd with |digit| < 2^(w-1), and any two
/// nonzero digits are at least w positions apart. Returns one past the
/// highest nonzero digit (0 for s = 0).
int ge_wnaf(std::array<std::int8_t, 256>& naf, const std::uint8_t s[32], int width);

/// The 2^(width-2) odd multiples P, 3P, 5P, ... that width-`width` w-NAF
/// digits index.
std::vector<GeCached> ge_odd_multiples(const GeP3& p, int width);

/// One variable-base term [scalar]P: the scalar's w-NAF and P's odd
/// multiples for the same width.
struct MsmTerm {
  std::array<std::int8_t, 256> naf{};
  int digits = 0;  // ge_wnaf's return value
  const GeCached* odd_multiples = nullptr;
};

/// [b_scalar]B + sum [s_i]P_i by Straus' interleaved w-NAF multi-scalar
/// multiplication: one shared chain of doublings, as long as the longest
/// w-NAF. [b_scalar]B is computed as [lo]B + [hi]([2^128]B) from
/// precomputed width-8 tables of odd multiples of B and of [2^128]B, so it
/// needs only 128 doublings; callers split their own 253-bit scalars the
/// same way (sc_split128, DecodedKey). b_scalar must be < 2^256.
GeP2 ge_msm(const std::uint8_t b_scalar[32], std::span<const MsmTerm> terms);

/// s = lo + 2^128 * hi, both halves as 32-byte scalars.
void sc_split128(const std::uint8_t s[32], std::uint8_t lo[32], std::uint8_t hi[32]);

// ---------------------------------------------------------------------------
// Decoded-key cache.
// ---------------------------------------------------------------------------

/// Width of the w-NAF for public-key terms: the cache builds
/// 2^(kKeyNafWidth-2) odd multiples of each of -A and [2^128](-A) once.
inline constexpr int kKeyNafWidth = 6;

/// A decoded public key ready for the verification equation: odd
/// multiples (width kKeyNafWidth) of -A and of [2^128](-A), so that a
/// 253-bit scalar k applies as [k mod 2^128](-A) + [k >> 128]([2^128](-A)).
struct DecodedKey {
  std::array<std::uint8_t, 32> encoding{};
  std::vector<GeCached> neg_odd_multiples;
  std::vector<GeCached> neg_odd_multiples_hi;
};

/// A bounded, thread-safe map from a 32-byte public key to its decoded
/// point and table. A deployment signs with a small fixed set of keys (its
/// writers, its servers, its ring authority), so after warm-up every
/// verification skips the point decompression and the table build. At
/// capacity the least recently used key is evicted. Encodings that do not
/// decode are never inserted.
class KeyCache {
 public:
  explicit KeyCache(std::size_t capacity);

  /// The process-wide cache every verification goes through.
  static KeyCache& global();

  /// The decoded key, decoding and inserting it on a miss; nullptr if the
  /// encoding is not a valid point. The returned entry stays valid after
  /// eviction.
  std::shared_ptr<const DecodedKey> get(const std::uint8_t public_key[32]);

  std::size_t size() const;
  bool contains(const std::uint8_t public_key[32]) const;

 private:
  struct KeyHash {
    std::size_t operator()(const std::array<std::uint8_t, 32>& key) const;
  };
  struct Slot {
    std::shared_ptr<const DecodedKey> key;
    std::uint64_t last_used = 0;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::array<std::uint8_t, 32>, Slot, KeyHash> slots_;
  std::uint64_t clock_ = 0;
};

// ---------------------------------------------------------------------------
// Verification.
// ---------------------------------------------------------------------------

/// The unmetered verifier behind ed25519_verify (a batch of one) and
/// ed25519_batch_verify, taking its decoded keys from `keys`.
BatchVerifyResult verify_batch(std::span<const BatchVerifyItem> items, KeyCache& keys);

}  // namespace securestore::crypto::ed25519_internal
