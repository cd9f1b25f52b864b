// Ed25519 group arithmetic: point encoding, the precomputed tables of B,
// fixed-base multiplication, the w-NAF multi-scalar engine and the decoded
// key cache. See ed25519_internal.h for the representations.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/ed25519_internal.h"

namespace securestore::crypto::ed25519_internal {

namespace {

// Canonical little-endian bytes of d and sqrt(-1) (RFC 8032).
constexpr std::uint8_t kDBytes[32] = {
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41,
    0x41, 0x4d, 0x0a, 0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40,
    0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52};
constexpr std::uint8_t kSqrtM1Bytes[32] = {
    0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f,
    0xad, 0x06, 0x18, 0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00,
    0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};

const Fe& fe_d() {
  static const Fe d = fe::from_bytes(kDBytes);
  return d;
}

const Fe& fe_sqrtm1() {
  static const Fe s = fe::from_bytes(kSqrtM1Bytes);
  return s;
}

/// Width of the w-NAF for the B term of verification; 2^(8-2) = 64 odd
/// multiples of B are precomputed.
constexpr int kBaseNafWidth = 8;

GeNiels to_niels(const GeP3& p) {
  const Fe zinv = fe::invert(p.z);
  const Fe x = fe::mul(p.x, zinv);
  const Fe y = fe::mul(p.y, zinv);
  return GeNiels{fe::add(y, x), fe::sub(y, x), fe::mul(fe::mul(x, y), fe_2d())};
}

GeP3 p3_add(const GeP3& p, const GeP3& q) { return ge_p1p1_to_p3(ge_add(p, ge_p3_to_cached(q))); }

/// table[i][j] = (j + 1) * 256^i * B, affine, for the radix-16
/// signed-digit fixed-base multiplication.
using BaseTable = std::array<std::array<GeNiels, 8>, 32>;

const BaseTable& base_table() {
  static const BaseTable table = [] {
    BaseTable t;
    GeP3 row_base = ge_base();
    for (auto& row : t) {
      GeP3 multiple = row_base;
      for (auto& entry : row) {
        entry = to_niels(multiple);
        multiple = p3_add(multiple, row_base);
      }
      for (int i = 0; i < 8; ++i) row_base = ge_p1p1_to_p3(ge_p3_dbl(row_base));
    }
    return t;
  }();
  return table;
}

GeP3 times_2_128(const GeP3& p) {
  GeP2 r = ge_p3_to_p2(p);
  for (int i = 0; i < 127; ++i) r = ge_p1p1_to_p2(ge_p2_dbl(r));
  return ge_p1p1_to_p3(ge_p2_dbl(r));
}

/// P, 3P, 5P, ..., 127P, affine: a width-8 w-NAF table.
using BaseOddTable = std::array<GeNiels, 64>;

BaseOddTable niels_odd_multiples(const GeP3& p) {
  BaseOddTable t;
  const GeP3 two_p = ge_p1p1_to_p3(ge_p3_dbl(p));
  GeP3 multiple = p;
  for (auto& entry : t) {
    entry = to_niels(multiple);
    multiple = p3_add(multiple, two_p);
  }
  return t;
}

/// Odd multiples of B and of [2^128]B, for the two halves of the B scalar.
const std::array<BaseOddTable, 2>& base_odd_multiples() {
  static const std::array<BaseOddTable, 2> tables = {niels_odd_multiples(ge_base()),
                                                     niels_odd_multiples(times_2_128(ge_base()))};
  return tables;
}

}  // namespace

const Fe& fe_2d() {
  static const Fe two_d = fe::weak_reduce(fe::add(fe_d(), fe_d()));
  return two_d;
}

void ge_compress(std::uint8_t out[32], const GeP2& p) {
  const Fe zinv = fe::invert(p.z);
  const Fe x = fe::mul(p.x, zinv);
  const Fe y = fe::mul(p.y, zinv);
  fe::to_bytes(out, y);
  if (fe::is_negative(x)) out[31] |= 0x80;
}

bool ge_decompress(GeP3& out, const std::uint8_t in[32]) {
  std::uint8_t y_bytes[32];
  std::memcpy(y_bytes, in, 32);
  const bool sign = (y_bytes[31] & 0x80) != 0;
  y_bytes[31] &= 0x7f;

  const Fe y = fe::from_bytes(y_bytes);
  // Reject non-canonical y (>= p). from_bytes reduces silently, so
  // re-serialize and compare.
  std::uint8_t canonical[32];
  fe::to_bytes(canonical, y);
  if (std::memcmp(canonical, y_bytes, 32) != 0) return false;

  // x^2 = (y^2 - 1) / (d*y^2 + 1)
  const Fe y2 = fe::sq(y);
  const Fe u = fe::sub(y2, fe::kOne);
  const Fe v = fe::add(fe::mul(fe_d(), y2), fe::kOne);

  // x = u*v^3 * (u*v^7)^((p-5)/8)  (RFC 8032 §5.1.3)
  const Fe v3 = fe::mul(fe::sq(v), v);
  const Fe v7 = fe::mul(fe::sq(v3), v);
  Fe x = fe::mul(fe::mul(u, v3), fe::pow22523(fe::mul(u, v7)));

  const Fe vx2 = fe::mul(v, fe::sq(x));
  if (!fe::equal(vx2, u)) {
    if (!fe::equal(vx2, fe::neg(u))) return false;
    x = fe::mul(x, fe_sqrtm1());
  }

  if (fe::is_zero(x) && sign) return false;  // -0 is not a valid encoding
  if (fe::is_negative(x) != sign) x = fe::neg(x);

  out = GeP3{x, y, fe::kOne, fe::mul(x, y)};
  return true;
}

const GeP3& ge_base() {
  static const GeP3 base = [] {
    std::uint8_t y_bytes[32];
    std::memset(y_bytes, 0x66, 32);
    y_bytes[0] = 0x58;
    GeP3 b;
    if (!ge_decompress(b, y_bytes)) throw std::logic_error("ed25519: bad base point");
    return b;
  }();
  return base;
}

GeP3 ge_scalarmult_base(const std::uint8_t a[32]) {
  // Signed radix-16 digits e[0..63] in [-8, 8], a = sum e[i] * 16^i.
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(a[i] >> 4);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // sum over odd i of e[i] 16^i B = 16 * sum e[i] 256^((i-1)/2) B, then the
  // even digits on top.
  const BaseTable& table = base_table();
  const auto add_digit = [&table](GeP3& h, int row, std::int8_t digit) {
    if (digit > 0) h = ge_p1p1_to_p3(ge_madd(h, table[row][digit - 1]));
    if (digit < 0) h = ge_p1p1_to_p3(ge_msub(h, table[row][-digit - 1]));
  };
  GeP3 h = ge_p3_identity();
  for (int i = 1; i < 64; i += 2) add_digit(h, i / 2, e[i]);
  GeP2 r = ge_p3_to_p2(h);
  for (int i = 0; i < 3; ++i) r = ge_p1p1_to_p2(ge_p2_dbl(r));
  h = ge_p1p1_to_p3(ge_p2_dbl(r));
  for (int i = 0; i < 64; i += 2) add_digit(h, i / 2, e[i]);
  return h;
}

int ge_wnaf(std::array<std::int8_t, 256>& naf, const std::uint8_t s[32], int width) {
  // Scan the bits from the bottom with a carry instead of subtracting each
  // digit from a multiword integer: a window whose value (plus carry) is
  // odd becomes a digit, and a negative digit carries one into the next
  // window. A fifth zero word lets the last windows read past bit 255.
  std::uint64_t w[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 32; ++i) w[i / 8] |= static_cast<std::uint64_t>(s[i]) << (8 * (i % 8));
  naf.fill(0);
  const std::uint64_t window_size = std::uint64_t{1} << width;
  const std::uint64_t window_mask = window_size - 1;
  std::uint64_t carry = 0;
  int top = 0;
  int pos = 0;
  while (pos < 256) {
    const int word = pos / 64;
    const int bit = pos % 64;
    std::uint64_t bits = w[word] >> bit;
    if (bit > 64 - width) bits |= w[word + 1] << (64 - bit);
    const std::uint64_t window = carry + (bits & window_mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < window_size / 2) {
      carry = 0;
      naf[static_cast<std::size_t>(pos)] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[static_cast<std::size_t>(pos)] =
          static_cast<std::int8_t>(static_cast<std::int64_t>(window) - static_cast<std::int64_t>(window_size));
    }
    top = pos + 1;
    pos += width;
  }
  return top;
}

std::vector<GeCached> ge_odd_multiples(const GeP3& p, int width) {
  std::vector<GeCached> out(std::size_t{1} << (width - 2));
  out[0] = ge_p3_to_cached(p);
  if (out.size() > 1) {
    const GeP3 two_p = ge_p1p1_to_p3(ge_p3_dbl(p));
    for (std::size_t j = 1; j < out.size(); ++j) {
      out[j] = ge_p3_to_cached(ge_p1p1_to_p3(ge_add(two_p, out[j - 1])));
    }
  }
  return out;
}

void sc_split128(const std::uint8_t s[32], std::uint8_t lo[32], std::uint8_t hi[32]) {
  std::memset(lo, 0, 32);
  std::memset(hi, 0, 32);
  std::memcpy(lo, s, 16);
  std::memcpy(hi, s + 16, 16);
}

GeP2 ge_msm(const std::uint8_t b_scalar[32], std::span<const MsmTerm> terms) {
  std::uint8_t b_halves[2][32];
  sc_split128(b_scalar, b_halves[0], b_halves[1]);
  std::array<std::int8_t, 256> b_naf[2];
  int top = 0;
  for (int h = 0; h < 2; ++h) top = std::max(top, ge_wnaf(b_naf[h], b_halves[h], kBaseNafWidth));
  for (const MsmTerm& term : terms) top = std::max(top, term.digits);
  const std::array<BaseOddTable, 2>& b_odd = base_odd_multiples();

  GeP2 r = ge_p2_identity();
  for (int i = top - 1; i >= 0; --i) {
    GeP1P1 t = ge_p2_dbl(r);
    const std::size_t pos = static_cast<std::size_t>(i);
    for (int h = 0; h < 2; ++h) {
      if (const std::int8_t d = b_naf[h][pos]; d > 0) {
        t = ge_madd(ge_p1p1_to_p3(t), b_odd[h][static_cast<std::size_t>(d / 2)]);
      } else if (d < 0) {
        t = ge_msub(ge_p1p1_to_p3(t), b_odd[h][static_cast<std::size_t>(-d / 2)]);
      }
    }
    for (const MsmTerm& term : terms) {
      if (const std::int8_t d = term.naf[pos]; d > 0) {
        t = ge_add(ge_p1p1_to_p3(t), term.odd_multiples[d / 2]);
      } else if (d < 0) {
        t = ge_sub(ge_p1p1_to_p3(t), term.odd_multiples[-d / 2]);
      }
    }
    r = ge_p1p1_to_p2(t);
  }
  return r;
}

// ---------------------------------------------------------------------------
// KeyCache
// ---------------------------------------------------------------------------

std::size_t KeyCache::KeyHash::operator()(const std::array<std::uint8_t, 32>& key) const {
  std::uint64_t h;
  std::memcpy(&h, key.data(), sizeof h);
  return static_cast<std::size_t>(h);
}

KeyCache::KeyCache(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

KeyCache& KeyCache::global() {
  static KeyCache cache(64);
  return cache;
}

std::shared_ptr<const DecodedKey> KeyCache::get(const std::uint8_t public_key[32]) {
  std::array<std::uint8_t, 32> encoding;
  std::memcpy(encoding.data(), public_key, 32);
  {
    std::lock_guard lock(mu_);
    if (auto it = slots_.find(encoding); it != slots_.end()) {
      it->second.last_used = ++clock_;
      return it->second.key;
    }
  }

  // Decode outside the lock; a concurrent miss on the same key builds an
  // identical entry and the first insert wins.
  GeP3 a_point;
  if (!ge_decompress(a_point, public_key)) return nullptr;
  auto decoded = std::make_shared<DecodedKey>();
  decoded->encoding = encoding;
  const GeP3 neg_a = ge_p3_neg(a_point);
  decoded->neg_odd_multiples = ge_odd_multiples(neg_a, kKeyNafWidth);
  decoded->neg_odd_multiples_hi = ge_odd_multiples(times_2_128(neg_a), kKeyNafWidth);

  std::lock_guard lock(mu_);
  if (auto it = slots_.find(encoding); it != slots_.end()) {
    it->second.last_used = ++clock_;
    return it->second.key;
  }
  if (slots_.size() >= capacity_) {
    const auto victim = std::min_element(slots_.begin(), slots_.end(), [](const auto& a, const auto& b) {
      return a.second.last_used < b.second.last_used;
    });
    slots_.erase(victim);
  }
  slots_.emplace(encoding, Slot{decoded, ++clock_});
  return decoded;
}

std::size_t KeyCache::size() const {
  std::lock_guard lock(mu_);
  return slots_.size();
}

bool KeyCache::contains(const std::uint8_t public_key[32]) const {
  std::array<std::uint8_t, 32> encoding;
  std::memcpy(encoding.data(), public_key, 32);
  std::lock_guard lock(mu_);
  return slots_.contains(encoding);
}

}  // namespace securestore::crypto::ed25519_internal
