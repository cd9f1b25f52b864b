// Ed25519 engine tests: seeded differential comparisons against the
// reference arithmetic in ed25519_oracle.h, edge-case verdicts shared by
// single and batch verification, and the decoded-key cache.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/ed25519.h"
#include "crypto/ed25519_batch.h"
#include "crypto/ed25519_internal.h"
#include "crypto/fe25519.h"
#include "crypto/keys.h"
#include "ed25519_oracle.h"
#include "testkit/seed.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace securestore::crypto {
namespace {

namespace eng = ed25519_internal;
namespace ref = ed25519_oracle;
using Point32 = std::array<std::uint8_t, 32>;

bool gtest_failed() { return ::testing::Test::HasFailure(); }

Point32 random_bytes32(Rng& rng) {
  Point32 out;
  const Bytes bytes = rng.bytes(32);
  std::memcpy(out.data(), bytes.data(), 32);
  return out;
}

Point32 compress(const eng::GeP2& p) {
  Point32 out;
  eng::ge_compress(out.data(), p);
  return out;
}

Point32 compress(const ref::Ge& p) {
  Point32 out;
  ref::ge_compress(out.data(), p);
  return out;
}

Point32 le_bytes(const ref::U512& x) {
  Point32 out;
  ref::scalar_to_bytes(out.data(), x);
  return out;
}

// L and L - 1 as 32-byte little-endian integers.
Point32 order_bytes() { return le_bytes(ref::order_l()); }

Point32 order_minus_one() {
  ref::U512 one;
  one.w[0] = 1;
  ref::U512 x = ref::order_l();
  ref::u512_sub_inplace(x, one);
  return le_bytes(x);
}

/// A uniformly random curve point (decoding random encodings until one is
/// valid); about one in eight carries a small-torsion component.
Point32 random_point(Rng& rng) {
  for (;;) {
    const Point32 encoding = random_bytes32(rng);
    ref::Ge p;
    if (ref::ge_decompress(p, encoding.data())) return encoding;
  }
}

eng::GeP3 decode(const Point32& encoding) {
  eng::GeP3 p;
  EXPECT_TRUE(eng::ge_decompress(p, encoding.data()));
  return p;
}

ref::Ge ref_decode(const Point32& encoding) {
  ref::Ge p;
  EXPECT_TRUE(ref::ge_decompress(p, encoding.data()));
  return p;
}

/// Scalars that exercise every digit pattern: random values of each width,
/// all-ones, single bits, and the group-order edges.
std::vector<Point32> scalar_cases(Rng& rng, int random_count) {
  std::vector<Point32> out;
  out.push_back(Point32{});
  Point32 one{};
  one[0] = 1;
  out.push_back(one);
  out.push_back(order_minus_one());
  out.push_back(order_bytes());
  Point32 top{};
  top[31] = 0x7f;
  for (int i = 0; i < 31; ++i) top[i] = 0xff;
  out.push_back(top);  // 2^255 - 1
  Point32 high_bit{};
  high_bit[31] = 0x40;
  out.push_back(high_bit);
  for (int i = 0; i < random_count; ++i) {
    Point32 s = random_bytes32(rng);
    s[31] &= 0x7f;
    // Random widths, so short scalars (batch coefficients) are covered.
    const std::size_t keep = 1 + rng.next_below(32);
    for (std::size_t b = keep; b < 32; ++b) s[b] = 0;
    out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Differential: engine vs double-and-add / shift-subtract.
// ---------------------------------------------------------------------------

TEST(Ed25519Differential, FixedBaseTableMatchesDoubleAndAdd) {
  testkit::SeedBanner banner("ed25519_fixed_base", 1201, gtest_failed);
  Rng rng(banner.seed());
  for (const Point32& s : scalar_cases(rng, 40)) {
    EXPECT_EQ(compress(eng::ge_p3_to_p2(eng::ge_scalarmult_base(s.data()))),
              compress(ref::ge_scalar_mul(ref::ge_base(), s.data())))
        << to_hex(Bytes(s.begin(), s.end()));
  }
}

TEST(Ed25519Differential, VariableBaseWnafMatchesDoubleAndAdd) {
  testkit::SeedBanner banner("ed25519_wnaf", 1202, gtest_failed);
  Rng rng(banner.seed());
  const Point32 zero{};
  for (int trial = 0; trial < 12; ++trial) {
    const Point32 p = random_point(rng);
    const eng::GeP3 point = decode(p);
    for (int width = 2; width <= 8; ++width) {
      const std::vector<eng::GeCached> odd = eng::ge_odd_multiples(point, width);
      for (const Point32& s : scalar_cases(rng, 2)) {
        eng::MsmTerm term;
        term.digits = eng::ge_wnaf(term.naf, s.data(), width);
        term.odd_multiples = odd.data();
        // The digits are a valid w-NAF of s...
        int last_nonzero = -width;
        for (int i = 0; i < 256; ++i) {
          const int d = term.naf[static_cast<std::size_t>(i)];
          if (d == 0) continue;
          EXPECT_NE(d % 2, 0);
          EXPECT_LT(std::abs(d), 1 << (width - 1));
          EXPECT_GE(i - last_nonzero, width);
          last_nonzero = i;
        }
        // ...and the multiplication they drive matches double-and-add.
        EXPECT_EQ(compress(eng::ge_msm(zero.data(), std::span(&term, 1))),
                  compress(ref::ge_scalar_mul(ref_decode(p), s.data())))
            << "width " << width << " scalar " << to_hex(Bytes(s.begin(), s.end()));
      }
    }
  }
}

TEST(Ed25519Differential, JointDoubleScalarMatchesDoubleAndAdd) {
  // [a]B + [b](-A), the verification shape: B through its precomputed
  // half tables, -A through a cached key's split tables.
  testkit::SeedBanner banner("ed25519_joint", 1203, gtest_failed);
  Rng rng(banner.seed());
  eng::KeyCache cache(8);
  for (int trial = 0; trial < 24; ++trial) {
    const Point32 a = random_point(rng);
    const auto key = cache.get(a.data());
    ASSERT_NE(key, nullptr);
    const std::vector<Point32> scalars = scalar_cases(rng, 2);
    const Point32& sb = scalars[rng.next_below(scalars.size())];
    const Point32& sa = scalars[rng.next_below(scalars.size())];
    std::uint8_t lo[32], hi[32];
    eng::sc_split128(sa.data(), lo, hi);
    std::array<eng::MsmTerm, 2> terms;
    terms[0].digits = eng::ge_wnaf(terms[0].naf, lo, eng::kKeyNafWidth);
    terms[0].odd_multiples = key->neg_odd_multiples.data();
    terms[1].digits = eng::ge_wnaf(terms[1].naf, hi, eng::kKeyNafWidth);
    terms[1].odd_multiples = key->neg_odd_multiples_hi.data();

    const ref::Ge expected = ref::ge_add(ref::ge_scalar_mul(ref::ge_base(), sb.data()),
                                         ref::ge_scalar_mul(ref::ge_neg(ref_decode(a)), sa.data()));
    EXPECT_EQ(compress(eng::ge_msm(sb.data(), terms)), compress(expected)) << "trial " << trial;
  }
}

TEST(Ed25519Differential, ScalarReductionMatchesShiftSubtract) {
  testkit::SeedBanner banner("ed25519_scalar", 1204, gtest_failed);
  Rng rng(banner.seed());
  std::vector<Bytes> wide;
  // Edge values L - 1, L, 2L, 2^512 - 1 and 0, then random 512-bit values.
  const auto widen = [](const ref::U512& x) {
    Bytes out(64);
    for (int i = 0; i < 64; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x.w[i / 8] >> (8 * (i % 8)));
    return out;
  };
  ref::U512 one;
  one.w[0] = 1;
  ref::U512 l_minus_one = ref::order_l();
  ref::u512_sub_inplace(l_minus_one, one);
  wide.push_back(widen(l_minus_one));
  wide.push_back(widen(ref::order_l()));
  wide.push_back(widen(ref::u512_add(ref::order_l(), ref::order_l())));
  wide.push_back(Bytes(64, 0xff));
  wide.push_back(Bytes(64, 0));
  for (int i = 0; i < 200; ++i) wide.push_back(rng.bytes(64));
  for (const Bytes& x : wide) {
    std::uint8_t got[32], want[32];
    eng::sc_reduce64(got, x.data());
    ref::reduce_hash_to_scalar(want, x);
    EXPECT_EQ(Bytes(got, got + 32), Bytes(want, want + 32)) << to_hex(x);
  }

  // (a * b + c) mod L on any 256-bit inputs, all-ones included.
  const Point32 l = order_bytes();
  std::vector<Bytes> narrow = {Bytes(32, 0xff), Bytes(32, 0), Bytes(l.begin(), l.end())};
  for (int i = 0; i < 60; ++i) narrow.push_back(rng.bytes(32));
  for (int i = 0; i < 200; ++i) {
    const Bytes& a = narrow[rng.next_below(narrow.size())];
    const Bytes& b = narrow[rng.next_below(narrow.size())];
    const Bytes& c = narrow[rng.next_below(narrow.size())];
    std::uint8_t got[32], want[32];
    eng::sc_muladd(got, a.data(), b.data(), c.data());
    ref::scalar_muladd(want, a.data(), b.data(), c.data());
    EXPECT_EQ(Bytes(got, got + 32), Bytes(want, want + 32));
    // Mod 8L: the same product reduced with the 8L shift-subtract.
    const ref::U512 eight_l = ref::u512_shift_left(ref::order_l(), 3);
    eng::sc_mul_mod_8l(got, a.data(), b.data());
    const ref::U512 product = ref::u512_mul_256(ref::u512_from_le(a), ref::u512_from_le(b));
    const Point32 expected = le_bytes(ref::u512_mod(product, eight_l, 256));
    EXPECT_EQ(Bytes(got, got + 32), Bytes(expected.begin(), expected.end()));
  }
  for (const Bytes& s : narrow) {
    EXPECT_EQ(eng::sc_is_canonical(s.data()), ref::scalar_is_canonical(s.data()));
  }
}

// ---------------------------------------------------------------------------
// Field: lazy chains at the documented limb bounds.
// ---------------------------------------------------------------------------

namespace fe = fe25519;

constexpr std::uint64_t kReducedBound = (std::uint64_t{1} << 51) + (std::uint64_t{1} << 18);

/// A reduced element with limbs in [0, kReducedBound), biased to the top.
fe::Fe random_reduced(Rng& rng) {
  fe::Fe a;
  for (auto& limb : a.v) {
    limb = rng.next_below(4) == 0 ? kReducedBound - 1 - rng.next_below(16) : rng.next_below(kReducedBound);
  }
  return a;
}

void expect_value(const fe::Fe& got, const ref::U512& want, const char* what) {
  EXPECT_EQ(ref::u512_compare(ref::fe_value(got), want), 0) << what;
}

TEST(Fe25519, LazyChainsAtLimbBoundMatchFullyReducingOps) {
  testkit::SeedBanner banner("fe25519_lazy", 1205, gtest_failed);
  Rng rng(banner.seed());
  fe::Fe max_reduced;
  for (auto& limb : max_reduced.v) limb = kReducedBound - 1;
  for (int trial = 0; trial < 300; ++trial) {
    const fe::Fe a = trial == 0 ? max_reduced : random_reduced(rng);
    const fe::Fe b = trial == 0 ? max_reduced : random_reduced(rng);
    const fe::Fe c = random_reduced(rng);
    const fe::Fe d = random_reduced(rng);
    const ref::U512 va = ref::fe_value(a), vb = ref::fe_value(b), vc = ref::fe_value(c), vd = ref::fe_value(d);

    // The sum of four reduced elements: the mul/sq input bound (< 2^54).
    const fe::Fe sum4 = fe::add(fe::add(a, b), fe::add(c, d));
    for (const std::uint64_t limb : sum4.v) ASSERT_LT(limb, std::uint64_t{1} << 54);
    const ref::U512 vsum4 = ref::u512_mod(ref::u512_add(ref::u512_add(va, vb), ref::u512_add(vc, vd)),
                                          ref::prime_p(), 255);
    expect_value(fe::mul(sum4, sum4), ref::value_mul(vsum4, vsum4), "mul(sum4, sum4)");
    expect_value(fe::sq(sum4), ref::value_mul(vsum4, vsum4), "sq(sum4)");
    expect_value(fe::mul(sum4, a), ref::value_mul(vsum4, va), "mul(sum4, a)");

    // sub: either side an add result; the result is reduced again.
    const fe::Fe diff = fe::sub(fe::add(a, b), sum4);
    for (const std::uint64_t limb : diff.v) ASSERT_LT(limb, kReducedBound);
    ref::U512 want = ref::u512_add(ref::u512_add(va, vb), ref::u512_shift_left(ref::prime_p(), 3));
    ref::u512_sub_inplace(want, vsum4);
    expect_value(diff, ref::u512_mod(want, ref::prime_p(), 255), "sub(a + b, sum4)");
    expect_value(fe::neg(sum4), ref::fe_value(ref::fe_neg(ref::fe_carried(sum4))), "neg(sum4)");

    // A chain in the group-formula shape checked against the fully
    // reducing reference ops.
    const fe::Fe lazy = fe::mul(fe::sub(fe::add(fe::sq(a), b), c), fe::add(fe::add(d, d), a));
    const fe::Fe full = ref::fe_mul(ref::fe_sub(ref::fe_add(ref::fe_sq(a), b), c),
                                    ref::fe_add(ref::fe_add(d, d), a));
    expect_value(lazy, ref::fe_value(full), "chain");
  }

  // Sub at its extreme inputs: minuend limbs near 2^63, subtrahend limbs
  // just under 16p.
  fe::Fe big, edge;
  for (auto& limb : big.v) limb = (std::uint64_t{1} << 63) - 1;
  edge.v[0] = 16 * ((std::uint64_t{1} << 51) - 19);
  for (int i = 1; i < 5; ++i) edge.v[i] = 16 * ((std::uint64_t{1} << 51) - 1);
  ref::U512 want = ref::u512_add(ref::fe_value(big), ref::prime_p());
  ref::u512_sub_inplace(want, ref::fe_value(edge));
  expect_value(fe::sub(big, edge), ref::u512_mod(want, ref::prime_p(), 255), "sub at bounds");
}

// ---------------------------------------------------------------------------
// Edge-case verdicts: single, batch of one and mixed batch agree with the
// reference verifier.
// ---------------------------------------------------------------------------

struct VerdictCase {
  std::string name;
  Bytes public_key;
  Bytes message;
  Bytes signature;
};

/// The eight points of the small-torsion subgroup, each derived as [L]P
/// for a random point P.
std::vector<Point32> torsion_points(Rng& rng) {
  std::set<Point32> found;
  const Point32 l = order_bytes();
  for (int tries = 0; tries < 400 && found.size() < 8; ++tries) {
    found.insert(compress(ref::ge_scalar_mul(ref_decode(random_point(rng)), l.data())));
  }
  EXPECT_EQ(found.size(), 8u);
  return {found.begin(), found.end()};
}

Bytes concat(const Point32& r, const Point32& s) {
  Bytes out(r.begin(), r.end());
  out.insert(out.end(), s.begin(), s.end());
  return out;
}

std::vector<VerdictCase> edge_cases(Rng& rng) {
  std::vector<VerdictCase> cases;
  const KeyPair honest = KeyPair::generate(rng);
  const Bytes message = rng.bytes(40);
  const Bytes good = ed25519_sign(honest.signing_key, message);
  const Point32 good_r = [&] { Point32 r; std::memcpy(r.data(), good.data(), 32); return r; }();
  const Point32 good_s = [&] { Point32 s; std::memcpy(s.data(), good.data() + 32, 32); return s; }();
  cases.push_back({"honest", honest.public_key, message, good});

  // Small-order public keys and small-order R: with S = 0 and A = R = O the
  // cofactorless equation holds for every message.
  const std::vector<Point32> torsion = torsion_points(rng);
  for (std::size_t i = 0; i < torsion.size(); ++i) {
    const Bytes key(torsion[i].begin(), torsion[i].end());
    for (std::size_t j = 0; j < torsion.size(); ++j) {
      cases.push_back({"torsion_key" + std::to_string(i) + "_r" + std::to_string(j), key, message,
                       concat(torsion[j], Point32{})});
    }
    cases.push_back({"torsion_key" + std::to_string(i) + "_random_s", key, message,
                     concat(torsion[i], [&] { Point32 s = random_bytes32(rng); s[31] &= 0x0f; return s; }())});
    cases.push_back({"torsion_r" + std::to_string(i), honest.public_key, message, concat(torsion[i], good_s)});
    // A valid R shifted by a torsion point.
    ref::Ge shifted = ref::ge_add(ref_decode(good_r), ref_decode(torsion[i]));
    cases.push_back({"shifted_r" + std::to_string(i), honest.public_key, message,
                     concat(compress(shifted), good_s)});
  }

  // S >= L: L itself, S + L (same residue), 2^256 - 1.
  ref::U512 s_plus_l = ref::u512_add(ref::u512_from_le(BytesView(good_s.data(), 32)), ref::order_l());
  cases.push_back({"s_eq_l", honest.public_key, message, concat(good_r, order_bytes())});
  cases.push_back({"s_plus_l", honest.public_key, message, concat(good_r, le_bytes(s_plus_l))});
  Point32 all_ones;
  all_ones.fill(0xff);
  cases.push_back({"s_all_ones", honest.public_key, message, concat(good_r, all_ones)});

  // Non-canonical y >= p (p .. 2^255 - 1), both sign bits, as key and as R.
  for (int k = 0; k < 19; k += 3) {
    for (const std::uint8_t sign : {std::uint8_t{0}, std::uint8_t{0x80}}) {
      Point32 y;
      y.fill(0xff);
      y[0] = static_cast<std::uint8_t>(0xed + k);
      y[31] = static_cast<std::uint8_t>(0x7f | sign);
      const std::string tag = std::to_string(k) + (sign ? "_neg" : "");
      cases.push_back({"noncanonical_key_p_plus_" + tag, Bytes(y.begin(), y.end()), message, good});
      cases.push_back({"noncanonical_r_p_plus_" + tag, honest.public_key, message, concat(y, good_s)});
    }
  }

  // Negative zero: x = 0 with the sign bit set, for y = 1 (the identity)
  // and y = -1 (the point of order 2).
  Point32 neg_zero_identity{};
  neg_zero_identity[0] = 1;
  neg_zero_identity[31] = 0x80;
  Point32 neg_zero_order2;
  neg_zero_order2.fill(0xff);
  neg_zero_order2[0] = 0xec;
  neg_zero_order2[31] = 0xff;
  for (const auto& [tag, point] : {std::pair{"identity", neg_zero_identity}, std::pair{"order2", neg_zero_order2}}) {
    cases.push_back({std::string("negzero_key_") + tag, Bytes(point.begin(), point.end()), message,
                     concat(point, Point32{})});
    cases.push_back({std::string("negzero_r_") + tag, honest.public_key, message, concat(point, good_s)});
  }
  return cases;
}

TEST(Ed25519Verdicts, SingleBatchOfOneAndMixedBatchMatchReference) {
  testkit::SeedBanner banner("ed25519_verdicts", 1206, gtest_failed);
  Rng rng(banner.seed());
  const std::vector<VerdictCase> cases = edge_cases(rng);

  // Honest fillers for the mixed batches.
  std::vector<KeyPair> signers;
  std::vector<Bytes> messages, signatures;
  for (int i = 0; i < 5; ++i) {
    signers.push_back(KeyPair::generate(rng));
    messages.push_back(rng.bytes(24));
    signatures.push_back(ed25519_sign(signers.back().signing_key, messages.back()));
  }

  int accepted = 0;
  for (const VerdictCase& c : cases) {
    const bool expected = ref::verify(c.public_key, c.message, c.signature);
    accepted += expected ? 1 : 0;
    EXPECT_EQ(ed25519_verify(c.public_key, c.message, c.signature), expected) << c.name;
    EXPECT_EQ(ed25519_batch_verify({{c.public_key, c.message, c.signature}}).valid[0], expected) << c.name;

    std::vector<BatchVerifyItem> mixed;
    const std::size_t position = rng.next_below(signers.size() + 1);
    for (std::size_t i = 0; i < signers.size(); ++i) {
      if (i == position) mixed.push_back({c.public_key, c.message, c.signature});
      mixed.push_back({signers[i].public_key, messages[i], signatures[i]});
    }
    if (position == signers.size()) mixed.push_back({c.public_key, c.message, c.signature});
    const BatchVerifyResult result = ed25519_batch_verify(mixed);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      EXPECT_EQ(result.valid[i], i == position ? expected : true) << c.name << " item " << i;
    }
  }
  // Both verdicts occur: the honest signature and the identity-key forgery
  // accept, and the malformed encodings reject.
  EXPECT_GT(accepted, 1);
  EXPECT_LT(accepted, static_cast<int>(cases.size()));
}

TEST(Ed25519Differential, SignaturesMatchReference) {
  testkit::SeedBanner banner("ed25519_sign", 1207, gtest_failed);
  Rng rng(banner.seed());
  for (int trial = 0; trial < 16; ++trial) {
    const Bytes seed = rng.bytes(32);
    const Bytes message = rng.bytes(rng.next_below(200));
    EXPECT_EQ(KeyPair::from_seed(seed).public_key, ref::public_key(seed));
    EXPECT_EQ(ed25519_sign(seed, message), ref::sign(seed, message));
    EXPECT_EQ(ed25519_sign(ed25519_expand(seed), message), ref::sign(seed, message));
  }
}

// ---------------------------------------------------------------------------
// Decoded-key cache.
// ---------------------------------------------------------------------------

TEST(Ed25519KeyCache, EvictsLeastRecentlyUsedAtCapacity) {
  Rng rng(1300);
  eng::KeyCache cache(3);
  std::vector<Point32> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(random_point(rng));
  for (int i = 0; i < 3; ++i) ASSERT_NE(cache.get(keys[i].data()), nullptr);
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_NE(cache.get(keys[0].data()), nullptr);  // keys[1] is now the oldest
  const auto held = cache.get(keys[1].data());
  ASSERT_NE(cache.get(keys[2].data()), nullptr);
  ASSERT_NE(cache.get(keys[0].data()), nullptr);  // order: 1, 2, 0
  ASSERT_NE(cache.get(keys[3].data()), nullptr);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains(keys[1].data()));
  EXPECT_TRUE(cache.contains(keys[0].data()));
  EXPECT_TRUE(cache.contains(keys[2].data()));
  EXPECT_TRUE(cache.contains(keys[3].data()));
  // An evicted entry stays usable by whoever still holds it.
  EXPECT_EQ(held->encoding, keys[1]);
  EXPECT_EQ(held->neg_odd_multiples.size(), std::size_t{1} << (eng::kKeyNafWidth - 2));
}

TEST(Ed25519KeyCache, UndecodableKeysAreNeverCached) {
  eng::KeyCache cache(4);
  Point32 bad;
  bad.fill(0xff);  // y >= p
  EXPECT_EQ(cache.get(bad.data()), nullptr);
  EXPECT_EQ(cache.get(bad.data()), nullptr);
  Point32 neg_zero{};
  neg_zero[0] = 1;
  neg_zero[31] = 0x80;
  EXPECT_EQ(cache.get(neg_zero.data()), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(bad.data()));
}

TEST(Ed25519KeyCache, CachedAndFreshKeysGiveIdenticalVerdicts) {
  testkit::SeedBanner banner("ed25519_key_cache", 1301, gtest_failed);
  Rng rng(banner.seed());
  const std::vector<VerdictCase> cases = edge_cases(rng);
  eng::KeyCache warm(256);
  for (const VerdictCase& c : cases) {
    const std::vector<BatchVerifyItem> item = {{c.public_key, c.message, c.signature}};
    const bool first = eng::verify_batch(item, warm).all_valid;   // decodes and inserts
    const bool cached = eng::verify_batch(item, warm).all_valid;  // served from the cache
    eng::KeyCache fresh(1);
    EXPECT_EQ(first, cached) << c.name;
    EXPECT_EQ(eng::verify_batch(item, fresh).all_valid, cached) << c.name;
  }
}

TEST(Ed25519KeyCache, ConcurrentVerifiersShareOneCache) {
  // Runs under the tsan label: several threads verify through one small
  // cache, so hits, misses and evictions race.
  Rng rng(1302);
  std::vector<KeyPair> signers;
  std::vector<Bytes> messages, signatures;
  for (int i = 0; i < 6; ++i) {
    signers.push_back(KeyPair::generate(rng));
    messages.push_back(rng.bytes(32));
    signatures.push_back(ed25519_sign(signers.back().signing_key, messages.back()));
  }
  eng::KeyCache cache(3);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 24; ++i) {
        const std::size_t k = static_cast<std::size_t>(t + i) % signers.size();
        Bytes message = messages[k];
        const bool tamper = (i % 5) == 0;
        if (tamper) message[0] ^= 1;
        const std::vector<BatchVerifyItem> item = {{signers[k].public_key, message, signatures[k]}};
        if (eng::verify_batch(item, cache).all_valid == tamper) ++wrong;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(cache.size(), 3u);
}

}  // namespace
}  // namespace securestore::crypto
