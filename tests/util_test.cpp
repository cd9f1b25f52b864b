// Unit tests for the util substrate: bytes/hex, RNG determinism,
// serialization roundtrips and malformed-input rejection, ids, results.
#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_set>

#include "crc32_oracle.h"
#include "testkit/seed.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/crc32_internal.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/time.h"

namespace securestore {
namespace {

TEST(Bytes, HexRoundtrip) {
  const Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), data);
  EXPECT_EQ(from_hex("0001DEADBEEFFF"), data);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Crc32, KnownAnswers) {
  // IEEE 802.3 reflected polynomial — the zlib/PNG checksum.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, SeedChainingMatchesConcatenation) {
  const Bytes a = to_bytes("write-ahead ");
  const Bytes b = to_bytes("log frame");
  Bytes joined = a;
  joined.insert(joined.end(), b.begin(), b.end());
  EXPECT_EQ(crc32(b, crc32(a)), crc32(joined));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes frame = to_bytes("frame body with a payload");
  const std::uint32_t good = crc32(frame);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] ^= 0x01;
    EXPECT_NE(crc32(frame), good) << "flip at byte " << i;
    frame[i] ^= 0x01;
  }
}

// Differential: every CRC-32 kernel against the bytewise oracle — the
// portable slicing-by-16 kernel always, the PCLMULQDQ kernel whenever this
// CPU has it, and `crc32` (whichever of them was selected). A kernel's main
// loop, its tail loop and the hand-off between them are exactly where a
// table index, a fold constant or a load could go wrong, so lengths 0..1024
// at start offsets 0..15 cross every hand-off: 63/64/65 (the fold's entry),
// every non-multiple of 16 (the slicing tail), many 64-byte folds. Each
// call's seed is the previous call's CRC, so seeds are chained and varied.

bool gtest_failed() { return ::testing::Test::HasFailure(); }

using crc32_internal::Crc32Fn;

constexpr const char* kNoPclmul = "this CPU has no PCLMULQDQ; only the portable kernel is tested";

void expect_every_length_at_every_offset(Crc32Fn kernel, std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  const Bytes buffer = rng.bytes(16 + 1024);
  auto seed = static_cast<std::uint32_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const BytesView view(buffer.data() + offset, len);
      const std::uint32_t expected = crc32_oracle::crc32(view, seed);
      ASSERT_EQ(kernel(view, seed), expected)
          << "offset " << offset << " len " << len << " seed " << seed;
      seed = expected;
    }
  }
}

void expect_random_lengths_and_seeds(Crc32Fn kernel, std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  const Bytes buffer = rng.bytes(64 * 1024 + 16);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t offset = rng.next_below(16);
    const std::size_t len = rng.next_below(64 * 1024 + 1);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const BytesView view(buffer.data() + offset, len);
    ASSERT_EQ(kernel(view, seed), crc32_oracle::crc32(view, seed))
        << "trial " << trial << " offset " << offset << " len " << len << " seed " << seed;
  }
}

TEST(Crc32Differential, EveryShortLengthAtEveryOffset) {
  testkit::SeedBanner banner("crc32_short", 1301, gtest_failed);
  std::printf("[kernel] crc32 uses %s\n", crc32_internal::crc32_kernel_name());
  expect_every_length_at_every_offset(crc32, banner.seed());
  expect_every_length_at_every_offset(crc32_internal::crc32_portable, banner.seed());
}

TEST(Crc32Differential, HardwareEveryLengthAtEveryOffset) {
  const Crc32Fn hardware = crc32_internal::crc32_hardware();
  if (hardware == nullptr) GTEST_SKIP() << kNoPclmul;
  testkit::SeedBanner banner("crc32_short_hw", 1304, gtest_failed);
  expect_every_length_at_every_offset(hardware, banner.seed());
}

TEST(Crc32Differential, RandomLengthsAndSeeds) {
  testkit::SeedBanner banner("crc32_random", 1302, gtest_failed);
  expect_random_lengths_and_seeds(crc32, banner.seed());
  expect_random_lengths_and_seeds(crc32_internal::crc32_portable, banner.seed());
}

TEST(Crc32Differential, HardwareRandomLengthsAndSeeds) {
  const Crc32Fn hardware = crc32_internal::crc32_hardware();
  if (hardware == nullptr) GTEST_SKIP() << kNoPclmul;
  testkit::SeedBanner banner("crc32_random_hw", 1305, gtest_failed);
  expect_random_lengths_and_seeds(hardware, banner.seed());
}

TEST(Crc32Differential, ChainingMatchesConcatenationAtEverySplit) {
  testkit::SeedBanner banner("crc32_chain", 1303, gtest_failed);
  Rng rng(banner.seed());
  for (int trial = 0; trial < 8; ++trial) {
    const Bytes data = rng.bytes(1 + rng.next_below(200));
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t whole = crc32(data, seed);
    ASSERT_EQ(whole, crc32_oracle::crc32(data, seed)) << "trial " << trial;
    for (std::size_t split = 0; split <= data.size(); ++split) {
      const BytesView a(data.data(), split);
      const BytesView b(data.data() + split, data.size() - split);
      ASSERT_EQ(crc32(b, crc32(a, seed)), whole) << "trial " << trial << " split " << split;
    }
  }
}

TEST(Bytes, TextRoundtrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(Bytes, Concat) {
  const Bytes a = {1, 2};
  const Bytes b = {};
  const Bytes c = {3};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
  EXPECT_EQ(concat({}), Bytes{});
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(constant_time_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(constant_time_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(constant_time_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(constant_time_equal(Bytes{}, Bytes{}));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_in_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(12);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_exponential(10.0);
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 10.0, 0.5);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, FillCoversAllLengths) {
  Rng rng(14);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 33u}) {
    const Bytes b = rng.bytes(n);
    EXPECT_EQ(b.size(), n);
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng a(15);
  Rng fork1 = a.fork();
  // Draw from parent; the fork must be unaffected compared to a replay.
  Rng b(15);
  Rng fork2 = b.fork();
  (void)a.next_u64();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
}

TEST(Serial, PrimitiveRoundtrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.str("context");
  w.bytes(Bytes{9, 8, 7});

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.str(), "context");
  EXPECT_EQ(r.bytes(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Serial, TruncatedInputThrows) {
  Writer w;
  w.u64(7);
  const Bytes& full = w.data();
  Reader r(BytesView(full.data(), 4));
  EXPECT_THROW(r.u64(), DecodeError);
}

TEST(Serial, TruncatedLengthPrefixedThrows) {
  Writer w;
  w.bytes(Bytes(100, 1));
  Bytes truncated = w.take();
  truncated.resize(50);
  Reader r(truncated);
  EXPECT_THROW(r.bytes(), DecodeError);
}

TEST(Serial, TrailingGarbageDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(Serial, CanonicalEncoding) {
  // Two writers producing the same logical content yield identical bytes —
  // the property signatures rely on.
  Writer w1, w2;
  w1.u32(5);
  w1.str("x");
  w2.u32(5);
  w2.str("x");
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(Ids, DistinctTypesHashAndCompare) {
  std::unordered_set<ItemId> items{ItemId{1}, ItemId{2}, ItemId{1}};
  EXPECT_EQ(items.size(), 2u);
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_EQ(to_string(ClientId{3}), "C3");
  EXPECT_EQ(to_string(ItemId{4}), "x4");
  EXPECT_EQ(to_string(NodeId{5}), "S5");
  EXPECT_EQ(to_string(GroupId{6}), "G6");
}

TEST(Result, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(0), 42);

  Result<int> bad(Error::kStale, "older than context");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Error::kStale);
  EXPECT_EQ(bad.detail(), "older than context");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, VoidResult) {
  VoidResult ok;
  EXPECT_TRUE(ok.ok());
  VoidResult fail(Error::kTimeout);
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.error(), Error::kTimeout);
}

TEST(Result, ErrorNames) {
  EXPECT_STREQ(error_name(Error::kNone), "ok");
  EXPECT_STREQ(error_name(Error::kBadSignature), "bad-signature");
  EXPECT_STREQ(error_name(Error::kNoAgreement), "no-agreement");
}

TEST(Time, Conversions) {
  EXPECT_EQ(milliseconds(5), 5000u);
  EXPECT_EQ(seconds(2), 2000000u);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(2500)), 2.5);
}

}  // namespace
}  // namespace securestore
