#include "crypto/fe25519.h"

#include <cstring>

namespace securestore::crypto::fe25519 {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

}  // namespace

void carry(Fe& h) {
  for (int round = 0; round < 2; ++round) {
    u64 c = 0;
    for (int i = 0; i < 5; ++i) {
      h.v[i] += c;
      c = h.v[i] >> 51;
      h.v[i] &= kMask51;
    }
    h.v[0] += c * 19;
  }
}

Fe from_bytes(const std::uint8_t s[32]) {
  auto load64 = [&](int offset) {
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(s[offset + i]) << (8 * i);
    return v;
  };
  Fe h;
  h.v[0] = load64(0) & kMask51;
  h.v[1] = (load64(6) >> 3) & kMask51;
  h.v[2] = (load64(12) >> 6) & kMask51;
  h.v[3] = (load64(19) >> 1) & kMask51;
  h.v[4] = (load64(24) >> 12) & kMask51;
  return h;
}

void to_bytes(std::uint8_t s[32], const Fe& f) {
  Fe h = f;
  carry(h);
  u64 q = (h.v[0] + 19) >> 51;
  q = (h.v[1] + q) >> 51;
  q = (h.v[2] + q) >> 51;
  q = (h.v[3] + q) >> 51;
  q = (h.v[4] + q) >> 51;
  h.v[0] += 19 * q;
  u64 c = 0;
  for (int i = 0; i < 5; ++i) {
    h.v[i] += c;
    c = h.v[i] >> 51;
    h.v[i] &= kMask51;
  }
  std::memset(s, 0, 32);
  u64 packed[4];
  packed[0] = h.v[0] | (h.v[1] << 51);
  packed[1] = (h.v[1] >> 13) | (h.v[2] << 38);
  packed[2] = (h.v[2] >> 26) | (h.v[3] << 25);
  packed[3] = (h.v[3] >> 39) | (h.v[4] << 12);
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 8; ++i) s[8 * w + i] = static_cast<std::uint8_t>(packed[w] >> (8 * i));
  }
}

Fe sqn(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = sq(a);
  return a;
}

Fe mul_small(const Fe& a, std::uint64_t small) {
  Fe h;
  u128 c = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 t = static_cast<u128>(a.v[i]) * small + c;
    h.v[i] = static_cast<u64>(t) & kMask51;
    c = t >> 51;
  }
  h.v[0] += static_cast<u64>(c) * 19;
  carry(h);
  return h;
}

bool is_zero(const Fe& a) {
  std::uint8_t s[32];
  to_bytes(s, a);
  std::uint8_t acc = 0;
  for (std::uint8_t byte : s) acc |= byte;
  return acc == 0;
}

bool equal(const Fe& a, const Fe& b) { return is_zero(sub(a, b)); }

bool is_negative(const Fe& a) {
  std::uint8_t s[32];
  to_bytes(s, a);
  return (s[0] & 1) != 0;
}

Fe invert(const Fe& a) {
  const Fe z2 = sq(a);
  const Fe z8 = sqn(z2, 2);
  const Fe z9 = mul(z8, a);
  const Fe z11 = mul(z9, z2);
  const Fe z22 = sq(z11);
  const Fe z_5_0 = mul(z22, z9);
  const Fe z_10_5 = sqn(z_5_0, 5);
  const Fe z_10_0 = mul(z_10_5, z_5_0);
  const Fe z_20_10 = sqn(z_10_0, 10);
  const Fe z_20_0 = mul(z_20_10, z_10_0);
  const Fe z_40_20 = sqn(z_20_0, 20);
  const Fe z_40_0 = mul(z_40_20, z_20_0);
  const Fe z_50_10 = sqn(z_40_0, 10);
  const Fe z_50_0 = mul(z_50_10, z_10_0);
  const Fe z_100_50 = sqn(z_50_0, 50);
  const Fe z_100_0 = mul(z_100_50, z_50_0);
  const Fe z_200_100 = sqn(z_100_0, 100);
  const Fe z_200_0 = mul(z_200_100, z_100_0);
  const Fe z_250_50 = sqn(z_200_0, 50);
  const Fe z_250_0 = mul(z_250_50, z_50_0);
  const Fe z_255_5 = sqn(z_250_0, 5);
  return mul(z_255_5, z11);
}

Fe pow22523(const Fe& a) {
  const Fe z2 = sq(a);
  const Fe z8 = sqn(z2, 2);
  const Fe z9 = mul(z8, a);
  const Fe z11 = mul(z9, z2);
  const Fe z22 = sq(z11);
  const Fe z_5_0 = mul(z22, z9);
  const Fe z_10_5 = sqn(z_5_0, 5);
  const Fe z_10_0 = mul(z_10_5, z_5_0);
  const Fe z_20_10 = sqn(z_10_0, 10);
  const Fe z_20_0 = mul(z_20_10, z_10_0);
  const Fe z_40_20 = sqn(z_20_0, 20);
  const Fe z_40_0 = mul(z_40_20, z_20_0);
  const Fe z_50_10 = sqn(z_40_0, 10);
  const Fe z_50_0 = mul(z_50_10, z_10_0);
  const Fe z_100_50 = sqn(z_50_0, 50);
  const Fe z_100_0 = mul(z_100_50, z_50_0);
  const Fe z_200_100 = sqn(z_100_0, 100);
  const Fe z_200_0 = mul(z_200_100, z_100_0);
  const Fe z_250_50 = sqn(z_200_0, 50);
  const Fe z_250_0 = mul(z_250_50, z_50_0);
  const Fe z_252_2 = sqn(z_250_0, 2);
  return mul(z_252_2, a);
}

}  // namespace securestore::crypto::fe25519
