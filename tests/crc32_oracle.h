// Reference CRC-32 for differential tests.
//
// The bytewise table loop the production slicing-by-16 kernel replaced,
// kept only as a test oracle: one 256-entry table, one lookup per byte.
// Slow, but every step is obviously the textbook reflected CRC, so its
// outputs are the checksums the optimized kernel must reproduce bit for bit.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace securestore::crc32_oracle {

inline const std::array<std::uint32_t, 256>& table() {
  static const std::array<std::uint32_t, 256> t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      out[i] = c;
    }
    return out;
  }();
  return t;
}

inline std::uint32_t crc32(BytesView data, std::uint32_t seed = 0) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) crc = table()[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace securestore::crc32_oracle
