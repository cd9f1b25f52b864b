#include "util/crc32.h"

#include <array>
#include <cstddef>

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

}  // namespace

std::uint32_t crc32(BytesView data, std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
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
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace securestore
