// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the zlib/PNG
// checksum, byte-identical to `zlib.crc32`.
//
// Frame checksums for the write-ahead log and for SST frames, indexes and
// footers. This is not a cryptographic digest: durable frames are guarded
// against *accidental* damage (torn writes, bit rot) by CRC, while
// tampering with durable state is caught by the snapshot SHA-256 and by
// the per-record signatures the server re-verifies when records are used.
//
// Kernels (util/crc32_internal.h), one chosen at first use from the CPU:
// on x86-64 with PCLMULQDQ, carry-less-multiply folding over the 16-byte
// multiple of any input of 64 bytes or more; everywhere else, and for every
// tail, portable slicing-by-16 (sixteen 256-entry tables built at compile
// time). There is no option to force either. Both are byte-identical to the
// bytewise reference the tests keep as their oracle.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace securestore {

/// CRC-32 of `data`. `seed` chains incremental computation the zlib way:
/// crc32(b, crc32(a)) == crc32(a·b). The empty input with seed 0 is 0.
std::uint32_t crc32(BytesView data, std::uint32_t seed = 0);

}  // namespace securestore
