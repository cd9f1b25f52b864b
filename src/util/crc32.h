// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the zlib/PNG
// checksum, byte-identical to `zlib.crc32`.
//
// Frame checksums for the write-ahead log and for SST frames, indexes and
// footers. This is not a cryptographic digest: durable frames are guarded
// against *accidental* damage (torn writes, bit rot) by CRC, while
// tampering with durable state is caught by the snapshot SHA-256 and by
// the per-record signatures the server re-verifies when records are used.
//
// Kernel: portable slicing-by-16 (sixteen 256-entry tables, built at compile
// time), folding 16 bytes per step; a bytewise loop finishes the tail. There
// is one implementation — no hardware or CPU-dispatched variant — and the
// bytewise reference lives in the tests as its oracle.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace securestore {

/// CRC-32 of `data`. `seed` chains incremental computation the zlib way:
/// crc32(b, crc32(a)) == crc32(a·b). The empty input with seed 0 is 0.
std::uint32_t crc32(BytesView data, std::uint32_t seed = 0);

}  // namespace securestore
