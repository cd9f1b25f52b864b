// The SHA-256 compression kernels behind `Sha256` (crypto/sha2.h), exposed
// for the differential tests and the E10 microbenchmark. Production code
// hashes through `Sha256`/`sha256`, which pick one of these once, from the
// CPU.
#pragma once

#include <cstddef>
#include <cstdint>

namespace securestore::crypto::sha2_internal {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`
/// (the eight working words a..h, FIPS 180-4 §6.2.2).
using Sha256BlocksFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                                std::size_t blocks);

/// The FIPS 180-4 rounds in plain C++: the fallback on every CPU and the
/// hardware kernel's reference.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t blocks);

/// The SHA-NI kernel. Null when this CPU (or a non-x86-64 build) lacks the
/// SHA extensions.
Sha256BlocksFn sha256_blocks_hardware();

/// The kernel `Sha256` uses: "sha-ni" or "portable".
const char* sha256_kernel_name();

}  // namespace securestore::crypto::sha2_internal
