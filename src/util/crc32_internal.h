// The CRC-32 kernels behind `crc32` (util/crc32.h), exposed for the
// differential tests and the E10 microbenchmark. Production code calls
// `crc32`, which picks one of these once, from the CPU.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace securestore::crc32_internal {

/// Same contract as `crc32(data, seed)`.
using Crc32Fn = std::uint32_t (*)(BytesView data, std::uint32_t seed);

/// Slicing-by-16: the fallback on every CPU and the hardware kernel's
/// reference.
std::uint32_t crc32_portable(BytesView data, std::uint32_t seed);

/// PCLMULQDQ folding over the 16-byte-aligned prefix of inputs of 64 bytes
/// or more, slicing-by-16 for the rest. Null when this CPU (or a non-x86-64
/// build) lacks the instructions.
Crc32Fn crc32_hardware();

/// The kernel `crc32` uses: "pclmul" or "portable".
const char* crc32_kernel_name();

}  // namespace securestore::crc32_internal
