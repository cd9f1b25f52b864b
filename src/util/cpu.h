// The CPU features the store's integrity kernels select on.
//
// SHA-256 (d(v), crypto/sha2.cpp) and CRC-32 (WAL/SST frames,
// util/crc32.cpp) each have a portable kernel and an x86-64 hardware kernel.
// The hardware kernel is chosen once, at first use, from what this CPU
// reports; there is no option to force either (DESIGN.md §10, §12).
#pragma once

namespace securestore {

struct CpuFeatures {
  /// SHA extensions (SHA256RNDS2/MSG1/MSG2) with the SSSE3 and SSE4.1
  /// shuffles the SHA-256 kernel also needs.
  bool sha_ni = false;
  /// PCLMULQDQ with the SSE4.1 extract the CRC-32 fold also needs.
  bool pclmul = false;
};

/// Read from CPUID on first call and cached in a function-local static, so
/// a hash taken during static initialization still sees the real CPU. All
/// false on anything but x86-64.
const CpuFeatures& cpu_features();

}  // namespace securestore
