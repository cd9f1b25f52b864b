// SHA-256 and SHA-512 (FIPS 180-4), implemented from scratch.
//
// SHA-256 is the "agreed-upon digest algorithm" d(v) of the paper: value
// digests inside multi-writer timestamps, signed digests of contexts and
// write records. SHA-512 exists because Ed25519 (RFC 8032) requires it.
// Both are validated against NIST/RFC test vectors in tests/crypto_test.cpp.
//
// SHA-256 compresses through one of two kernels (crypto/sha2_internal.h),
// chosen once at first use from the CPU: SHA-NI on x86-64 CPUs that have
// it, the portable rounds everywhere else. There is no option to force
// either; digests are byte-identical.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace securestore::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();
  void update(BytesView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  std::array<std::uint8_t, kDigestSize> finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

class Sha512 {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;

  Sha512();
  void update(BytesView data);
  std::array<std::uint8_t, kDigestSize> finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint64_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
  // 128-bit message length counter, as required by FIPS 180-4 for SHA-512.
  std::uint64_t total_low_ = 0;
  std::uint64_t total_high_ = 0;
};

/// One-shot SHA-256.
Bytes sha256(BytesView data);

/// One-shot SHA-512.
Bytes sha512(BytesView data);

}  // namespace securestore::crypto
