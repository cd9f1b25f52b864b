// Ed25519 signatures (RFC 8032), implemented from scratch.
//
// These are the paper's client signatures {data}_{K_i^{-1}}: every write
// record, context and dissemination message carries one, which is the
// mechanism that reduces quorum sizes to b+1 (a malicious server cannot
// forge, only omit or replay old-but-valid records).
//
// Implementation notes
//  * field arithmetic mod p = 2^255 - 19 with five 51-bit limbs and lazy
//    reduction under documented limb bounds (fe25519.h),
//  * group operations in the ref10 projective, extended, completed and
//    cached forms (ed25519_internal.h),
//  * a signing key is expanded once (Ed25519SigningKey), so a signature
//    costs one fixed-base multiplication [r]B through a precomputed
//    radix-16 table of B,
//  * every verification, single or batched, is one Straus w-NAF
//    multi-scalar multiplication (ed25519_batch.h); ed25519_verify is a
//    batch of one, and decoded public keys with their odd multiples come
//    from a bounded process-wide cache,
//  * scalars mod the group order L by Barrett reduction,
//  * validated against the RFC 8032 test vectors, and differentially
//    against the original double-and-add and shift-subtract arithmetic,
//    in tests/crypto_test.cpp.
//
// This implementation does not attempt to be constant-time: the repository
// reproduces a protocol evaluation, not a hardened TLS stack, and timing
// side channels are outside the paper's threat model (§4 assumes secure
// channels and sound cryptography).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace securestore::crypto {

constexpr std::size_t kEd25519SeedSize = 32;
constexpr std::size_t kEd25519PublicKeySize = 32;
constexpr std::size_t kEd25519SignatureSize = 64;

/// An expanded signing key (RFC 8032 §5.1.5): SHA-512(seed) split into the
/// clamped secret scalar and the nonce prefix, plus the public key [scalar]B.
struct Ed25519SigningKey {
  std::array<std::uint8_t, 32> scalar{};
  std::array<std::uint8_t, 32> prefix{};
  std::array<std::uint8_t, kEd25519PublicKeySize> public_key{};
};

/// Expands a 32-byte secret seed; throws std::invalid_argument otherwise.
Ed25519SigningKey ed25519_expand(BytesView seed);

/// Derives the 32-byte public key from a 32-byte secret seed.
Bytes ed25519_public_key(BytesView seed);

/// Signs `message`; returns 64 bytes (R||S).
Bytes ed25519_sign(const Ed25519SigningKey& key, BytesView message);

/// ed25519_sign(ed25519_expand(seed), message).
Bytes ed25519_sign(BytesView seed, BytesView message);

/// Verifies `signature` over `message` under `public_key`.
/// Returns false for malformed points/scalars as well as wrong signatures.
bool ed25519_verify(BytesView public_key, BytesView message, BytesView signature);

}  // namespace securestore::crypto
