#include "crypto/ed25519.h"

#include <cstring>
#include <stdexcept>

#include "crypto/ed25519_internal.h"
#include "crypto/sha2.h"

namespace securestore::crypto {

using namespace ed25519_internal;

Ed25519SigningKey ed25519_expand(BytesView seed) {
  if (seed.size() != kEd25519SeedSize) {
    throw std::invalid_argument("ed25519: seed must be 32 bytes");
  }
  const Bytes h = sha512(seed);
  Ed25519SigningKey key;
  std::memcpy(key.scalar.data(), h.data(), 32);
  std::memcpy(key.prefix.data(), h.data() + 32, 32);
  key.scalar[0] &= 248;
  key.scalar[31] &= 127;
  key.scalar[31] |= 64;
  ge_compress(key.public_key.data(), ge_p3_to_p2(ge_scalarmult_base(key.scalar.data())));
  return key;
}

Bytes ed25519_public_key(BytesView seed) {
  const Ed25519SigningKey key = ed25519_expand(seed);
  return Bytes(key.public_key.begin(), key.public_key.end());
}

Bytes ed25519_sign(const Ed25519SigningKey& key, BytesView message) {
  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.update(BytesView(key.prefix.data(), 32));
  hr.update(message);
  const auto r_hash = hr.finish();
  std::uint8_t r_scalar[32];
  sc_reduce64(r_scalar, r_hash.data());

  // R = r*B
  Bytes signature(kEd25519SignatureSize);
  ge_compress(signature.data(), ge_p3_to_p2(ge_scalarmult_base(r_scalar)));

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.update(BytesView(signature.data(), 32));
  hk.update(BytesView(key.public_key.data(), 32));
  hk.update(message);
  const auto k_hash = hk.finish();
  std::uint8_t k_scalar[32];
  sc_reduce64(k_scalar, k_hash.data());

  // S = (r + k*a) mod L
  sc_muladd(signature.data() + 32, k_scalar, key.scalar.data(), r_scalar);
  return signature;
}

Bytes ed25519_sign(BytesView seed, BytesView message) {
  return ed25519_sign(ed25519_expand(seed), message);
}

}  // namespace securestore::crypto
