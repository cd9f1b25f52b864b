#include "crypto/ed25519_batch.h"

#include <array>
#include <cstring>

#include "crypto/ed25519.h"
#include "crypto/ed25519_internal.h"
#include "crypto/keys.h"
#include "crypto/sha2.h"

namespace securestore::crypto {

namespace {

using namespace ed25519_internal;

/// w-NAF width for the -R_i terms of a batch: their 128-bit coefficients
/// take about 21 additions on top of a 7-addition table.
constexpr int kBatchRNafWidth = 5;

/// One structurally-sound signature admitted to the verification equation.
struct Prepared {
  std::size_t index = 0;  // position in the caller's item vector
  std::shared_ptr<const DecodedKey> key;
  GeP3 r_neg{};                           // -R_i
  const std::uint8_t* s_bytes = nullptr;  // S_i, canonical
  std::uint8_t k[32] = {};                // SHA512(R || A || M) mod L
  std::uint8_t z[32] = {};                // batch coefficient (1 when checked alone)
};

/// Derives the batch's deterministic coefficient stream: SHA512 over a
/// domain tag and every (A, M, R||S) triple seeds the stream; coefficient i
/// is SHA512(seed || i) truncated to 128 bits. Deterministic so batch
/// verification replays identically (simulator/chaos), Fiat-Shamir so an
/// adversary cannot pick signatures whose defects cancel against
/// coefficients that depend on those signatures.
std::array<std::uint8_t, 64> batch_coefficient_seed(std::span<const BatchVerifyItem> items) {
  Sha512 h;
  static constexpr char kTag[] = "securestore.ed25519.batch.v1";
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(kTag), sizeof kTag - 1));
  for (const BatchVerifyItem& item : items) {
    // Length-prefix the variable-size message so item boundaries are
    // unambiguous in the transcript.
    const std::uint64_t len = item.message.size();
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) len_bytes[i] = static_cast<std::uint8_t>(len >> (8 * i));
    h.update(item.public_key);
    h.update(BytesView(len_bytes, 8));
    h.update(item.message);
    h.update(item.signature);
  }
  return h.finish();
}

/// z_i: 128-bit, little-endian in a 32-byte scalar, forced odd so no
/// coefficient annihilates a small-torsion point mod the cofactor.
void derive_coefficient(std::uint8_t out[32], BytesView seed, std::uint64_t index) {
  Sha512 h;
  h.update(seed);
  std::uint8_t index_bytes[8];
  for (int i = 0; i < 8; ++i) index_bytes[i] = static_cast<std::uint8_t>(index >> (8 * i));
  h.update(BytesView(index_bytes, 8));
  const auto digest = h.finish();
  std::memset(out, 0, 32);
  std::memcpy(out, digest.data(), 16);
  out[0] |= 1;
}

/// Structural checks (sizes, canonical S, decodable A and R) and the
/// challenge k = SHA512(R || A || M) mod L. A structural failure is
/// definitively invalid and never enters an equation.
bool prepare(Prepared& out, const BatchVerifyItem& item, KeyCache& keys) {
  if (item.public_key.size() != kEd25519PublicKeySize) return false;
  if (item.signature.size() != kEd25519SignatureSize) return false;
  const std::uint8_t* r_bytes = item.signature.data();
  out.s_bytes = item.signature.data() + 32;
  if (!sc_is_canonical(out.s_bytes)) return false;
  out.key = keys.get(item.public_key.data());
  if (out.key == nullptr) return false;
  GeP3 r_point;
  if (!ge_decompress(r_point, r_bytes)) return false;
  out.r_neg = ge_p3_neg(r_point);

  Sha512 hk;
  hk.update(BytesView(r_bytes, 32));
  hk.update(item.public_key);
  hk.update(item.message);
  sc_reduce64(out.k, hk.finish().data());
  std::memset(out.z, 0, 32);
  out.z[0] = 1;
  return true;
}

/// Checks, with one multi-scalar multiplication,
///   [sum z_i S_i] B + sum [z_i k_i] (-A_i) + sum [z_i] (-R_i) == O.
/// With one item and z = 1 this is exactly [S]B == R + [k]A.
bool equation_holds(std::span<const Prepared> items) {
  std::uint8_t b_scalar[32] = {0};
  std::vector<MsmTerm> terms(3 * items.size());
  std::vector<std::vector<GeCached>> r_tables;
  r_tables.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Prepared& item = items[i];
    std::uint8_t zs[32];
    sc_mul(zs, item.z, item.s_bytes);
    sc_add(b_scalar, b_scalar, zs);

    // z_i k_i mod 8L (not mod L) keeps [z_i k_i](-A_i) exact for a key
    // with a torsion component, so a lone defect z_i D_i never vanishes.
    std::uint8_t zk[32], zk_lo[32], zk_hi[32];
    sc_mul_mod_8l(zk, item.z, item.k);
    sc_split128(zk, zk_lo, zk_hi);
    MsmTerm& a_lo = terms[3 * i];
    a_lo.digits = ge_wnaf(a_lo.naf, zk_lo, kKeyNafWidth);
    a_lo.odd_multiples = item.key->neg_odd_multiples.data();
    MsmTerm& a_hi = terms[3 * i + 1];
    a_hi.digits = ge_wnaf(a_hi.naf, zk_hi, kKeyNafWidth);
    a_hi.odd_multiples = item.key->neg_odd_multiples_hi.data();

    // A unit coefficient needs only -R itself (the smallest table).
    const bool unit = items.size() == 1;
    const int r_width = unit ? 2 : kBatchRNafWidth;
    r_tables.push_back(ge_odd_multiples(item.r_neg, r_width));
    MsmTerm& r_term = terms[3 * i + 2];
    r_term.digits = ge_wnaf(r_term.naf, item.z, r_width);
    r_term.odd_multiples = r_tables.back().data();
  }
  return ge_is_identity(ge_msm(b_scalar, terms));
}

}  // namespace

namespace ed25519_internal {

BatchVerifyResult verify_batch(std::span<const BatchVerifyItem> items, KeyCache& keys) {
  BatchVerifyResult result;
  result.valid.assign(items.size(), false);
  if (items.empty()) {
    result.all_valid = true;
    return result;
  }

  std::vector<Prepared> prepared;
  prepared.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    Prepared item;
    item.index = i;
    if (prepare(item, items[i], keys)) prepared.push_back(std::move(item));
  }

  // A lone equation keeps z = 1, so it is the single-signature check
  // itself; two or more terms draw Fiat-Shamir coefficients.
  if (prepared.size() > 1) {
    const auto seed = batch_coefficient_seed(items);
    for (Prepared& item : prepared) {
      derive_coefficient(item.z, BytesView(seed.data(), seed.size()), item.index);
    }
  }

  if (!prepared.empty()) {
    if (equation_holds(prepared)) {
      for (const Prepared& item : prepared) result.valid[item.index] = true;
    } else {
      // One bad signature poisons the whole sum; isolate it by checking
      // each item alone (z = 1) so honest requests in the same batch still
      // pass. A lone item's failed equation already is its verdict.
      result.used_fallback = true;
      if (prepared.size() > 1) {
        for (Prepared& item : prepared) {
          std::memset(item.z, 0, 32);
          item.z[0] = 1;
          result.valid[item.index] = equation_holds(std::span<const Prepared>(&item, 1));
        }
      }
    }
  }

  result.all_valid = true;
  for (const bool ok : result.valid) result.all_valid = result.all_valid && ok;
  return result;
}

}  // namespace ed25519_internal

BatchVerifyResult ed25519_batch_verify(const std::vector<BatchVerifyItem>& items) {
  // Every item counts as one verification in the paper's cost model
  // regardless of how the batch amortizes the point arithmetic.
  CryptoMeter::instance().verifies += items.size();
  return ed25519_internal::verify_batch(items, KeyCache::global());
}

bool ed25519_verify(BytesView public_key, BytesView message, BytesView signature) {
  const BatchVerifyItem item{public_key, message, signature};
  return ed25519_internal::verify_batch(std::span<const BatchVerifyItem>(&item, 1),
                                        KeyCache::global())
      .all_valid;
}

}  // namespace securestore::crypto
