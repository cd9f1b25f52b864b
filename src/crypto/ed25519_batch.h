// Ed25519 verification, single and batched, through one multi-scalar
// multiplication (MSM) engine.
//
// Every check is the rearranged equation
//
//   [sum z_i * S_i] B  +  sum [z_i * k_i] (-A_i)  +  sum [z_i] (-R_i)  ==  O
//
// evaluated by one Straus interleaved w-NAF MSM (ed25519_internal.h): one
// shared chain of doublings, with B read from precomputed tables and each
// -A_i from a bounded cache of decoded keys. Every 253-bit scalar is split
// into 128-bit halves against tables of P and [2^128]P, so the chain is
// about 128 doublings long. ed25519_verify is a batch of one with z = 1, so
// the equation is then exactly the RFC 8032 cofactorless check
// [S]B == R + [k]A. A batch pays the doublings once and, per signature,
// roughly one 128-bit R term and two 128-bit A terms of additions, plus
// decoding R.
//
// Failure isolation: if the combined equation fails — one bad signature
// poisons the sum — every item is re-checked alone (z = 1), so a Byzantine
// writer slipping a bad signature into a batch costs the server one wasted
// pass but never rejects (or accepts) an honest request. A batch that
// passes accepts every item.
//
// Coefficients are derived deterministically (Fiat-Shamir style) by hashing
// the whole batch, so verification is reproducible across runs and nodes —
// the deterministic simulator and the chaos replay assertion depend on
// that. They are 128-bit and forced odd, and z_i * k_i is reduced mod 8L
// (the curve's full group order) rather than mod L, so [z_i k_i](-A_i) is
// exact even for a key with a small-torsion component: a batch in which
// exactly one item is invalid always fails and falls back. See DESIGN.md
// §10 for the residual batch-vs-single divergence rule.
#pragma once

#include <vector>

#include "util/bytes.h"

namespace securestore::crypto {

/// One signature to check. Views must stay valid for the duration of the
/// ed25519_batch_verify call; the caller owns the backing bytes.
struct BatchVerifyItem {
  BytesView public_key;  // 32 bytes
  BytesView message;
  BytesView signature;  // 64 bytes (R || S)
};

struct BatchVerifyResult {
  /// Per-item verdict, index-aligned with the input.
  std::vector<bool> valid;
  /// True iff every item verified.
  bool all_valid = false;
  /// True when the combined equation failed and items were re-checked
  /// one-by-one (at least one item is then invalid). A lone item's failed
  /// equation already is its verdict, so it is not checked twice.
  bool used_fallback = false;
};

/// Verifies a batch of Ed25519 signatures. Agrees with ed25519_verify on
/// every item (malformed keys/points/scalars included) up to the residual
/// rule of DESIGN.md §10; an empty batch is trivially all-valid. Each
/// checked signature is metered as one verify on the CryptoMeter, same as
/// meter_verify.
BatchVerifyResult ed25519_batch_verify(const std::vector<BatchVerifyItem>& items);

}  // namespace securestore::crypto
