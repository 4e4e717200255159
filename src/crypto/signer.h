// Message signatures for the approver's ok-message proofs (§6.1: an
// ⟨ok,v⟩ message carries W signed ⟨echo,v⟩ messages as validity proof).
//
// Simulated-PKI instantiation: sig = HMAC(sk, msg), verified by
// recomputation through the KeyRegistry. Unforgeable within the
// simulation (the adversary never sees a correct process's sk) and
// costs one word on the wire — exactly how the paper accounts it.
#pragma once

#include <memory>

#include "crypto/key_registry.h"

namespace coincidence::crypto {

/// One (signer, message, sig) triple: the key of a signature verdict
/// memo (crypto::VerdictMemo, coin::BatchVerifier::check_signature). The
/// views typically point into retained wire buffers (the approver's echo
/// and ok-proof entries) or hoisted members.
struct SigBatchEntry {
  ProcessId signer = 0;
  BytesView message;
  BytesView sig;
};

class Signer {
 public:
  explicit Signer(std::shared_ptr<const KeyRegistry> registry);

  /// Signature by process `id` over `message`.
  Bytes sign(ProcessId id, BytesView message) const;

  /// True iff `sig` is `id`'s signature over `message`.
  bool verify(ProcessId id, BytesView message, BytesView sig) const;

  /// Wire size of one signature (one "word" in the paper's accounting).
  static constexpr std::size_t kSignatureSize = 32;

 private:
  std::shared_ptr<const KeyRegistry> registry_;
};

}  // namespace coincidence::crypto
