// Verdict memo: a result cache for VRF-proof, signature and committee
// election checks, keyed by every byte the check covers — an FNV-1a
// fingerprint for the hash table plus the full bytes for exact equality.
//
// Three hot paths pay for it. Lossy links duplicate and replay coin
// shares verbatim (see sim::NetworkProfile), so with deferred batch
// verification every re-delivered (pk, input, value, proof) tuple is a
// dictionary hit instead of another multi-exp. Every receiver of a
// broadcast ⟨echo,v⟩ checks the same (signer, message, sig) triple. And
// every receiver of a broadcast init, echo or coin share checks the same
// (id, seed, proof) election (committee::CachingSampler keeps one memo
// for those).
//
// Negative verdicts are cached too: a forged share replayed n times costs
// one verification. Because the key includes the proof or signature
// bytes, a forgery caches its own verdict without poisoning the honest
// entry — that is a different key.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/bytes.h"
#include "crypto/signer.h"
#include "crypto/vrf.h"

namespace coincidence::crypto {

/// One committee-val check (committee::Sampler::ValCheck), also its memo
/// key. Views only: the caller keeps the seed and proof bytes alive.
struct ElectionCheck {
  std::string_view seed;
  ProcessId id = 0;
  BytesView proof;
};

class VerdictMemo {
 public:
  /// The cached verdict for `e` (a VrfBatchEntry, SigBatchEntry or
  /// ElectionCheck), if any. Counts a hit or miss.
  template <typename Entry>
  std::optional<bool> lookup(const Entry& e) const {
    return lookup_key(key_of(e));
  }

  /// Records the verdict for `e` (overwrites on the unlikely re-store).
  template <typename Entry>
  void store(const Entry& e, bool ok) {
    store_key(key_of(e), ok);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const { return memo_.size(); }

 private:
  static constexpr std::size_t kFields = 4;
  using Key = std::array<BytesView, kFields>;

  static Key key_of(const VrfBatchEntry& e) {
    return {e.pk, e.input, e.value, e.proof};
  }
  /// The signer id's bytes, message, sig (the fourth field is empty).
  static Key key_of(const SigBatchEntry& e);
  /// The id's bytes, seed, proof (the fourth field is empty).
  static Key key_of(const ElectionCheck& e);

  // Fingerprint-keyed multimap with owned bytes only in the stored
  // entries: a lookup walks the (almost always singleton) fingerprint
  // bucket comparing views — the hot path allocates nothing.
  struct Stored {
    Bytes bytes;  // the key's fields, concatenated
    std::array<std::size_t, kFields> sizes{};
    bool ok = false;
  };

  static std::uint64_t fingerprint_key(const Key& key);
  static bool matches(const Stored& stored, const Key& key);
  std::optional<bool> lookup_key(const Key& key) const;
  void store_key(const Key& key, bool ok);

  std::unordered_multimap<std::uint64_t, Stored> memo_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace coincidence::crypto
