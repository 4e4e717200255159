// Verdict memo: a result cache for VRF-proof and signature checks, keyed
// by every byte the check covers — an FNV-1a fingerprint for the hash
// table plus the full bytes for exact equality.
//
// Two hot paths pay for it. Lossy links duplicate and replay coin shares
// verbatim (see sim::NetworkProfile), so with deferred batch verification
// every re-delivered (pk, input, value, proof) tuple is a dictionary hit
// instead of another multi-exp. And every approver ⟨ok,v⟩ message embeds
// the SAME W signed ⟨echo,v⟩ entries (§6.1), so the ~λ ok messages a
// process receives would re-verify n·W HMACs that collapse to ~W misses.
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
#include <unordered_map>

#include "common/bytes.h"
#include "crypto/signer.h"
#include "crypto/vrf.h"

namespace coincidence::crypto {

class VerdictMemo {
 public:
  /// The cached verdict for `e` (a VrfBatchEntry or SigBatchEntry), if
  /// any. Counts a hit or miss.
  template <typename Entry>
  std::optional<bool> lookup(const Entry& e) const {
    return lookup_key(key_of(e));
  }

  /// Records the verdict for `e` (overwrites on the unlikely re-store).
  template <typename Entry>
  void store(const Entry& e, bool ok) {
    store_key(key_of(e), ok);
  }

  /// The table fingerprint of `e` — exposed so batch callers can dedup
  /// identical entries WITHIN one flush before they reach the verifier
  /// (the memo itself only collapses repeats across flushes: lookups all
  /// happen before any store).
  template <typename Entry>
  static std::uint64_t fingerprint(const Entry& e) {
    return fingerprint_key(key_of(e));
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
