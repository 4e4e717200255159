#include "crypto/verdict_memo.h"

#include <algorithm>

namespace coincidence::crypto {

VerdictMemo::Key VerdictMemo::key_of(const SigBatchEntry& e) {
  const BytesView signer(reinterpret_cast<const std::uint8_t*>(&e.signer),
                         sizeof e.signer);
  return {signer, e.message, e.sig, BytesView()};
}

// FNV-1a with a length marker before each field, so (message="ab",
// sig="c") and (message="a", sig="bc") fingerprint differently.
std::uint64_t VerdictMemo::fingerprint_key(const Key& key) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (BytesView field : key) {
    h ^= field.size();
    h *= kPrime;
    for (std::uint8_t byte : field) {
      h ^= byte;
      h *= kPrime;
    }
  }
  return h;
}

bool VerdictMemo::matches(const Stored& stored, const Key& key) {
  auto pos = stored.bytes.begin();
  for (std::size_t i = 0; i < kFields; ++i) {
    if (key[i].size() != stored.sizes[i] ||
        !std::equal(key[i].begin(), key[i].end(), pos))
      return false;
    pos += static_cast<std::ptrdiff_t>(key[i].size());
  }
  return true;
}

std::optional<bool> VerdictMemo::lookup_key(const Key& key) const {
  auto [lo, hi] = memo_.equal_range(fingerprint_key(key));
  for (auto it = lo; it != hi; ++it)
    if (matches(it->second, key)) {
      ++hits_;
      return it->second.ok;
    }
  ++misses_;
  return std::nullopt;
}

void VerdictMemo::store_key(const Key& key, bool ok) {
  const std::uint64_t fp = fingerprint_key(key);
  auto [lo, hi] = memo_.equal_range(fp);
  for (auto it = lo; it != hi; ++it)
    if (matches(it->second, key)) {
      it->second.ok = ok;  // unlikely re-store: overwrite
      return;
    }
  Stored stored;
  stored.ok = ok;
  for (std::size_t i = 0; i < kFields; ++i) {
    stored.sizes[i] = key[i].size();
    stored.bytes.insert(stored.bytes.end(), key[i].begin(), key[i].end());
  }
  memo_.emplace(fp, std::move(stored));
}

}  // namespace coincidence::crypto
