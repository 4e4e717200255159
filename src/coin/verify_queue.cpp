#include "coin/verify_queue.h"

#include <algorithm>

#include "common/errors.h"

namespace coincidence::coin {

BatchVerifier::BatchVerifier(Config cfg) : cfg_(std::move(cfg)) {
  COIN_REQUIRE(cfg_.vrf != nullptr, "BatchVerifier: vrf is required");
  COIN_REQUIRE(cfg_.watermark > 0 && cfg_.chunk > 0,
               "BatchVerifier: watermark and chunk must be positive");
}

BatchVerifier::FlushStats BatchVerifier::verify_shares(
    std::span<const crypto::VrfBatchEntry> entries, std::vector<char>& out) {
  out.assign(entries.size(), 0);
  FlushStats stats;
  if (entries.empty()) return stats;
  ++batches_;
  shares_ += entries.size();

  // Memo pass (serial): duplicate and replayed tuples — common under
  // lossy links, and guaranteed across the n receivers of one broadcast
  // — resolve without touching the crypto.
  std::vector<std::size_t> miss_of;
  miss_of.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (std::optional<bool> hit = memo_.lookup(entries[i])) {
      out[i] = *hit ? 1 : 0;
      ++stats.memo_hits;
    } else {
      miss_of.push_back(i);
    }
  }

  if (!miss_of.empty()) {
    std::vector<crypto::VrfBatchEntry> misses;
    misses.reserve(miss_of.size());
    for (std::size_t i : miss_of) misses.push_back(entries[i]);

    // Fixed-size chunks: boundaries depend only on the miss count, so
    // each chunk's batch (and its DRBG combiner scalars, which are
    // content-addressed per chunk) is identical whether the chunks run
    // serially or on the pool.
    const std::size_t chunks = (misses.size() + cfg_.chunk - 1) / cfg_.chunk;
    std::vector<char> verdicts(misses.size(), 0);
    auto run_chunk = [&](std::size_t c) {
      const std::size_t lo = c * cfg_.chunk;
      const std::size_t hi = std::min(lo + cfg_.chunk, misses.size());
      std::vector<char> chunk_out;
      cfg_.vrf->batch_verify(
          std::span<const crypto::VrfBatchEntry>(misses.data() + lo, hi - lo),
          chunk_out);
      std::copy(chunk_out.begin(), chunk_out.end(), verdicts.begin() + lo);
    };
    if (cfg_.pool != nullptr && chunks > 1) {
      cfg_.pool->for_each_index(chunks, run_chunk);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
    }

    // Fill memo + results serially, in order.
    for (std::size_t j = 0; j < misses.size(); ++j) {
      out[miss_of[j]] = verdicts[j];
      memo_.store(misses[j], verdicts[j] != 0);
    }
  }

  for (char v : out)
    if (!v) ++stats.rejects;
  rejects_ += stats.rejects;
  return stats;
}

void BatchVerifier::verify_elections(
    std::span<const committee::Sampler::ValCheck> checks,
    std::vector<char>& out) {
  COIN_REQUIRE(cfg_.sampler != nullptr,
               "BatchVerifier: election checks need a sampler");
  cfg_.sampler->committee_val_batch(checks, out);
}

bool BatchVerifier::check_signature(const crypto::SigBatchEntry& entry,
                                    bool* memo_hit) {
  COIN_REQUIRE(cfg_.signer != nullptr,
               "BatchVerifier: signature checks need a signer");
  ++sig_checks_;
  if (std::optional<bool> hit = sig_memo_.lookup(entry)) {
    if (memo_hit) *memo_hit = true;
    if (!*hit) ++sig_rejects_;
    return *hit;
  }
  if (memo_hit) *memo_hit = false;
  const bool ok = cfg_.signer->verify(entry.signer, entry.message, entry.sig);
  sig_memo_.store(entry, ok);
  if (!ok) ++sig_rejects_;
  return ok;
}

}  // namespace coincidence::coin
