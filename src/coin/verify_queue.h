// Deferred coin-share verification (the batch-verification plane).
//
// With inline verification every delivered share pays a full VRF proof
// check on arrival — the dominant CPU cost of a run under the DDH
// backend. Instead, coins push arriving shares into a per-instance
// PendingVerifyQueue and flush it through a shared BatchVerifier when
//   (a) the *candidate* count (verified + pending) reaches the phase
//       threshold — so threshold actions still fire in the same delivery
//       frame an inline verifier would have fired them in,
//   (b) the pending count hits the batch-size watermark, or
//   (c) the round ends (a retired coin simply drops its queue: its
//       output was already delivered).
// A flush folds all pending proofs into one DdhVrf::batch_verify random
// linear combination (near-k-fold amortization), consults the
// verified-share memo so duplicate/replayed tuples never re-verify, and
// can fan chunks out over a ThreadPool — chunk boundaries depend only on
// the batch size, so verdicts are bit-identical at any thread count.
//
// Applying flushed shares in arrival order with the same guards the
// inline path uses makes the deferred path's state evolution — sends,
// decides, outputs — bit-identical to inline verification; only the new
// Metrics verify counters can tell the two apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/shared_bytes.h"
#include "committee/sampler.h"
#include "crypto/signer.h"
#include "crypto/verdict_memo.h"
#include "crypto/vrf.h"

namespace coincidence::coin {

/// Shared, per-Env verification service: memoized + batched VRF share
/// checks and batched committee-election checks. One instance is shared
/// by every process of a run (the simulator delivers one message at a
/// time, so unsynchronized shared state is safe — same contract as
/// CachingSampler), which lets the memo dedup identical tuples across
/// receivers: a share broadcast to n processes verifies once, not n
/// times.
class BatchVerifier {
 public:
  struct Config {
    std::shared_ptr<const crypto::Vrf> vrf;  // required
    /// Needed only by callers that defer election checks (whp coin).
    std::shared_ptr<const committee::Sampler> sampler;
    /// Needed only by callers that defer HMAC signature checks (the
    /// approver's ok-proof sweep).
    std::shared_ptr<const crypto::Signer> signer;
    /// Pending shares that force a queue flush.
    std::size_t watermark = 16;
    /// Entries per batch_verify call when splitting across the pool.
    std::size_t chunk = 16;
    /// Optional worker pool for flushes; null = serial (identical
    /// verdicts either way). The pool must not be shared with a caller
    /// already inside a for_each_index job (jobs are non-reentrant).
    ThreadPool* pool = nullptr;
  };

  struct FlushStats {
    std::size_t rejects = 0;    // entries that failed verification
    std::size_t memo_hits = 0;  // entries answered from the memo
  };

  explicit BatchVerifier(Config cfg);

  /// Verifies every entry (memo first, then one batched verification of
  /// the misses, chunked over the pool when configured). out[i] is the
  /// verdict for entries[i], exactly what Vrf::verify would return.
  FlushStats verify_shares(std::span<const crypto::VrfBatchEntry> entries,
                           std::vector<char>& out);

  /// Batched committee_val (see Sampler::committee_val_batch). Requires
  /// a sampler in the config.
  void verify_elections(std::span<const committee::Sampler::ValCheck> checks,
                        std::vector<char>& out);

  /// Verifies every signature entry: memo first, then ONE
  /// Signer::batch_verify over the distinct misses (identical triples
  /// within the flush verify once and fan the verdict out), memo filled
  /// in entry order. out[i] is exactly what Signer::verify would return
  /// for entries[i]. Requires a signer in the config.
  FlushStats verify_signatures(std::span<const crypto::SigBatchEntry> entries,
                               std::vector<char>& out);

  /// One memoized signature check — the echo fast path: a broadcast
  /// ⟨echo,v⟩ reaches n receivers who all share this verifier, so the
  /// same (signer, message, sig) triple verifies once run-wide. Verdict
  /// identical to Signer::verify. `memo_hit` (optional) reports whether
  /// the memo answered.
  bool check_signature(const crypto::SigBatchEntry& entry,
                       bool* memo_hit = nullptr);

  std::size_t watermark() const { return cfg_.watermark; }
  const crypto::VerdictMemo& memo() const { return memo_; }
  const crypto::VerdictMemo& sig_memo() const { return sig_memo_; }

  /// Cumulative counters across all flushes (all processes of the run).
  std::uint64_t batches() const { return batches_; }
  std::uint64_t shares() const { return shares_; }
  std::uint64_t rejects() const { return rejects_; }

  /// Signature-path counters (verify_signatures + check_signature).
  std::uint64_t sig_batches() const { return sig_batches_; }
  std::uint64_t sig_checks() const { return sig_checks_; }
  std::uint64_t sig_rejects() const { return sig_rejects_; }

  /// Queue-lifecycle ledger, maintained by the coins that defer into this
  /// verifier: every share enqueued into a PendingVerifyQueue is either
  /// flushed through verify_shares or discarded unverified when its coin
  /// retires (round end, crash, or teardown). The conservation law
  ///   enqueued() == flushed() + discarded()
  /// must hold once every queue is drained or dropped — crash-recovery
  /// must not lose or double-count a share (satellite check in
  /// tests/coin/test_verify_recovery.cpp).
  void note_enqueued() { ++enqueued_; }
  void note_flushed(std::uint64_t k) { flushed_ += k; }
  void note_discarded(std::uint64_t k) { discarded_ += k; }
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t flushed() const { return flushed_; }
  std::uint64_t discarded() const { return discarded_; }

 private:
  Config cfg_;
  crypto::VerdictMemo memo_;
  crypto::VerdictMemo sig_memo_;
  std::uint64_t batches_ = 0;
  std::uint64_t shares_ = 0;
  std::uint64_t rejects_ = 0;
  std::uint64_t sig_batches_ = 0;
  std::uint64_t sig_checks_ = 0;
  std::uint64_t sig_rejects_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t flushed_ = 0;
  std::uint64_t discarded_ = 0;
};

/// Arrival-ordered buffer of not-yet-verified coin shares. The payload
/// buffer is retained by refcount (SharedBytes), so the views stay valid
/// after the delivery frame returns — nothing is copied.
class PendingVerifyQueue {
 public:
  struct Share {
    SharedBytes buf;  // keeps the views below alive
    crypto::ProcessId sender = 0;
    crypto::ProcessId origin = 0;
    bool is_first = false;
    BytesView value;
    BytesView origin_proof;
    BytesView election_proof;  // empty for SharedCoin shares
  };

  void enqueue(Share s) {
    (s.is_first ? pending_first_ : pending_second_) += 1;
    shares_.push_back(std::move(s));
  }

  bool empty() const { return shares_.empty(); }
  std::size_t pending() const { return shares_.size(); }
  std::size_t pending_first() const { return pending_first_; }
  std::size_t pending_second() const { return pending_second_; }

  /// Drains the queue, returning the shares in arrival order.
  std::vector<Share> take() {
    pending_first_ = pending_second_ = 0;
    return std::move(shares_);
  }

 private:
  std::vector<Share> shares_;
  std::size_t pending_first_ = 0;
  std::size_t pending_second_ = 0;
};

}  // namespace coincidence::coin
