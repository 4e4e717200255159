// Validated committee sampling (§5.1).
//
// sample_i(s, λ) is a *local* computation: process i evaluates its VRF on
// the committee seed and is elected iff the output, mapped to [0,1), is
// below λ/n. The returned proof is the VRF output+proof; committee-val
// verifies it against i's public key and recomputes the threshold test —
// so (a) election needs no communication, (b) nobody can predict another
// process's membership (VRF pseudorandomness), and (c) membership claims
// are unforgeable (VRF uniqueness).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/key_registry.h"
#include "crypto/verdict_memo.h"
#include "crypto/vrf.h"

namespace coincidence::committee {

using crypto::ProcessId;

class Sampler {
 public:
  /// `lambda_over_n` is the per-process election probability λ/n.
  Sampler(std::shared_ptr<const crypto::Vrf> vrf,
          std::shared_ptr<const crypto::KeyRegistry> registry,
          double lambda_over_n);
  virtual ~Sampler() = default;

  struct Election {
    bool sampled = false;
    Bytes proof;  // serialized VRF output; 1 word on the wire
  };

  /// sample_i(s, λ): process i's private election for committee seed `s`.
  virtual Election sample(ProcessId i, const std::string& seed) const;

  /// committee-val(s, λ, i, σ): public verification. True iff `proof` is
  /// i's valid election proof for `seed` AND it proves membership.
  virtual bool committee_val(const std::string& seed, ProcessId i,
                             BytesView proof) const;

  /// One committee-val check of a batch. Its views must outlive the
  /// committee_val_batch call.
  using ValCheck = crypto::ElectionCheck;

  /// Batched committee-val: on return out[i] == committee_val(
  /// checks[i].seed, checks[i].id, checks[i].proof), out sized to match.
  /// All underlying VRF verifications fold into ONE Vrf::batch_verify
  /// call — a near-k-fold multi-exp amortization on the DDH backend.
  virtual void committee_val_batch(std::span<const ValCheck> checks,
                                   std::vector<char>& out) const;

  double threshold() const { return lambda_over_n_; }

 private:
  Bytes vrf_input(std::string_view seed) const;

  std::shared_ptr<const crypto::Vrf> vrf_;
  std::shared_ptr<const crypto::KeyRegistry> registry_;
  double lambda_over_n_;
};

/// Memoizing decorator for committee-val. Proof verification is a pure
/// function, so its verdicts cache perfectly: every receiver of a
/// broadcast init, echo or coin share checks the same (id, seed, proof)
/// election, which this collapses to one verification run-wide. The memo
/// is a crypto::VerdictMemo keyed by views, so a lookup allocates
/// nothing. Elections (sample) are not cached: each process computes its
/// own once per seed. Single-threaded by design, like the simulator.
class CachingSampler final : public Sampler {
 public:
  CachingSampler(std::shared_ptr<const crypto::Vrf> vrf,
                 std::shared_ptr<const crypto::KeyRegistry> registry,
                 double lambda_over_n);

  bool committee_val(const std::string& seed, ProcessId i,
                     BytesView proof) const override;
  /// Probes the memo per check and batches only the misses (then stores
  /// their verdicts).
  void committee_val_batch(std::span<const ValCheck> checks,
                           std::vector<char>& out) const override;

  const crypto::VerdictMemo& memo() const { return memo_; }

 private:
  mutable crypto::VerdictMemo memo_;
};

}  // namespace coincidence::committee
