// Algorithm 3: the committee-based approver (an adaptation of MMR's
// SBV-broadcast to committees).
//
// Three phases, four committees (Fig. 1): init, echo(0)/echo(1) — one
// echo committee *per value* so a correct member broadcasts at most once
// per role (process replaceability) — and ok.
//
//   init  member:  broadcast <init, v_input>
//   echo(v) member: on <init, v> from B+1 distinct senders,
//                   broadcast a *signed* <echo, v>
//   ok    member:  on <echo, v> from W distinct echo(v) members, if no
//                   <ok, *> sent yet, broadcast <ok, v> carrying the W
//                   signed echoes as a validity proof
//   everyone:      on <ok, *> from W distinct valid senders, return the
//                   set of values carried
//
// Under Assumption 1 (correct processes invoke with <= 2 distinct values)
// this satisfies validity, graded agreement and termination whp
// (Lemmas 6.2–6.4). Word complexity O(nλ²) — the λ² comes from the W
// signatures inside each ok message.
//
// Hot-path notes: echo fields stay SharedBytes aliases of the delivered
// buffer, the <echo,v> signing strings are hoisted members, and tracking
// uses flat arrays and bitmaps. Every ok embeds the SAME W signed echoes,
// so each replica keeps a (v, sender) table of the (signature, election
// proof) pairs that passed both checks here, seeded from received echoes
// and applied oks: a byte-equal ok entry is accepted with a compare, any
// other bytes take the full path (both checks are pure, so verdicts
// cannot change). Every <ok> is checked on arrival; with a
// coin::BatchVerifier its signature checks answer from the run-wide
// signature memo.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ba/value.h"
#include "coin/verify_queue.h"
#include "committee/params.h"
#include "committee/sampler.h"
#include "crypto/key_registry.h"
#include "crypto/signer.h"
#include "sim/process.h"
#include "sim/sender_set.h"

namespace coincidence::ba {

class Approver {
 public:
  struct Config {
    std::string tag;  // instance routing prefix (and committee seed root)
    committee::Params params;
    std::shared_ptr<const crypto::KeyRegistry> registry;
    std::shared_ptr<const committee::Sampler> sampler;
    std::shared_ptr<const crypto::Signer> signer;
    /// When set, echo and ok-entry signatures answer from its run-wide
    /// signature memo (BatchVerifier::check_signature); otherwise they
    /// go to the signer. Verdicts are identical either way — HMAC
    /// verification is pure.
    std::shared_ptr<coin::BatchVerifier> batcher;
  };

  using DoneFn = std::function<void(const std::set<Value>&)>;

  /// A verified <ok> this approver counted toward its W threshold. The
  /// buffer is the raw ok payload (refcount-retained), so it can be
  /// re-verified by third parties: ba_whp forwards applied oks as
  /// round-skip locks and decision certificates.
  struct AppliedOk {
    crypto::ProcessId sender = 0;
    Value v = kZero;
    SharedBytes buf;
  };

  /// `input` is this process's approve() argument (0, 1 or ⊥).
  Approver(Config cfg, Value input, DoneFn on_done = {});

  void start(sim::Context& ctx);
  bool handle(sim::Context& ctx, const sim::Message& msg);
  bool done() const { return done_; }
  /// The non-empty returned set; requires done().
  const std::set<Value>& output() const;

  /// The verified oks applied so far, in application order (at most W).
  const std::vector<AppliedOk>& applied_oks() const { return applied_oks_; }

  /// Stateless re-verification of a forwarded <ok> payload, exactly the
  /// full path of handle_ok: parse, W distinct embedded senders, the
  /// sender's ok election, the W echo elections, the W echo signatures.
  /// `approver_tag` names the instance the ok claims to come from (its
  /// committee-seed root, e.g. "slot7/0/a2"); `sender` is the claimed ok
  /// broadcaster, bound by its election proof. Returns the carried value
  /// on full success.
  static std::optional<Value> verify_ok_payload(
      const committee::Sampler& sampler, const crypto::Signer& signer,
      const committee::Params& params, const std::string& approver_tag,
      crypto::ProcessId sender, BytesView payload);

  /// Whitebox accessors for tests.
  bool in_init_committee() const { return in_init_; }
  bool in_ok_committee() const { return in_ok_; }
  bool sent_ok() const { return sent_ok_; }

 private:
  /// A collected signed echo. `buf` aliases the delivered message buffer
  /// (refcount bump), keeping the two views alive without a deep copy.
  struct SignedEcho {
    crypto::ProcessId sender = 0;
    SharedBytes buf;
    BytesView signature;
    BytesView election_proof;
  };

  /// One ok-proof entry, borrowed from a retained message buffer.
  struct OkProofEntry {
    crypto::ProcessId sender = 0;
    BytesView signature;
    BytesView election_proof;
  };

  /// A proof entry that passed both of its checks at this replica; the
  /// views point into a buffer echoes_ or applied_oks_ retains.
  struct KnownEntry {
    BytesView signature;
    BytesView election_proof;
    bool set = false;
  };

  const std::string& init_seed() const { return init_seed_; }
  const std::string& echo_seed(Value v) const { return echo_seeds_[v]; }
  const std::string& ok_seed() const { return ok_seed_; }

  /// The byte string an echo(v) member signs (hoisted member).
  const Bytes& echo_sign_bytes(Value v) const { return echo_sign_bytes_[v]; }

  void maybe_echo(sim::Context& ctx, Value v);
  void maybe_ok(sim::Context& ctx, Value v);
  bool handle_init(sim::Context& ctx, const sim::Message& msg);
  bool handle_echo(sim::Context& ctx, const sim::Message& msg);
  bool handle_ok(sim::Context& ctx, const sim::Message& msg);

  /// Decodes an <ok> payload into its value, sender election proof and W
  /// entries (views into `payload`). False on a codec error, a wrong
  /// arity, an invalid value or a repeated entry sender; `ids` is scratch.
  static bool parse_ok(BytesView payload, std::size_t W, Value& v,
                       BytesView& election,
                       std::vector<OkProofEntry>& entries,
                       std::vector<crypto::ProcessId>& ids);

  /// True iff `e` is byte-equal to the pair known for (v, e.sender).
  bool known(Value v, const OkProofEntry& e) const;
  /// Records a pair that passed both checks; the first one per (v,
  /// sender) stays. Senders >= n are never recorded.
  void learn(Value v, const OkProofEntry& e);

  /// `signer`'s <echo,v> signature check, through the batcher's memo
  /// when one is configured (`memo_hit`, if given, reports whether the
  /// memo answered). The one signature path of echoes and of ok entries
  /// not in the table.
  bool check_echo_signature(crypto::ProcessId signer, Value v, BytesView sig,
                            bool* memo_hit = nullptr) const;

  Config cfg_;
  Value input_;
  DoneFn on_done_;

  // Interned tags, committee seeds and signing strings, built once at
  // construction: handle() dispatches by integer id and the verifiers
  // re-use the strings without per-message allocation.
  sim::Tag tag_init_;
  sim::Tag tag_echo_;
  sim::Tag tag_ok_;
  std::string init_seed_;
  std::string ok_seed_;
  std::array<std::string, 3> echo_seeds_;      // indexed by Value {0, 1, ⊥}
  std::array<Bytes, 3> echo_sign_bytes_;       // <tag|"echo"|v> preimages

  bool in_init_ = false;
  bool in_ok_ = false;
  Bytes init_election_proof_;
  Bytes ok_election_proof_;

  // init phase: distinct init-committee senders per value (bitmap+count).
  std::array<sim::SenderSet, 3> init_seen_;
  std::array<bool, 3> echoed_{};  // values this process already echoed

  // echo phase: collected signed echoes per value.
  std::array<std::vector<SignedEcho>, 3> echoes_;
  std::array<sim::SenderSet, 3> echo_seen_;
  bool sent_ok_ = false;

  // ok phase.
  sim::SenderSet ok_seen_;
  std::vector<AppliedOk> applied_oks_;  // counted oks, application order
  std::uint8_t ok_mask_ = 0;       // bit v set ⟺ v carried by a valid ok
  std::set<Value> ok_values_;      // materialized from ok_mask_ at done

  // Accepted proof entries per value, indexed by sender (sized n on the
  // value's first entry).
  std::array<std::vector<KnownEntry>, 3> known_;

  // Reused parse scratch (capacity persists across messages).
  std::vector<OkProofEntry> parse_scratch_;
  std::vector<crypto::ProcessId> distinct_scratch_;

  bool done_ = false;
};

/// A Process hosting exactly one approver instance — the standalone
/// harness used by approver tests and the Fig. 1 bench.
class ApproverHost final : public sim::Process {
 public:
  ApproverHost(Approver::Config cfg, Value input)
      : approver_(std::move(cfg), input) {}

  void on_start(sim::Context& ctx) override { approver_.start(ctx); }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    approver_.handle(ctx, msg);
  }

  Approver& approver() { return approver_; }
  const Approver& approver() const { return approver_; }

 private:
  Approver approver_;
};

}  // namespace coincidence::ba
