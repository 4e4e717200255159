// Per-replica ok-entry reuse: an <ok> proof entry byte-equal to a pair
// that already passed both checks at this replica is accepted without a
// check; every other entry takes the full path, its signature checked
// through the shared signature memo or, without one, by the signer. These
// tests drive one receiving approver directly, message by message, so the
// order of echoes and oks is exactly what an adversarial scheduler would
// pick.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ba/approver.h"
#include "coin/verify_queue.h"
#include "common/ser.h"
#include "crypto/fast_vrf.h"

namespace coincidence::ba {
namespace {

/// A Context that drops every send and keeps the counters.
class CountingContext final : public sim::Context {
 public:
  CountingContext(sim::ProcessId self, std::size_t n)
      : self_(self), n_(n), rng_(self + 1) {}

  sim::ProcessId self() const override { return self_; }
  std::size_t n() const override { return n_; }
  void send(sim::ProcessId, sim::Tag, SharedBytes, std::size_t) override {}
  void broadcast(sim::Tag, SharedBytes, std::size_t) override {}
  Rng& rng() override { return rng_; }
  std::uint64_t causal_depth() const override { return 0; }
  void count(sim::Counter c, std::uint64_t delta) override {
    counters[c] += delta;
  }

  sim::CounterValues counters;

 private:
  sim::ProcessId self_;
  std::size_t n_;
  Rng rng_;
};

struct Entry {
  crypto::ProcessId sender = 0;
  Bytes signature;
  Bytes election_proof;
};

struct ReuseFixture {
  static constexpr std::size_t kN = 40;
  static constexpr Value kV = kZero;

  ReuseFixture()
      : params(committee::Params::derive(kN, 0.25, 0.02, /*strict=*/false)),
        registry(crypto::KeyRegistry::create_for(kN, 31)),
        vrf(std::make_shared<crypto::FastVrf>(registry)),
        sampler(std::make_shared<committee::CachingSampler>(
            vrf, registry, params.sample_prob())),
        signer(std::make_shared<crypto::Signer>(registry)),
        batcher(std::make_shared<coin::BatchVerifier>(
            coin::BatchVerifier::Config{vrf, sampler, signer})) {
    Writer sign_bytes;
    sign_bytes.str("apv").str("echo").u8(kV);
    for (crypto::ProcessId i = 0; i < kN; ++i) {
      auto echo = sampler->sample(i, "apv/echo/0");
      if (echo.sampled && echoes.size() < params.W)
        echoes.push_back({i, signer->sign(i, sign_bytes.bytes()), echo.proof});
      if (sampler->sample(i, "apv/ok").sampled) ok_members.push_back(i);
    }
  }

  /// One receiver; its signature checks go through the fixture's shared
  /// BatchVerifier memo when `memo` is set, else to the signer.
  Approver make_receiver(bool memo) {
    Approver::Config cfg;
    cfg.tag = "apv";
    cfg.params = params;
    cfg.registry = registry;
    cfg.sampler = sampler;
    cfg.signer = signer;
    if (memo) cfg.batcher = batcher;
    return Approver(cfg, kV);
  }

  sim::Message message(crypto::ProcessId from, const std::string& tag,
                       Bytes payload) const {
    sim::Message m;
    m.from = from;
    m.tag = tag;
    m.payload = SharedBytes(std::move(payload));
    return m;
  }

  sim::Message echo_message(const Entry& e) const {
    Writer w;
    w.u8(kV).blob(e.election_proof).blob(e.signature);
    return message(e.sender, "apv/echo", w.take());
  }

  sim::Message ok_message(crypto::ProcessId from,
                          const std::vector<Entry>& entries) const {
    Writer w;
    w.u8(kV).blob(sampler->sample(from, "apv/ok").proof);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& e : entries)
      w.u32(e.sender).blob(e.signature).blob(e.election_proof);
    return message(from, "apv/ok", w.take());
  }

  static bool applied(const Approver& a, crypto::ProcessId sender) {
    const auto& oks = a.applied_oks();
    return std::any_of(oks.begin(), oks.end(),
                       [&](const Approver::AppliedOk& ok) {
                         return ok.sender == sender;
                       });
  }

  committee::Params params;
  std::shared_ptr<crypto::KeyRegistry> registry;
  std::shared_ptr<crypto::FastVrf> vrf;
  std::shared_ptr<committee::CachingSampler> sampler;
  std::shared_ptr<crypto::Signer> signer;
  std::shared_ptr<coin::BatchVerifier> batcher;
  std::vector<Entry> echoes;  // W valid signed <echo,0>
  std::vector<crypto::ProcessId> ok_members;
};

TEST(Approver, OkEntryReuseNeedsByteEquality) {
  ReuseFixture fx;
  ASSERT_EQ(fx.echoes.size(), fx.params.W);
  ASSERT_GE(fx.ok_members.size(), fx.params.W + 3);

  // Three Byzantine ok-committee members forge oks from known entries.
  std::vector<Entry> flipped_sig = fx.echoes;
  flipped_sig[1].signature[0] ^= 1;
  std::vector<Entry> swapped_election = fx.echoes;
  // A valid VRF proof of the same sender, for another committee seed.
  swapped_election[2].election_proof =
      fx.sampler->sample(swapped_election[2].sender, "apv/echo/1").proof;
  // A known entry's bytes under an id >= n that aliases its sender mod n.
  std::vector<Entry> foreign_sender = fx.echoes;
  foreign_sender[3].sender += static_cast<crypto::ProcessId>(ReuseFixture::kN);
  const std::vector<std::vector<Entry>> forged = {
      flipped_sig, swapped_election, foreign_sender};

  for (bool memo : {true, false}) {
    SCOPED_TRACE(memo ? "memo" : "no memo");
    Approver a = fx.make_receiver(memo);
    CountingContext ctx(0, ReuseFixture::kN);
    // Every echo arrives first, so the table knows every honest entry.
    for (const Entry& e : fx.echoes) a.handle(ctx, fx.echo_message(e));
    for (std::size_t k = 0; k < forged.size(); ++k)
      a.handle(ctx, fx.ok_message(fx.ok_members[k], forged[k]));
    for (std::size_t k = forged.size(); k < forged.size() + fx.params.W; ++k)
      a.handle(ctx, fx.ok_message(fx.ok_members[k], fx.echoes));

    ASSERT_TRUE(a.done());
    EXPECT_EQ(a.output(), std::set<Value>{ReuseFixture::kV});
    for (std::size_t k = 0; k < forged.size(); ++k)
      EXPECT_FALSE(ReuseFixture::applied(a, fx.ok_members[k])) << k;
    for (std::size_t k = forged.size(); k < forged.size() + fx.params.W; ++k)
      EXPECT_TRUE(ReuseFixture::applied(a, fx.ok_members[k])) << k;
    // The honest oks were all accepted by byte compare.
    EXPECT_GE(ctx.counters[sim::Counter::kOkEntriesReused],
              fx.params.W * fx.params.W);
    // Only the flipped signature reached a signature check (the other
    // two forgeries fail an election first), and it was rejected.
    EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifySigs], 1u);
    EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifyRejects], 1u);
  }
}

TEST(Approver, OkBeforeEchoIsVerifiedThenLearned) {
  ReuseFixture fx;
  ASSERT_EQ(fx.echoes.size(), fx.params.W);
  ASSERT_GE(fx.ok_members.size(), 2u);
  const std::size_t W = fx.params.W;

  for (bool memo : {true, false}) {
    SCOPED_TRACE(memo ? "memo" : "no memo");
    Approver a = fx.make_receiver(memo);
    CountingContext ctx(0, ReuseFixture::kN);

    // The adversary holds back every echo: the first ok takes the full
    // path, checking all W signatures.
    a.handle(ctx, fx.ok_message(fx.ok_members[0], fx.echoes));
    EXPECT_TRUE(ReuseFixture::applied(a, fx.ok_members[0]));
    EXPECT_EQ(ctx.counters[sim::Counter::kOkEntriesReused], 0u);
    EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifySigs], W);
    EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifyMemoHits], 0u);
    if (memo) EXPECT_EQ(fx.batcher->sig_checks(), W);

    // A later ok carrying the same entries is accepted from the table.
    a.handle(ctx, fx.ok_message(fx.ok_members[1], fx.echoes));
    EXPECT_TRUE(ReuseFixture::applied(a, fx.ok_members[1]));
    EXPECT_EQ(ctx.counters[sim::Counter::kOkEntriesReused], W);
    EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifySigs], W);  // none new
    if (memo) EXPECT_EQ(fx.batcher->sig_checks(), W);

    // A second replica sharing the memo checks the same W entries, and
    // the memo answers every one of them.
    if (memo) {
      Approver b = fx.make_receiver(memo);
      CountingContext other(1, ReuseFixture::kN);
      b.handle(other, fx.ok_message(fx.ok_members[0], fx.echoes));
      EXPECT_TRUE(ReuseFixture::applied(b, fx.ok_members[0]));
      EXPECT_EQ(other.counters[sim::Counter::kSigVerifySigs], W);
      EXPECT_EQ(other.counters[sim::Counter::kSigVerifyMemoHits], W);
    }

    // The held-back echoes change nothing already learned.
    for (const Entry& e : fx.echoes) a.handle(ctx, fx.echo_message(e));
    EXPECT_EQ(a.applied_oks().size(), 2u);
  }
}

// An ok from a sender already counted for the phase is dropped before
// any check. The repeat here carries an entry the replica has never
// checked, so checking it would cost the sender's election, that entry's
// election and its signature, and would count the other entries reused.
TEST(Approver, RepeatOkFromCountedSenderCostsNoCheck) {
  ReuseFixture fx;
  ASSERT_EQ(fx.echoes.size(), fx.params.W);
  ASSERT_GE(fx.ok_members.size(), 1u);
  ASSERT_GT(fx.params.W, 1u);  // one ok does not finish the approver
  const crypto::ProcessId sender = fx.ok_members[0];
  std::vector<Entry> altered = fx.echoes;
  altered[0].signature[0] ^= 1;
  const sim::Message first = fx.ok_message(sender, fx.echoes);
  const sim::Message repeat = fx.ok_message(sender, altered);
  const sim::Message verbatim = fx.ok_message(sender, fx.echoes);

  Approver a = fx.make_receiver(/*memo=*/true);
  CountingContext ctx(0, ReuseFixture::kN);
  a.handle(ctx, first);
  ASSERT_TRUE(ReuseFixture::applied(a, sender));

  const auto lookups = [&] {
    return fx.sampler->memo().hits() + fx.sampler->memo().misses();
  };
  const std::uint64_t sig_checks = fx.batcher->sig_checks();
  const std::uint64_t elections = lookups();
  const std::uint64_t reused = ctx.counters[sim::Counter::kOkEntriesReused];
  a.handle(ctx, repeat);
  a.handle(ctx, verbatim);
  EXPECT_EQ(fx.batcher->sig_checks(), sig_checks);
  EXPECT_EQ(lookups(), elections);
  EXPECT_EQ(ctx.counters[sim::Counter::kOkEntriesReused], reused);
  EXPECT_EQ(a.applied_oks().size(), 1u);
  EXPECT_FALSE(a.done());
}

}  // namespace
}  // namespace coincidence::ba
