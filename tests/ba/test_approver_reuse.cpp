// Per-replica ok-entry reuse: an <ok> proof entry byte-equal to a pair
// that already passed both checks at this replica is accepted without a
// check; every other entry takes the full path. These tests drive one
// receiving approver directly, message by message, so the order of
// echoes and oks is exactly what an adversarial scheduler would pick.
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
        sampler(std::make_shared<committee::Sampler>(vrf, registry,
                                                     params.sample_prob())),
        signer(std::make_shared<crypto::Signer>(registry)) {
    Writer sign_bytes;
    sign_bytes.str("apv").str("echo").u8(kV);
    for (crypto::ProcessId i = 0; i < kN; ++i) {
      auto echo = sampler->sample(i, "apv/echo/0");
      if (echo.sampled && echoes.size() < params.W)
        echoes.push_back({i, signer->sign(i, sign_bytes.bytes()), echo.proof});
      if (sampler->sample(i, "apv/ok").sampled) ok_members.push_back(i);
    }
  }

  /// One receiver; deferred through a BatchVerifier flushing at
  /// `watermark` pending oks, or inline when `deferred` is false.
  Approver make_receiver(bool deferred, std::size_t watermark = 16) {
    Approver::Config cfg;
    cfg.tag = "apv";
    cfg.params = params;
    cfg.registry = registry;
    cfg.sampler = sampler;
    cfg.signer = signer;
    if (deferred) {
      coin::BatchVerifier::Config bcfg{vrf, sampler, signer};
      bcfg.watermark = watermark;
      batcher = std::make_shared<coin::BatchVerifier>(bcfg);
      cfg.batcher = batcher;
    }
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
  std::shared_ptr<committee::Sampler> sampler;
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

  for (bool deferred : {true, false}) {
    SCOPED_TRACE(deferred ? "deferred" : "inline");
    Approver a = fx.make_receiver(deferred);
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
    if (deferred)
      EXPECT_GT(ctx.counters[sim::Counter::kSigVerifyRejects], 0u);
  }
}

TEST(Approver, OkBeforeEchoIsVerifiedThenLearned) {
  ReuseFixture fx;
  ASSERT_EQ(fx.echoes.size(), fx.params.W);
  ASSERT_GE(fx.ok_members.size(), 2u);
  const std::size_t W = fx.params.W;

  for (bool deferred : {true, false}) {
    SCOPED_TRACE(deferred ? "deferred" : "inline");
    // Watermark 1: every ok flushes on arrival, so the counters split
    // per ok.
    Approver a = fx.make_receiver(deferred, /*watermark=*/1);
    CountingContext ctx(0, ReuseFixture::kN);

    // The adversary holds back every echo: the first ok takes the full
    // path, sweeping all W signatures.
    a.handle(ctx, fx.ok_message(fx.ok_members[0], fx.echoes));
    EXPECT_TRUE(ReuseFixture::applied(a, fx.ok_members[0]));
    EXPECT_EQ(ctx.counters[sim::Counter::kOkEntriesReused], 0u);
    if (deferred) {
      EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifySigs], W);
      EXPECT_EQ(fx.batcher->sig_checks(), W);
    }

    // A later ok carrying the same entries is accepted from the table.
    a.handle(ctx, fx.ok_message(fx.ok_members[1], fx.echoes));
    EXPECT_TRUE(ReuseFixture::applied(a, fx.ok_members[1]));
    EXPECT_EQ(ctx.counters[sim::Counter::kOkEntriesReused], W);
    if (deferred) {
      EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifyFlushes], 2u);
      EXPECT_EQ(ctx.counters[sim::Counter::kSigVerifySigs], W);  // none new
      EXPECT_EQ(fx.batcher->sig_checks(), W);
    }

    // The held-back echoes change nothing already learned.
    for (const Entry& e : fx.echoes) a.handle(ctx, fx.echo_message(e));
    EXPECT_EQ(a.applied_oks().size(), 2u);
  }
}

}  // namespace
}  // namespace coincidence::ba
