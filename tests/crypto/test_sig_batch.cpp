// Memoized signature verification (the approver's echo and ok-entry
// checks): BatchVerifier::check_signature must agree entry-for-entry with
// the single-shot verify() oracle, whether the memo misses or hits, and
// VerdictMemo must cache verdicts by the FULL (signer, message, sig)
// triple — a forged signature caches its own negative verdict without
// poisoning the honest pair, because the honest signature is a different
// key.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coin/verify_queue.h"
#include "crypto/fast_vrf.h"
#include "crypto/key_registry.h"
#include "crypto/verdict_memo.h"
#include "crypto/signer.h"

namespace coincidence::crypto {
namespace {

class SigBatchTest : public ::testing::Test {
 protected:
  SigBatchTest() : registry_(KeyRegistry::create_for(8, 77)), signer_(registry_) {}

  SigBatchEntry entry(ProcessId id, const Bytes& msg, const Bytes& sig) {
    return SigBatchEntry{id, BytesView(msg), BytesView(sig)};
  }

  std::shared_ptr<KeyRegistry> registry_;
  Signer signer_;
};

// The oracle law: check_signature(e) == verify(e) for every entry of a
// set mixing valid, tampered, wrong-signer and unknown-signer entries,
// once as a memo miss and once as a memo hit.
TEST_F(SigBatchTest, BatchVerdictsMatchSingleVerifyOracle) {
  coin::BatchVerifier batcher(coin::BatchVerifier::Config{
      std::make_shared<FastVrf>(registry_), nullptr,
      std::make_shared<Signer>(registry_)});
  Bytes m1 = bytes_of("ba|echo|0");
  Bytes m2 = bytes_of("ba|echo|1");
  Bytes s1 = signer_.sign(1, m1);
  Bytes s2 = signer_.sign(2, m2);
  Bytes tampered = s1;
  tampered[5] ^= 0x40;
  Bytes junk(Signer::kSignatureSize, 0xab);

  const std::vector<SigBatchEntry> es = {
      entry(1, m1, s1),        // valid
      entry(2, m1, s1),        // wrong signer
      entry(1, m2, s1),        // wrong message
      entry(1, m1, tampered),  // tampered signature
      entry(99, m1, junk),     // unknown signer
      entry(2, m2, s2),        // valid, different (signer, message)
  };
  const std::vector<bool> expected = {true, false, false, false, false, true};
  for (bool hit : {false, true}) {
    SCOPED_TRACE(hit ? "memo hit" : "memo miss");
    for (std::size_t i = 0; i < es.size(); ++i) {
      bool memo_hit = !hit;
      const bool ok = batcher.check_signature(es[i], &memo_hit);
      EXPECT_EQ(ok, signer_.verify(es[i].signer, es[i].message, es[i].sig))
          << "entry " << i;
      EXPECT_EQ(ok, expected[i]) << "entry " << i;
      EXPECT_EQ(memo_hit, hit) << "entry " << i;
    }
  }
  EXPECT_EQ(batcher.sig_checks(), 2 * es.size());
  EXPECT_EQ(batcher.sig_rejects(), 8u);
  EXPECT_EQ(batcher.sig_memo().size(), es.size());
}

TEST_F(SigBatchTest, MemoMissThenHitWithCounters) {
  VerdictMemo memo;
  Bytes m = bytes_of("m");
  Bytes s = signer_.sign(0, m);
  SigBatchEntry e = entry(0, m, s);
  EXPECT_FALSE(memo.lookup(e).has_value());
  memo.store(e, true);
  auto hit = memo.lookup(e);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.size(), 1u);
}

// The no-poison law: a Byzantine sender attaching a forged signature for
// (signer, message) caches ONLY its own negative verdict. The honest
// signature for the same (signer, message) is a distinct key — it still
// misses (first time) and verifies true, whatever order the two arrive.
TEST_F(SigBatchTest, BadSignatureDoesNotPoisonHonestPair) {
  VerdictMemo memo;
  Bytes m = bytes_of("ba|echo|1");
  Bytes honest = signer_.sign(3, m);
  Bytes forged = honest;
  forged[0] ^= 1;

  // Forged first: negative verdict cached under the forged key.
  SigBatchEntry bad = entry(3, m, forged);
  memo.store(bad, signer_.verify(bad.signer, bad.message, bad.sig));
  auto bad_hit = memo.lookup(bad);
  ASSERT_TRUE(bad_hit.has_value());
  EXPECT_FALSE(*bad_hit);

  // Honest probe is untouched by the forged entry.
  SigBatchEntry good = entry(3, m, honest);
  EXPECT_FALSE(memo.lookup(good).has_value()) << "forged sig poisoned memo";
  memo.store(good, signer_.verify(good.signer, good.message, good.sig));
  auto good_hit = memo.lookup(good);
  ASSERT_TRUE(good_hit.has_value());
  EXPECT_TRUE(*good_hit);

  // Both verdicts survive side by side.
  EXPECT_FALSE(*memo.lookup(bad));
  EXPECT_TRUE(*memo.lookup(good));
  EXPECT_EQ(memo.size(), 2u);
}

// Key fields must not blur into each other: shifting a byte across the
// message/sig boundary or changing the signer is a different key.
TEST_F(SigBatchTest, MemoKeysFieldBoundaries) {
  VerdictMemo memo;
  Bytes m_ab = bytes_of("ab"), m_a = bytes_of("a");
  Bytes s_c = bytes_of("c"), s_bc = bytes_of("bc");
  memo.store(SigBatchEntry{1, BytesView(m_ab), BytesView(s_c)}, true);
  EXPECT_FALSE(
      memo.lookup(SigBatchEntry{1, BytesView(m_a), BytesView(s_bc)}).has_value());
  EXPECT_FALSE(
      memo.lookup(SigBatchEntry{2, BytesView(m_ab), BytesView(s_c)}).has_value());
}

// Election keys (id, seed, proof) keep the same field discipline: a key
// differing only in id, only in seed, or by a byte shifted across the
// seed/proof boundary gets its own verdict.
TEST(VerdictMemo, ElectionKeysSeparateIdSeedAndProof) {
  VerdictMemo memo;
  Bytes p_c = bytes_of("c"), p_bc = bytes_of("bc");
  const ElectionCheck base{"ab", 1, BytesView(p_c)};
  const ElectionCheck other_id{"ab", 2, BytesView(p_c)};
  const ElectionCheck other_seed{"ax", 1, BytesView(p_c)};
  const ElectionCheck shifted{"a", 1, BytesView(p_bc)};
  memo.store(base, true);
  EXPECT_FALSE(memo.lookup(other_id).has_value());
  EXPECT_FALSE(memo.lookup(other_seed).has_value());
  EXPECT_FALSE(memo.lookup(shifted).has_value());
  memo.store(other_id, false);
  memo.store(other_seed, false);
  memo.store(shifted, false);
  EXPECT_EQ(memo.size(), 4u);
  EXPECT_TRUE(*memo.lookup(base));
  EXPECT_FALSE(*memo.lookup(other_id));
  EXPECT_FALSE(*memo.lookup(other_seed));
  EXPECT_FALSE(*memo.lookup(shifted));
}

TEST_F(SigBatchTest, MemoRestoreOverwrites) {
  VerdictMemo memo;
  Bytes m = bytes_of("m");
  Bytes s = signer_.sign(0, m);
  SigBatchEntry e = entry(0, m, s);
  memo.store(e, false);
  memo.store(e, true);  // re-store wins, no duplicate row
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(*memo.lookup(e));
}

class BatchVerifierSigTest : public SigBatchTest {
 protected:
  BatchVerifierSigTest()
      : batcher_(coin::BatchVerifier::Config{
            std::make_shared<FastVrf>(registry_), nullptr,
            std::make_shared<Signer>(registry_)}) {}

  coin::BatchVerifier batcher_;
};

// check_signature shares one memo across calls: the first call
// verifies, repeats answer without re-verifying, and the verdict matches
// the oracle either way.
TEST_F(BatchVerifierSigTest, CheckSignatureSharesTheMemo) {
  Bytes m = bytes_of("ba|echo|0");
  Bytes s = signer_.sign(2, m);
  SigBatchEntry e = entry(2, m, s);
  EXPECT_TRUE(batcher_.check_signature(e));
  EXPECT_EQ(batcher_.sig_memo().misses(), 1u);
  EXPECT_TRUE(batcher_.check_signature(e));
  EXPECT_GE(batcher_.sig_memo().hits(), 1u);
}

}  // namespace
}  // namespace coincidence::crypto
