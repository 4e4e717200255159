// Batched + memoized signature verification (the approver ok-path
// tentpole): Signer::batch_verify must agree entry-for-entry with the
// single-shot verify() oracle, and VerdictMemo must cache verdicts by the
// FULL (signer, message, sig) triple — a forged signature caches its own
// negative verdict without poisoning the honest pair, because the honest
// signature is a different key.
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

TEST_F(SigBatchTest, EmptyBatchProducesEmptyOutput) {
  std::vector<char> out(3, 1);  // stale garbage must be cleared
  signer_.batch_verify({}, out);
  EXPECT_TRUE(out.empty());
}

// The oracle law: out[i] == verify(entries[i]) for every i, across a
// batch mixing valid, tampered, wrong-signer and unknown-signer entries.
TEST_F(SigBatchTest, BatchVerdictsMatchSingleVerifyOracle) {
  Bytes m1 = bytes_of("ba|echo|0");
  Bytes m2 = bytes_of("ba|echo|1");
  Bytes s1 = signer_.sign(1, m1);
  Bytes s2 = signer_.sign(2, m2);
  Bytes tampered = s1;
  tampered[5] ^= 0x40;
  Bytes junk(Signer::kSignatureSize, 0xab);

  std::vector<SigBatchEntry> es = {
      entry(1, m1, s1),        // valid
      entry(2, m1, s1),        // wrong signer
      entry(1, m2, s1),        // wrong message
      entry(1, m1, tampered),  // tampered signature
      entry(99, m1, junk),     // unknown signer
      entry(2, m2, s2),        // valid, different (signer, message)
  };
  std::vector<char> out;
  signer_.batch_verify(es, out);
  ASSERT_EQ(out.size(), es.size());
  for (std::size_t i = 0; i < es.size(); ++i)
    EXPECT_EQ(out[i] != 0, signer_.verify(es[i].signer, es[i].message, es[i].sig))
        << "entry " << i;
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], 0);
  EXPECT_EQ(out[4], 0);
  EXPECT_EQ(out[5], 1);
}

// The approver's W-sweep shape: many signers, ONE message. The re-tag
// amortization (prefix recomputed only when the message changes) must
// not change verdicts.
TEST_F(SigBatchTest, SameMessageManySignersSweep) {
  Bytes msg = bytes_of("ba[0]|echo|1");
  std::vector<Bytes> sigs;
  std::vector<SigBatchEntry> es;
  for (ProcessId id = 0; id < 8; ++id) sigs.push_back(signer_.sign(id, msg));
  for (ProcessId id = 0; id < 8; ++id) es.push_back(entry(id, msg, sigs[id]));
  es.push_back(entry(3, msg, sigs[4]));  // cross-wired: must reject
  std::vector<char> out;
  signer_.batch_verify(es, out);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], 1) << i;
  EXPECT_EQ(out[8], 0);
}

// Alternating messages force the re-tag on every entry — the worst case
// for the amortization bookkeeping.
TEST_F(SigBatchTest, AlternatingMessagesRetagCorrectly) {
  Bytes m1 = bytes_of("alpha");
  Bytes m2 = bytes_of("beta");
  Bytes s11 = signer_.sign(1, m1), s12 = signer_.sign(1, m2);
  std::vector<SigBatchEntry> es = {entry(1, m1, s11), entry(1, m2, s12),
                                   entry(1, m1, s11), entry(1, m2, s11)};
  std::vector<char> out;
  signer_.batch_verify(es, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(out[3], 0);  // m2 signed bytes ≠ s11
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

// verify_signatures must equal the oracle AND collapse repeats: the
// second identical flush answers entirely from the memo (zero HMAC), and
// intra-flush duplicates of one miss reach the signer once.
TEST_F(BatchVerifierSigTest, VerifySignaturesMemoizesAcrossFlushes) {
  Bytes m = bytes_of("echo-proof");
  Bytes good = signer_.sign(5, m);
  Bytes bad = good;
  bad[3] ^= 2;
  std::vector<SigBatchEntry> es = {
      entry(5, m, good), entry(5, m, bad),
      entry(5, m, good),  // intra-flush duplicate of entry 0
  };
  std::vector<char> out;
  auto first = batcher_.verify_signatures(es, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(first.memo_hits, 0u);
  EXPECT_EQ(first.rejects, 1u);
  // Dedup before the signer: 3 entries, 2 unique triples stored.
  EXPECT_EQ(batcher_.sig_memo().size(), 2u);

  auto second = batcher_.verify_signatures(es, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(second.memo_hits, es.size());  // all answered from the memo
  EXPECT_EQ(second.rejects, 1u);           // rejects recount per flush

  EXPECT_EQ(batcher_.sig_batches(), 2u);
  EXPECT_EQ(batcher_.sig_checks(), 2 * es.size());
  EXPECT_EQ(batcher_.sig_rejects(), 2u);
}

// check_signature (the echo fast path) shares the same memo: the first
// call verifies, repeats answer without re-verifying, and the verdict
// matches the oracle either way.
TEST_F(BatchVerifierSigTest, CheckSignatureSharesTheMemo) {
  Bytes m = bytes_of("ba|echo|0");
  Bytes s = signer_.sign(2, m);
  SigBatchEntry e = entry(2, m, s);
  EXPECT_TRUE(batcher_.check_signature(e));
  EXPECT_EQ(batcher_.sig_memo().misses(), 1u);
  EXPECT_TRUE(batcher_.check_signature(e));
  EXPECT_GE(batcher_.sig_memo().hits(), 1u);

  // And a later batch containing the same triple is a pure memo hit.
  std::vector<SigBatchEntry> es = {e};
  std::vector<char> out;
  auto stats = batcher_.verify_signatures(es, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(stats.memo_hits, 1u);
}

}  // namespace
}  // namespace coincidence::crypto
