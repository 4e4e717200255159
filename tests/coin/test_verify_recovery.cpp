// Deferred verification (coin/verify_queue.h) under crash-recovery and
// re-delivery — the ISSUE satellites around the BatchVerifier:
//
//  * Queue-ledger conservation: enqueued == batch_flushed + discarded on
//    every run. A crash-recovery destroys the live coin's pending queue
//    (settled as discarded-unverified) and a share re-delivered into a
//    retired round must NOT re-enter a fresh PendingVerifyQueue — either
//    failure mode breaks the ledger, so the equality is the regression
//    oracle.
//  * Verdict stability: re-delivered shares hit the verified-share memo
//    or re-verify to the same verdict; deferring verification changes no
//    decision, word or message count even under crash-recovery + replay
//    links (bit-identical to the inline-verification run).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "committee/params.h"
#include "core/runner.h"
#include "sim/link.h"

namespace coincidence::core {
namespace {

using sim::Counter;
using sim::LinkPlan;
using sim::NetworkProfile;

RunOptions recovery_options(Protocol protocol, std::size_t n,
                            std::uint64_t seed) {
  RunOptions o;
  o.protocol = protocol;
  o.n = n;
  o.seed = seed;
  o.check_invariants = true;
  o.inputs.assign(n, seed % 2 ? ba::kOne : ba::kZero);
  o.expected_decision = static_cast<int>(seed % 2);
  o.crash_recover = 1;
  o.recover_after = 32 * n;  // restart lands mid-protocol, not post-run
  return o;
}

void expect_ledger_balanced(const RunReport& r, const std::string& label) {
  EXPECT_EQ(r.verify_enqueued, r.verify_batch_flushed + r.verify_discarded)
      << label << ": enqueued=" << r.verify_enqueued
      << " flushed=" << r.verify_batch_flushed
      << " discarded=" << r.verify_discarded;
}

// The approver checks every <ok> on arrival. In a run that rejects no
// signature, every ok that reaches its checks is applied, and each of its
// W entries was either reused from the replica's table or signature-
// checked: the two counters sum to W per applied ok.
void expect_ok_entries_accounted(const RunOptions& o, const RunReport& r,
                                 const std::string& label) {
  const std::uint64_t W =
      committee::Params::derive(o.n, o.epsilon, o.d, o.strict_params).W;
  const std::uint64_t entries = r.counters[Counter::kSigVerifySigs] +
                                r.counters[Counter::kOkEntriesReused];
  EXPECT_EQ(r.counters[Counter::kSigVerifyRejects], 0u) << label;
  EXPECT_GT(entries, 0u) << label;
  EXPECT_EQ(entries % W, 0u) << label << ": entries=" << entries;
}

// The conservation law across a spread of crash-recover runs on both
// VRF-backed protocols. Every deferred share is eventually flushed to
// the batch verifier or explicitly settled as discarded-unverified when
// its round retires — recovery neither loses nor double-counts.
TEST(VerifyRecovery, QueueLedgerBalancesAcrossCrashRecovery) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunOptions o = recovery_options(Protocol::kMmrSharedCoin, 4, seed);
    RunReport r = run_agreement(o);
    const std::string label = "mmr-vrf-coin/seed=" + std::to_string(seed);
    expect_ledger_balanced(r, label);
    EXPECT_TRUE(r.invariant_violations.empty()) << label;
    EXPECT_GT(r.verify_enqueued, 0u) << label;  // deferral actually ran
  }
  RunOptions o = recovery_options(Protocol::kBaWhp, 32, 3);
  RunReport r = run_agreement(o);
  expect_ledger_balanced(r, "ba-whp/seed=3");
  EXPECT_TRUE(r.invariant_violations.empty());
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_GT(r.verify_enqueued, 0u);
}

// A crash-recovery landing in a retired round must not re-admit stale
// shares: replay-heavy links re-deliver pre-crash coin shares after the
// restart, and each one must either hit the verified-share memo or be
// dropped by the round gate — never enqueue into a fresh queue for a
// finished round. The balanced ledger plus a clean invariant slate is
// exactly that assertion, made on a link profile built to re-deliver.
TEST(VerifyRecovery, RedeliveredSharesAfterRecoveryKeepLedgerExact) {
  LinkPlan noisy;
  noisy.dup_p = 0.4;
  noisy.max_duplicates = 2;
  noisy.replay_p = 0.3;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    RunOptions o = recovery_options(Protocol::kMmrSharedCoin, 4, seed);
    o.network = NetworkProfile::uniform(noisy);
    RunReport r = run_agreement(o);
    const std::string label = "redelivery/seed=" + std::to_string(seed);
    expect_ledger_balanced(r, label);
    EXPECT_TRUE(r.invariant_violations.empty()) << label;
    EXPECT_TRUE(r.agreement) << label;
  }
}

// Verdict stability: deferring verification must change nothing but the
// verify_* counters, even when a crash-recovery and a replaying link
// conspire to re-deliver shares into restarted state. Decisions, rounds,
// words and messages are bit-identical to the inline-verification run,
// and no honest share is ever rejected on either path.
TEST(VerifyRecovery, DeferredVerdictsMatchInlineUnderCrashRecovery) {
  LinkPlan noisy;
  noisy.dup_p = 0.5;
  noisy.max_duplicates = 2;
  noisy.replay_p = 0.3;
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    RunOptions deferred = recovery_options(Protocol::kMmrWhpCoin, 32, seed);
    deferred.network = NetworkProfile::uniform(noisy);
    RunOptions inline_verify = deferred;
    inline_verify.defer_verify = false;

    RunReport a = run_agreement(deferred);
    RunReport b = run_agreement(inline_verify);
    const std::string label = "verdicts/seed=" + std::to_string(seed);

    EXPECT_EQ(a.all_correct_decided, b.all_correct_decided) << label;
    EXPECT_EQ(a.decision, b.decision) << label;
    EXPECT_EQ(a.max_decided_round, b.max_decided_round) << label;
    EXPECT_EQ(a.correct_words, b.correct_words) << label;
    EXPECT_EQ(a.messages, b.messages) << label;
    EXPECT_EQ(a.words_by_tag, b.words_by_tag) << label;

    // The deferred run really deferred; the inline run really didn't.
    EXPECT_GT(a.verify_enqueued, 0u) << label;
    EXPECT_EQ(b.verify_enqueued, 0u) << label;
    expect_ledger_balanced(a, label);
    // Honest shares re-delivered verbatim answer from the memo (or
    // re-verify to the same accepting verdict): zero rejects on both
    // paths is the "verdicts bit-identical" claim in counter form.
    EXPECT_EQ(a.counters[Counter::kVerifyRejects], 0u) << label;
    EXPECT_EQ(b.counters[Counter::kVerifyRejects], 0u) << label;
    EXPECT_GT(a.counters[Counter::kVerifyMemoHits], 0u) << label;
  }
}

// The ledger law with ba-whp's approvers in the run: their ok-proof
// checks run on arrival, outside the coins' share queues, so a
// crash-recovery that destroys an approver leaves nothing pending and
// the ledger still balances. The signature plane must actually have run:
// every applied ok's W entries were reused or signature-checked, and the
// run-wide memo collapsed repeated checks.
TEST(VerifyRecovery, SignatureLedgerBalancesAcrossCrashRecovery) {
  for (std::uint64_t seed : {3ULL, 11ULL}) {
    RunOptions o = recovery_options(Protocol::kBaWhp, 32, seed);
    RunReport r = run_agreement(o);
    const std::string label = "ba-whp-sig/seed=" + std::to_string(seed);
    expect_ledger_balanced(r, label);
    EXPECT_TRUE(r.invariant_violations.empty()) << label;
    EXPECT_TRUE(r.all_correct_decided) << label;
    // Honest-only run: every ok is accounted for and none is rejected.
    expect_ok_entries_accounted(o, r, label);
    // Every ok embeds the SAME W signed echoes, and echo-phase checks
    // share the memo, so hits dominate (each broadcast triple verifies
    // ~once run-wide).
    EXPECT_GT(r.sig_memo_hits * 2, r.sig_checks) << label;
  }
}

// Memoized vs direct signature verdicts stay bit-identical for ba-whp
// even when crash-recovery replays the approver mid-protocol: decision,
// rounds, words and messages match the inline-verification run exactly.
// Both runs check oks on the one path, so they reuse and check the same
// entries; only the memoized run answers any of them from the memo.
TEST(VerifyRecovery, BaWhpDeferredSigVerdictsMatchInlineUnderRecovery) {
  for (std::uint64_t seed : {5ULL, 8ULL}) {
    RunOptions deferred = recovery_options(Protocol::kBaWhp, 32, seed);
    RunOptions inline_verify = deferred;
    inline_verify.defer_verify = false;

    RunReport a = run_agreement(deferred);
    RunReport b = run_agreement(inline_verify);
    const std::string label = "ba-whp-verdicts/seed=" + std::to_string(seed);

    EXPECT_EQ(a.all_correct_decided, b.all_correct_decided) << label;
    EXPECT_EQ(a.decision, b.decision) << label;
    EXPECT_EQ(a.max_decided_round, b.max_decided_round) << label;
    EXPECT_EQ(a.correct_words, b.correct_words) << label;
    EXPECT_EQ(a.messages, b.messages) << label;
    EXPECT_EQ(a.words_by_tag, b.words_by_tag) << label;

    expect_ok_entries_accounted(deferred, a, label);
    for (Counter c : {Counter::kSigVerifySigs, Counter::kSigVerifyRejects,
                      Counter::kOkEntriesReused})
      EXPECT_EQ(a.counters[c], b.counters[c]) << label;
    EXPECT_EQ(b.counters[Counter::kSigVerifyMemoHits], 0u) << label;
    expect_ledger_balanced(a, label);
  }
}

// Same-seed determinism of the ledger itself: two identical crash-recover
// runs produce identical verify counters (the queue is on the delivery
// clock, not wall clock).
TEST(VerifyRecovery, LedgerCountersAreSeedDeterministic) {
  RunOptions o = recovery_options(Protocol::kMmrSharedCoin, 4, 9);
  RunReport a = run_agreement(o);
  RunReport b = run_agreement(o);
  EXPECT_EQ(a.verify_enqueued, b.verify_enqueued);
  EXPECT_EQ(a.verify_batch_flushed, b.verify_batch_flushed);
  EXPECT_EQ(a.verify_discarded, b.verify_discarded);
  EXPECT_EQ(a.counters[Counter::kVerifyFlushes],
            b.counters[Counter::kVerifyFlushes]);
  EXPECT_EQ(a.counters[Counter::kVerifyMemoHits],
            b.counters[Counter::kVerifyMemoHits]);
}

}  // namespace
}  // namespace coincidence::core
