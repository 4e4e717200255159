#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

namespace coincidence::sim {
namespace {

Message msg(std::string tag, std::size_t words) {
  Message m;
  m.tag = std::move(tag);
  m.words = words;
  return m;
}

TEST(Metrics, CorrectVsTotalWords) {
  Metrics m;
  m.record_send(msg("a/first", 2), true);
  m.record_send(msg("a/first", 2), false);  // Byzantine sender
  EXPECT_EQ(m.correct_words(), 2u);
  EXPECT_EQ(m.counter(Counter::kTotalWords), 4u);
  EXPECT_EQ(m.messages_sent(), 2u);
}

TEST(Metrics, BucketsByLastTagComponent) {
  Metrics m;
  m.record_send(msg("ba/3/coin/first", 2), true);
  m.record_send(msg("ba/4/coin/first", 3), true);
  m.record_send(msg("ba/3/a1/init", 1), true);
  m.record_send(msg("plain", 5), true);
  const auto& buckets = m.words_by_tag();
  EXPECT_EQ(buckets.at("first"), 5u);
  EXPECT_EQ(buckets.at("init"), 1u);
  EXPECT_EQ(buckets.at("plain"), 5u);
}

TEST(Metrics, ByzantineWordsNotBucketed) {
  Metrics m;
  m.record_send(msg("x/echo", 3), false);
  EXPECT_TRUE(m.words_by_tag().empty());
}

TEST(Metrics, DecisionDepthTracksMaximum) {
  Metrics m;
  m.record_decision_depth(5);
  m.record_decision_depth(3);
  m.record_decision_depth(9);
  EXPECT_EQ(m.counter(Counter::kDuration), 9u);
}

TEST(Metrics, DeliveriesCounted) {
  Metrics m;
  m.record_delivery();
  m.record_delivery();
  EXPECT_EQ(m.counter(Counter::kDeliveries), 2u);
}

TEST(Metrics, PhaseOfTagWildcardsNumericComponents) {
  EXPECT_EQ(phase_of_tag("ba/3/coin/first"), "ba/*/coin/first");
  EXPECT_EQ(phase_of_tag("ba/12/a1/init"), "ba/*/a1/init");
  EXPECT_EQ(phase_of_tag("plain"), "plain");
  EXPECT_EQ(phase_of_tag("7"), "*");
  EXPECT_EQ(phase_of_tag("rbc/0/echo"), "rbc/*/echo");
  EXPECT_EQ(phase_of_tag("a/b2/c"), "a/b2/c");  // mixed digits stay put
}

TEST(Metrics, RoundOfTagReadsFirstNumericComponent) {
  EXPECT_EQ(round_of_tag("ba/3/coin/first"), 3u);
  EXPECT_EQ(round_of_tag("mmr/17/aux"), 17u);
  EXPECT_EQ(round_of_tag("plain"), std::nullopt);
  EXPECT_EQ(round_of_tag("a/b/c"), std::nullopt);
  EXPECT_EQ(round_of_tag("0/x"), 0u);
}

TEST(Metrics, WordsByPhasePartitionsCorrectWordsExactly) {
  Metrics m;
  m.record_send(msg("ba/1/coin/first", 3), true);
  m.record_send(msg("ba/2/coin/first", 4), true);  // same phase, new round
  m.record_send(msg("ba/1/a1/init", 2), true);
  m.record_send(msg("plain", 5), true);
  m.record_send(msg("ba/1/coin/first", 100), false);  // Byzantine: excluded
  const auto phases = m.words_by_phase();
  EXPECT_EQ(phases.at("ba/*/coin/first"), 7u);
  EXPECT_EQ(phases.at("ba/*/a1/init"), 2u);
  EXPECT_EQ(phases.at("plain"), 5u);
  std::uint64_t phase_sum = 0;
  for (const auto& [k, v] : phases) phase_sum += v;
  EXPECT_EQ(phase_sum, m.correct_words());

  const auto rounds = m.words_by_round();
  EXPECT_EQ(rounds.at(1), 5u);
  EXPECT_EQ(rounds.at(2), 4u);
  EXPECT_EQ(rounds.at(UINT64_MAX), 5u);  // "plain" has no round component
  std::uint64_t round_sum = 0;
  for (const auto& [k, v] : rounds) round_sum += v;
  EXPECT_EQ(round_sum, m.correct_words());
}

TEST(Metrics, DetailOffRecordsNoHistograms) {
  Metrics m;
  EXPECT_FALSE(m.detail_enabled());
  m.record_send(msg("a/b", 4), true);
  m.record_delivery(msg("a/b", 4), /*latency=*/9);
  EXPECT_TRUE(m.by_tag().empty());
  EXPECT_TRUE(m.by_phase().empty());
  // Headline counters are unaffected.
  EXPECT_EQ(m.counter(Counter::kDeliveries), 1u);
}

TEST(Metrics, DetailHistogramsTrackWordsDepthLatency) {
  Metrics m;
  m.enable_detail();
  Message sent = msg("ba/1/coin/first", 3);
  sent.causal_depth = 5;
  m.record_send(sent, true);
  m.record_delivery(sent, /*latency=*/17);
  m.record_send(msg("ba/2/coin/first", 4), true);

  const auto tags = m.by_tag();
  ASSERT_TRUE(tags.count("ba/1/coin/first"));
  const auto& row = tags.at("ba/1/coin/first");
  EXPECT_EQ(row.messages, 1u);
  EXPECT_EQ(row.correct_words, 3u);
  EXPECT_EQ(row.words.total(), 1u);
  EXPECT_EQ(row.depth.max(), 5u);
  EXPECT_EQ(row.latency.sum(), 17u);

  // Phase rollup merges the two rounds of the same phase.
  const auto phases = m.by_phase();
  ASSERT_TRUE(phases.count("ba/*/coin/first"));
  EXPECT_EQ(phases.at("ba/*/coin/first").messages, 2u);
  EXPECT_EQ(phases.at("ba/*/coin/first").correct_words, 7u);
}

TEST(Metrics, RecordDecideFeedsDurationAndRoundsHistogram) {
  Metrics m;
  m.record_decide(/*round=*/3, /*depth=*/9);
  m.record_decide(/*round=*/3, /*depth=*/4);
  m.record_decide(/*round=*/5, /*depth=*/2);
  EXPECT_EQ(m.counter(Counter::kDuration), 9u);
  EXPECT_EQ(m.decide_rounds().total(), 3u);
  EXPECT_EQ(m.decide_rounds().count(3), 2u);
  EXPECT_EQ(m.decide_rounds().count(5), 1u);
}

TEST(Metrics, DeadLettersAlwaysAccounted) {
  Metrics m;  // detail off: dead letters must be counted regardless
  m.add(Counter::kDeadLetters, 2);
  m.add(Counter::kDeadLetterWords, 7);
  EXPECT_EQ(m.counter(Counter::kDeadLetters), 2u);
  EXPECT_EQ(m.counter(Counter::kDeadLetterWords), 7u);
}

TEST(Metrics, JsonAndPrometheusExportsAreDeterministic) {
  // Drives every scalar counter to a distinct non-zero value, so a
  // renamed, reordered or swapped key changes the pinned text below.
  auto build = [] {
    Metrics m;
    m.enable_detail();
    Message a = msg("ba/1/coin/first", 61);
    a.causal_depth = 2;
    m.record_send(a, true);
    m.record_delivery(a, 6);
    m.record_send(msg("ba/1/a1/init", 62), true);
    for (int i = 0; i < 20; ++i) m.record_send(msg("x/echo", 3), false);
    Message r = msg("ba/1/a1/init", 50);
    r.retransmit = true;
    for (int i = 0; i < 2; ++i) m.record_send(r, true);
    for (int i = 0; i < 18; ++i) m.record_delivery();
    m.record_decide(1, 4);
    m.record_decide(3, 41);
    m.add(Counter::kLinkDrops, 3);
    m.add(Counter::kLinkDroppedWords, 120);
    m.add(Counter::kLinkDuplicates, 4);
    m.add(Counter::kLinkReplays, 5);
    m.add(Counter::kDeadLetters, 6);
    m.add(Counter::kDeadLetterWords, 180);
    m.add(Counter::kVerifyFlushes, 7);
    m.add(Counter::kVerifyShares, 203);
    m.add(Counter::kVerifyRejects, 21);
    m.add(Counter::kVerifyMemoHits, 35);
    m.add(Counter::kSigVerifyFlushes, 8);
    m.add(Counter::kSigVerifySigs, 248);
    m.add(Counter::kSigVerifyRejects, 16);
    m.add(Counter::kSigVerifyMemoHits, 72);
    m.add(Counter::kRbcEncodes, 9);
    m.add(Counter::kRbcFragmentsEncoded, 117);
    m.add(Counter::kRbcDecodes, 12);
    m.add(Counter::kRbcFragmentsDecoded, 228);
    m.add(Counter::kRbcDecodeFailures, 11);
    m.add(Counter::kPartitionHeld, 13);
    m.add(Counter::kPartitionHeldWords, 299);
    m.add(Counter::kPartitionDropped, 14);
    m.add(Counter::kPartitionDroppedWords, 518);
    m.add(Counter::kPartitionReleased, 15);
    m.add(Counter::kStormCopies, 17);
    m.add(Counter::kChurnCrashes, 18);
    return m;
  };
  std::ostringstream ja, jb, pa, pb;
  build().to_json(ja);
  build().to_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ja.str(),
      "{\"totals\":{\"correct_words\":123,\"total_words\":283"
      ",\"messages_sent\":24,\"deliveries\":19,\"duration\":41"
      ",\"link_drops\":3,\"link_dropped_words\":120,\"link_duplicates\":4"
      ",\"link_replays\":5,\"retransmits\":2,\"retransmit_words\":100"
      ",\"dead_letters\":6,\"dead_letter_words\":180,\"verify_flushes\":7"
      ",\"verify_shares\":203,\"verify_rejects\":21"
      ",\"verify_memo_hits\":35,\"sig_verify_flushes\":8"
      ",\"sig_verify_sigs\":248,\"sig_verify_rejects\":16"
      ",\"sig_verify_memo_hits\":72,\"rbc_encodes\":9"
      ",\"rbc_fragments_encoded\":117,\"rbc_decodes\":12"
      ",\"rbc_fragments_decoded\":228,\"rbc_decode_failures\":11"
      ",\"partition_held\":13,\"partition_held_words\":299"
      ",\"partition_dropped\":14,\"partition_dropped_words\":518"
      ",\"partition_released\":15,\"storm_copies\":17"
      ",\"churn_crashes\":18},\"decide_rounds\":\"1:1 3:1\""
      ",\"words_by_phase\":{\"ba/*/a1/init\":62,\"ba/*/coin/first\":61}"
      ",\"words_by_round\":{\"1\":123}"
      ",\"phases\":[{\"phase\":\"ba/*/a1/init\",\"messages\":1"
      ",\"correct_words\":62,\"words\":{\"total\":1,\"sum\":62,\"max\":62"
      ",\"buckets\":[[6,1]]},\"depth\":{\"total\":0,\"sum\":0,\"max\":0"
      ",\"buckets\":[]},\"latency\":{\"total\":0,\"sum\":0,\"max\":0"
      ",\"buckets\":[]}},{\"phase\":\"ba/*/coin/first\",\"messages\":1"
      ",\"correct_words\":61,\"words\":{\"total\":1,\"sum\":61,\"max\":61"
      ",\"buckets\":[[6,1]]},\"depth\":{\"total\":1,\"sum\":2,\"max\":2"
      ",\"buckets\":[[2,1]]},\"latency\":{\"total\":1,\"sum\":6,\"max\":6"
      ",\"buckets\":[[3,1]]}}]}");
  build().to_prometheus(pa);
  build().to_prometheus(pb);
  EXPECT_EQ(pa.str(), pb.str());
  EXPECT_EQ(pa.str(),
      "# TYPE coincidence_correct_words_total counter\n"
      "coincidence_correct_words_total 123\n"
      "# TYPE coincidence_total_words_total counter\n"
      "coincidence_total_words_total 283\n"
      "# TYPE coincidence_messages_sent_total counter\n"
      "coincidence_messages_sent_total 24\n"
      "# TYPE coincidence_deliveries_total counter\n"
      "coincidence_deliveries_total 19\n"
      "# TYPE coincidence_duration_causal_depth gauge\n"
      "coincidence_duration_causal_depth 41\n"
      "# TYPE coincidence_link_drops_total counter\n"
      "coincidence_link_drops_total 3\n"
      "# TYPE coincidence_link_duplicates_total counter\n"
      "coincidence_link_duplicates_total 4\n"
      "# TYPE coincidence_link_replays_total counter\n"
      "coincidence_link_replays_total 5\n"
      "# TYPE coincidence_retransmits_total counter\n"
      "coincidence_retransmits_total 2\n"
      "# TYPE coincidence_dead_letters_total counter\n"
      "coincidence_dead_letters_total 6\n"
      "# TYPE coincidence_dead_letter_words_total counter\n"
      "coincidence_dead_letter_words_total 180\n"
      "# TYPE coincidence_verify_flushes_total counter\n"
      "coincidence_verify_flushes_total 7\n"
      "# TYPE coincidence_verify_shares_total counter\n"
      "coincidence_verify_shares_total 203\n"
      "# TYPE coincidence_verify_rejects_total counter\n"
      "coincidence_verify_rejects_total 21\n"
      "# TYPE coincidence_verify_memo_hits_total counter\n"
      "coincidence_verify_memo_hits_total 35\n"
      "# TYPE coincidence_sig_verify_flushes_total counter\n"
      "coincidence_sig_verify_flushes_total 8\n"
      "# TYPE coincidence_sig_verify_sigs_total counter\n"
      "coincidence_sig_verify_sigs_total 248\n"
      "# TYPE coincidence_sig_verify_rejects_total counter\n"
      "coincidence_sig_verify_rejects_total 16\n"
      "# TYPE coincidence_sig_verify_memo_hits_total counter\n"
      "coincidence_sig_verify_memo_hits_total 72\n"
      "# TYPE coincidence_rbc_encodes_total counter\n"
      "coincidence_rbc_encodes_total 9\n"
      "# TYPE coincidence_rbc_fragments_encoded_total counter\n"
      "coincidence_rbc_fragments_encoded_total 117\n"
      "# TYPE coincidence_rbc_decodes_total counter\n"
      "coincidence_rbc_decodes_total 12\n"
      "# TYPE coincidence_rbc_fragments_decoded_total counter\n"
      "coincidence_rbc_fragments_decoded_total 228\n"
      "# TYPE coincidence_rbc_decode_failures_total counter\n"
      "coincidence_rbc_decode_failures_total 11\n"
      "# TYPE coincidence_partition_held_total counter\n"
      "coincidence_partition_held_total 13\n"
      "# TYPE coincidence_partition_dropped_total counter\n"
      "coincidence_partition_dropped_total 14\n"
      "# TYPE coincidence_partition_released_total counter\n"
      "coincidence_partition_released_total 15\n"
      "# TYPE coincidence_storm_copies_total counter\n"
      "coincidence_storm_copies_total 17\n"
      "# TYPE coincidence_churn_crashes_total counter\n"
      "coincidence_churn_crashes_total 18\n"
      "# TYPE coincidence_phase_words_total counter\n"
      "coincidence_phase_words_total{phase=\"ba/*/a1/init\"} 62\n"
      "coincidence_phase_words_total{phase=\"ba/*/coin/first\"} 61\n"
      "# TYPE coincidence_phase_depth histogram\n"
      "coincidence_phase_depth_bucket{phase=\"ba/*/a1/init\",le=\"+Inf\"} 0\n"
      "coincidence_phase_depth_sum{phase=\"ba/*/a1/init\"} 0\n"
      "coincidence_phase_depth_count{phase=\"ba/*/a1/init\"} 0\n"
      "coincidence_phase_depth_bucket{phase=\"ba/*/coin/first\",le=\"3\"} 1\n"
      "coincidence_phase_depth_bucket{phase=\"ba/*/coin/first\",le=\"+Inf\"} 1\n"
      "coincidence_phase_depth_sum{phase=\"ba/*/coin/first\"} 2\n"
      "coincidence_phase_depth_count{phase=\"ba/*/coin/first\"} 1\n"
      "# TYPE coincidence_phase_latency_deliveries histogram\n"
      "coincidence_phase_latency_deliveries_bucket{phase=\"ba/*/a1/init\",le=\"+Inf\"} 0\n"
      "coincidence_phase_latency_deliveries_sum{phase=\"ba/*/a1/init\"} 0\n"
      "coincidence_phase_latency_deliveries_count{phase=\"ba/*/a1/init\"} 0\n"
      "coincidence_phase_latency_deliveries_bucket{phase=\"ba/*/coin/first\",le=\"7\"} 1\n"
      "coincidence_phase_latency_deliveries_bucket{phase=\"ba/*/coin/first\",le=\"+Inf\"} 1\n"
      "coincidence_phase_latency_deliveries_sum{phase=\"ba/*/coin/first\"} 6\n"
      "coincidence_phase_latency_deliveries_count{phase=\"ba/*/coin/first\"} 1\n");
}

TEST(Metrics, ResetClearsTelemetryState) {
  Metrics m;
  m.enable_detail();
  Message a = msg("x/1/echo", 4);
  m.record_send(a, true);
  m.record_delivery(a, 3);
  m.record_decide(2, 7);
  m.add(Counter::kDeadLetters, 1);
  m.add(Counter::kDeadLetterWords, 1);
  m.reset();
  EXPECT_TRUE(m.by_tag().empty());
  EXPECT_TRUE(m.words_by_phase().empty());
  EXPECT_EQ(m.decide_rounds().total(), 0u);
  EXPECT_EQ(m.counter(Counter::kDeadLetters), 0u);
  EXPECT_EQ(m.counter(Counter::kDeadLetterWords), 0u);
}

TEST(Metrics, ResetClearsEverything) {
  Metrics m;
  m.record_send(msg("a/b", 4), true);
  m.record_delivery();
  m.record_decision_depth(7);
  m.reset();
  EXPECT_EQ(m.correct_words(), 0u);
  EXPECT_EQ(m.counter(Counter::kTotalWords), 0u);
  EXPECT_EQ(m.messages_sent(), 0u);
  EXPECT_EQ(m.counter(Counter::kDeliveries), 0u);
  EXPECT_EQ(m.counter(Counter::kDuration), 0u);
  EXPECT_TRUE(m.words_by_tag().empty());
}

}  // namespace
}  // namespace coincidence::sim
