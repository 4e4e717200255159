// Run counters: every scalar total a run reports, in one compile-time
// table. Metrics stores one value per row and renders its JSON totals,
// Prometheus counters and reset from the table, so export order is the
// row order by construction.
//
// Adding a counter = one enum entry and one kCounterTable row here, plus
// one Context::count (protocol side) or Metrics::add (simulator side)
// call where the event happens. The table is compile-time — every
// producer lives in this repo, so nothing needs a runtime registry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace coincidence::sim {

/// One scalar run counter. The order is the export order.
enum class Counter : std::uint8_t {
  // §2 measures and the delivery count.
  kCorrectWords,
  kTotalWords,
  kMessagesSent,
  kDeliveries,
  kDuration,  // max causal depth over decisions: a gauge, not a sum
  // Lossy links (sim/link.h) and transports (net/reliable_channel.h).
  kLinkDrops,
  kLinkDroppedWords,
  kLinkDuplicates,
  kLinkReplays,
  kRetransmits,
  kRetransmitWords,
  kDeadLetters,
  kDeadLetterWords,
  // Deferred coin-share verification (coin/verify_queue.h).
  kVerifyFlushes,
  kVerifyShares,
  kVerifyRejects,
  kVerifyMemoHits,
  // Ok-proof entry signatures the approver checked (entries not reused).
  kSigVerifySigs,
  kSigVerifyRejects,
  kSigVerifyMemoHits,
  kOkEntriesReused,  // ok-proof entries accepted by byte compare
  // Erasure-coded dissemination (ba/rbc_ec.h).
  kRbcEncodes,
  kRbcFragmentsEncoded,
  kRbcDecodes,
  kRbcFragmentsDecoded,
  kRbcDecodeFailures,
  // Chaos orchestration (sim/chaos.h).
  kPartitionHeld,
  kPartitionHeldWords,
  kPartitionDropped,
  kPartitionDroppedWords,
  kPartitionReleased,
  kStormCopies,
  kChurnCrashes,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kChurnCrashes) + 1;

/// How a counter appears in the Prometheus export.
enum class PromType : std::uint8_t {
  kNone,     // JSON only
  kCounter,  // coincidence_<key>_total
  kGauge,    // coincidence_<key>_causal_depth (duration is the only gauge)
};

struct CounterInfo {
  Counter id;
  std::string_view key;  // JSON key, and the Prometheus name's stem
  PromType prom;
};

inline constexpr std::array<CounterInfo, kCounterCount> kCounterTable{{
    {Counter::kCorrectWords, "correct_words", PromType::kCounter},
    {Counter::kTotalWords, "total_words", PromType::kCounter},
    {Counter::kMessagesSent, "messages_sent", PromType::kCounter},
    {Counter::kDeliveries, "deliveries", PromType::kCounter},
    {Counter::kDuration, "duration", PromType::kGauge},
    {Counter::kLinkDrops, "link_drops", PromType::kCounter},
    {Counter::kLinkDroppedWords, "link_dropped_words", PromType::kNone},
    {Counter::kLinkDuplicates, "link_duplicates", PromType::kCounter},
    {Counter::kLinkReplays, "link_replays", PromType::kCounter},
    {Counter::kRetransmits, "retransmits", PromType::kCounter},
    {Counter::kRetransmitWords, "retransmit_words", PromType::kNone},
    {Counter::kDeadLetters, "dead_letters", PromType::kCounter},
    {Counter::kDeadLetterWords, "dead_letter_words", PromType::kCounter},
    {Counter::kVerifyFlushes, "verify_flushes", PromType::kCounter},
    {Counter::kVerifyShares, "verify_shares", PromType::kCounter},
    {Counter::kVerifyRejects, "verify_rejects", PromType::kCounter},
    {Counter::kVerifyMemoHits, "verify_memo_hits", PromType::kCounter},
    {Counter::kSigVerifySigs, "sig_verify_sigs", PromType::kCounter},
    {Counter::kSigVerifyRejects, "sig_verify_rejects", PromType::kCounter},
    {Counter::kSigVerifyMemoHits, "sig_verify_memo_hits", PromType::kCounter},
    {Counter::kOkEntriesReused, "ok_entries_reused", PromType::kCounter},
    {Counter::kRbcEncodes, "rbc_encodes", PromType::kCounter},
    {Counter::kRbcFragmentsEncoded, "rbc_fragments_encoded",
     PromType::kCounter},
    {Counter::kRbcDecodes, "rbc_decodes", PromType::kCounter},
    {Counter::kRbcFragmentsDecoded, "rbc_fragments_decoded",
     PromType::kCounter},
    {Counter::kRbcDecodeFailures, "rbc_decode_failures", PromType::kCounter},
    {Counter::kPartitionHeld, "partition_held", PromType::kCounter},
    {Counter::kPartitionHeldWords, "partition_held_words", PromType::kNone},
    {Counter::kPartitionDropped, "partition_dropped", PromType::kCounter},
    {Counter::kPartitionDroppedWords, "partition_dropped_words",
     PromType::kNone},
    {Counter::kPartitionReleased, "partition_released", PromType::kCounter},
    {Counter::kStormCopies, "storm_copies", PromType::kCounter},
    {Counter::kChurnCrashes, "churn_crashes", PromType::kCounter},
}};

/// Every row sits at its enum's index, so kCounterTable[c] describes c.
constexpr bool counter_table_is_indexed() {
  for (std::size_t i = 0; i < kCounterCount; ++i)
    if (static_cast<std::size_t>(kCounterTable[i].id) != i) return false;
  return true;
}
static_assert(counter_table_is_indexed(),
              "kCounterTable rows must follow the Counter enum order");

/// One value per Counter — a Metrics snapshot, as RunReport carries it.
class CounterValues {
 public:
  std::uint64_t& operator[](Counter c) {
    return values_[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](Counter c) const {
    return values_[static_cast<std::size_t>(c)];
  }

 private:
  std::array<std::uint64_t, kCounterCount> values_{};
};

}  // namespace coincidence::sim
