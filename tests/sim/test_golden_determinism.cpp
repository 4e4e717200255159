// Fixed-seed golden fingerprints.
//
// The zero-copy message plane (TagTable interning + SharedBytes payloads
// + flat-hash containers) must be *bit-for-bit* behaviour-preserving:
// same decisions, same word counts, same per-tag word split, same event
// trace. These tests pin two workloads — a standalone whp_coin flip and
// a ba_whp agreement over duplicating/replaying links — to fingerprint
// strings captured on the pre-refactor tree. Any scheduling, accounting,
// or payload drift changes the string. A third pins the JSONL trace
// bytes, vector clocks and provenance included, of a lossy crash-recover
// run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "ba/ba_whp.h"
#include "coin/coin_protocol.h"
#include "coin/whp_coin.h"
#include "core/env.h"
#include "core/runner.h"
#include "sim/simulation.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

using sim::Counter;

/// FNV-1a over a trace dump — one number pinning its exact bytes.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Canonical one-line-per-field fingerprint of a finished run.
std::string fingerprint(const sim::Simulation& sim,
                        const sim::TraceRecorder& trace,
                        const std::string& decisions) {
  // The compact dump pins the exact event sequence (ids, endpoints, tags,
  // word counts, sender flags), one line per send/deliver/corrupt.
  std::ostringstream dump;
  trace.dump(dump);
  const std::string events = dump.str();
  std::ostringstream os;
  os << "decisions=" << decisions << "\n";
  os << "correct_words=" << sim.metrics().correct_words() << "\n";
  os << "total_words=" << sim.metrics().counter(Counter::kTotalWords) << "\n";
  os << "messages_sent=" << sim.metrics().messages_sent() << "\n";
  os << "deliveries=" << sim.metrics().counter(Counter::kDeliveries) << "\n";
  os << "link_duplicates=" << sim.metrics().counter(Counter::kLinkDuplicates)
     << "\n";
  os << "link_replays=" << sim.metrics().counter(Counter::kLinkReplays) << "\n";
  os << "words_by_tag=";
  for (const auto& [tag, words] : sim.metrics().words_by_tag())
    os << tag << ":" << words << ";";
  os << "\n";
  os << "trace_events=" << std::count(events.begin(), events.end(), '\n')
     << "\n";
  os << "trace_hash=" << fnv1a(events) << "\n";
  return os.str();
}

TEST(GoldenDeterminism, WhpCoinReliableSeed11) {
  const std::size_t n = 40;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/101);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    coin::WhpCoin::Config ccfg;
    ccfg.tag = "coin";
    ccfg.round = 1;
    ccfg.params = env.params;
    ccfg.vrf = env.vrf;
    ccfg.registry = env.registry;
    ccfg.sampler = env.sampler;
    sim.add_process(std::make_unique<coin::CoinHost>(
        std::make_unique<coin::WhpCoin>(std::move(ccfg))));
  }
  sim.start();
  sim.run();

  std::string decisions;
  for (crypto::ProcessId i = 0; i < n; ++i) {
    const auto& coin = dynamic_cast<coin::CoinHost&>(sim.process(i)).coin();
    decisions += coin.done() ? ('0' + coin.output()) : '-';
  }

  // Captured on the pre-refactor tree (PR 2 tip, commit cfe282f).
  const std::string expected =
      "decisions=0000000000000000000000000000000000000000\n"
      "correct_words=6600\n"
      "total_words=6600\n"
      "messages_sent=2200\n"
      "deliveries=2145\n"
      "link_duplicates=0\n"
      "link_replays=0\n"
      "words_by_tag=first:3240;second:3360;\n"
      "trace_events=4345\n"
      "trace_hash=4177397218885786687\n";
  EXPECT_EQ(fingerprint(sim, *trace, decisions), expected);
}

TEST(GoldenDeterminism, BaWhpDupReplaySeed9) {
  const std::size_t n = 24;
  core::Env env = core::Env::make_relaxed(n, /*seed=*/202);

  sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = 2;
  cfg.seed = 9;
  // Duplicating + replaying (never dropping) links: exercises the
  // replay-history and duplicate paths while preserving liveness.
  cfg.network.default_link.dup_p = 0.25;
  cfg.network.default_link.max_duplicates = 2;
  cfg.network.default_link.replay_p = 0.15;
  cfg.network.default_link.replay_window = 8;
  sim::Simulation sim(cfg);
  auto trace = std::make_shared<sim::TraceRecorder>();
  sim.add_observer(trace);
  for (crypto::ProcessId i = 0; i < n; ++i) {
    ba::BaWhp::Config bcfg;
    bcfg.tag = "ba";
    bcfg.params = env.params;
    bcfg.vrf = env.vrf;
    bcfg.registry = env.registry;
    bcfg.sampler = env.sampler;
    bcfg.signer = env.signer;
    bcfg.max_rounds = 32;
    sim.add_process(std::make_unique<ba::BaWhp>(
        std::move(bcfg), static_cast<ba::Value>(i % 2)));
  }
  sim.corrupt(n - 1, sim::FaultPlan::silent());
  sim.corrupt(n - 2, sim::FaultPlan::silent());
  sim.start();
  sim.run_until([&] {
    for (sim::ProcessId i = 0; i + 2 < n; ++i)
      if (!dynamic_cast<ba::BaWhp&>(sim.process(i)).decided()) return false;
    return true;
  });

  std::string decisions;
  for (crypto::ProcessId i = 0; i + 2 < n; ++i) {
    const auto& p = dynamic_cast<ba::BaWhp&>(sim.process(i));
    decisions += p.decided() ? ('0' + p.decision()) : '-';
  }

  // Captured on the pre-refactor tree (PR 2 tip, commit cfe282f).
  const std::string expected =
      "decisions=1111111111111111111111\n"
      "correct_words=53328\n"
      "total_words=53328\n"
      "messages_sent=5280\n"
      "deliveries=6798\n"
      "link_duplicates=1928\n"
      "link_replays=626\n"
      "words_by_tag=echo:4752;first:1584;init:3168;ok:42240;second:1584;\n"
      "trace_events=12080\n"
      "trace_hash=9430220647100695956\n";
  EXPECT_EQ(fingerprint(sim, *trace, decisions), expected);
}

// Every JSONL record kind a lossy crash-recover run emits except dead
// letters: sends and retransmissions, deliveries of fresh, duplicated and
// replayed copies, drops, corruption, recovery, rounds and decides.
TEST(GoldenDeterminism, JsonlBrachaLossyCrashRecoverSeed5) {
  core::RunOptions o;
  o.protocol = core::Protocol::kBracha;
  o.n = 4;
  o.seed = 5;
  o.inputs.assign(4, ba::kOne);
  o.crash_recover = 1;
  o.recover_after = 40;
  o.network.default_link.dup_p = 0.3;
  o.network.default_link.max_duplicates = 2;
  o.network.default_link.replay_p = 0.2;
  o.network.default_link.replay_window = 8;
  o.network.default_link.drop_p = 0.1;
  o.reliable_channel = true;
  auto trace = std::make_shared<sim::TraceRecorder>();
  core::RunInstruments instruments;
  instruments.observers.push_back(trace);
  const core::RunReport report = core::run_agreement(o, instruments);
  ASSERT_TRUE(report.all_correct_decided);

  using Kind = sim::TraceRecorder::Rec::Kind;
  std::map<Kind, std::size_t> kinds;
  for (const auto& r : trace->records()) ++kinds[r.kind];
  for (Kind k : {Kind::kSend, Kind::kDeliver, Kind::kDrop, Kind::kDuplicate,
                 Kind::kReplay, Kind::kCorrupt, Kind::kRecover, Kind::kDecide,
                 Kind::kRound})
    EXPECT_GE(kinds[k], 1u) << "no record of kind " << static_cast<int>(k);

  std::ostringstream jsonl;
  trace->dump_jsonl(jsonl);
  EXPECT_EQ(trace->records().size(), 8153u);
  // Captured before the trace kept a single record stream.
  EXPECT_EQ(fnv1a(jsonl.str()), 14000844492821139928ull);
}

}  // namespace
}  // namespace coincidence
