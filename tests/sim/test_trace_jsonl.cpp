// JSONL trace: byte-identical replays, the compact dump as a printer over
// the one record stream, the filter contract (the tag filter narrows
// message traffic ONLY — fault and decision events always recorded),
// delivery provenance for link duplicates/replays, and the vector clocks
// derived from the stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "sim/trace.h"

namespace coincidence {
namespace {

using sim::Counter;
using core::Protocol;
using core::RunInstruments;
using core::RunOptions;
using core::RunReport;
using sim::TraceRecorder;
using Rec = sim::TraceRecorder::Rec;
using Prov = sim::TraceRecorder::Prov;

struct TracedRun {
  RunReport report;
  std::shared_ptr<TraceRecorder> trace;
};

TracedRun run_traced(const RunOptions& options,
                     std::string tag_filter = "") {
  TracedRun out;
  out.trace = std::make_shared<TraceRecorder>(std::move(tag_filter));
  RunInstruments instruments;
  instruments.observers.push_back(out.trace);
  out.report = core::run_agreement(options, instruments);
  return out;
}

RunOptions small_bracha() {
  RunOptions options;
  options.protocol = Protocol::kBracha;
  options.n = 4;
  options.seed = 21;
  options.inputs.assign(4, ba::kOne);
  return options;
}

std::size_t count_lines(const std::string& s) {
  std::size_t lines = 0;
  for (char c : s) lines += c == '\n';
  return lines;
}

TEST(TraceJsonl, ByteIdenticalAcrossReplays) {
  auto a = run_traced(small_bracha());
  auto b = run_traced(small_bracha());
  ASSERT_TRUE(a.report.all_correct_decided);

  std::ostringstream ja, jb;
  a.trace->dump_jsonl(ja);
  b.trace->dump_jsonl(jb);
  ASSERT_FALSE(ja.str().empty());
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_FALSE(a.trace->records().empty());
}

// The records only JSONL prints (drops, duplicates, decides, rounds, ...)
// leave the frozen compact dump alone: it has exactly one line per
// send/deliver/corrupt record, in record order.
TEST(TraceJsonl, StructuredModeDoesNotDisturbLegacyDump) {
  RunOptions options = small_bracha();
  options.junk = 1;
  options.network.default_link.dup_p = 0.3;
  options.network.default_link.max_duplicates = 2;
  auto run = run_traced(options);
  ASSERT_TRUE(run.report.all_correct_decided);

  std::string expected;
  std::size_t other = 0;
  for (const Rec& r : run.trace->records()) {
    switch (r.kind) {
      case Rec::Kind::kSend:
        expected += "S " + std::to_string(r.msg_id);
        break;
      case Rec::Kind::kDeliver:
        expected += "D " + std::to_string(r.msg_id);
        break;
      case Rec::Kind::kCorrupt:
        expected += "C " + std::to_string(r.from);
        break;
      default:
        ++other;
        continue;
    }
    expected += '\n';
  }
  EXPECT_GT(other, 0u);  // the stream holds more than the dump prints

  std::ostringstream dump;
  run.trace->dump(dump);
  std::string heads;  // each dump line cut to its kind letter and id
  std::istringstream lines(dump.str());
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string kind, id;
    fields >> kind >> id;
    heads += kind + ' ' + id + '\n';
  }
  EXPECT_EQ(count_lines(dump.str()), count_lines(expected));
  EXPECT_EQ(heads, expected);
}

// Satellite: a tag filter that matches no message traffic must still
// record corruptions, recoveries, decides and rounds — a filtered trace
// that silently dropped fault events would make fault accounting lie.
TEST(TraceJsonl, TagFilterKeepsFaultAndDecisionEvents) {
  RunOptions options;
  options.protocol = Protocol::kBracha;
  options.n = 5;
  options.seed = 33;
  options.junk = 1;
  options.inputs.assign(5, ba::kOne);

  auto run = run_traced(options, "no-such-tag-anywhere");
  ASSERT_TRUE(run.report.all_correct_decided);

  std::map<Rec::Kind, std::size_t> kinds;
  for (const Rec& r : run.trace->records()) ++kinds[r.kind];
  EXPECT_EQ(kinds.count(Rec::Kind::kSend), 0u);
  EXPECT_EQ(kinds.count(Rec::Kind::kDeliver), 0u);
  ASSERT_GE(kinds[Rec::Kind::kCorrupt], 1u);  // the junk corruption
  EXPECT_GE(kinds[Rec::Kind::kDecide], 4u);   // every correct process
  EXPECT_GE(kinds[Rec::Kind::kRound], 1u);
  // The compact dump obeys the same contract: corruptions only.
  std::ostringstream dump;
  run.trace->dump(dump);
  EXPECT_EQ(count_lines(dump.str()), kinds[Rec::Kind::kCorrupt]);
  EXPECT_EQ(dump.str().rfind("C ", 0), 0u);
}

TEST(TraceJsonl, DeliveryProvenanceMarksDuplicatesAndReplays) {
  RunOptions options = small_bracha();
  options.seed = 9;
  // Duplicating + replaying (never dropping) links keep liveness while
  // forcing network-created copies through the provenance map.
  options.network.default_link.dup_p = 0.3;
  options.network.default_link.max_duplicates = 2;
  options.network.default_link.replay_p = 0.2;
  options.network.default_link.replay_window = 8;

  auto run = run_traced(options);
  ASSERT_TRUE(run.report.all_correct_decided);
  ASSERT_GT(run.report.counters[Counter::kLinkDuplicates], 0u);
  ASSERT_GT(run.report.counters[Counter::kLinkReplays], 0u);

  const auto& recs = run.trace->records();
  const auto vcs = run.trace->vector_clocks();
  ASSERT_EQ(vcs.size(), recs.size());
  std::size_t dup_events = 0, replay_events = 0;
  std::size_t dup_delivers = 0, replay_delivers = 0, fresh_delivers = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    switch (r.kind) {
      case Rec::Kind::kDuplicate: ++dup_events; break;
      case Rec::Kind::kReplay: ++replay_events; break;
      case Rec::Kind::kDeliver:
        if (r.prov == Prov::kDuplicate) ++dup_delivers;
        if (r.prov == Prov::kReplay) ++replay_delivers;
        if (r.prov == Prov::kFresh) ++fresh_delivers;
        // Every network copy resolves to its original send's clock.
        EXPECT_FALSE(vcs[i].empty());
        break;
      default: break;
    }
  }
  // One kDuplicate/kReplay record per link event, matching Metrics.
  EXPECT_EQ(dup_events, run.report.counters[Counter::kLinkDuplicates]);
  EXPECT_EQ(replay_events, run.report.counters[Counter::kLinkReplays]);
  // Copies actually reached receivers and were attributed as such.
  EXPECT_GT(dup_delivers, 0u);
  EXPECT_GT(replay_delivers, 0u);
  EXPECT_GT(fresh_delivers, 0u);
}

TEST(TraceJsonl, VectorClocksAreMonotoneAndContainSendSnapshots) {
  auto run = run_traced(small_bracha());
  ASSERT_TRUE(run.report.all_correct_decided);

  auto contains = [](const std::vector<std::uint64_t>& big,
                     const std::vector<std::uint64_t>& small) {
    for (std::size_t i = 0; i < small.size(); ++i) {
      const std::uint64_t b = i < big.size() ? big[i] : 0;
      if (b < small[i]) return false;
    }
    return true;
  };

  // send_seq -> the clock stamped on the original send.
  std::map<std::uint64_t, std::vector<std::uint64_t>> send_vc;
  std::map<sim::ProcessId, std::vector<std::uint64_t>> last_deliver_vc;
  std::size_t delivers = 0;
  const auto& recs = run.trace->records();
  const auto vcs = run.trace->vector_clocks();
  ASSERT_EQ(vcs.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    const auto& vc = vcs[i];
    if (r.kind == Rec::Kind::kSend) {
      send_vc[r.send_seq] = vc;
    } else if (r.kind == Rec::Kind::kDeliver) {
      ++delivers;
      auto it = send_vc.find(r.send_seq);
      ASSERT_NE(it, send_vc.end()) << "deliver without a recorded send";
      // The receiver's clock merged the send snapshot, then ticked.
      EXPECT_TRUE(contains(vc, it->second));
      auto& prev = last_deliver_vc[r.to];
      EXPECT_TRUE(contains(vc, prev))
          << "receiver clock went backwards at process " << r.to;
      prev = vc;
    }
  }
  EXPECT_GT(delivers, 0u);
}

// Hand-fed hooks: p0 -> p1 -> p2 with a link duplicate of the second
// hop, a decide at the end of the chain, and a drop of a send the
// stream never saw. The derived clocks order the chain (happens-before)
// and leave the concurrent round and the orphan drop unstamped.
TEST(TraceJsonl, DerivedClocksReplayAHandFedChain) {
  TraceRecorder trace;
  sim::Message m1;
  m1.id = 1;
  m1.send_seq = 1;
  m1.from = 0;
  m1.to = 1;
  m1.tag = "hop";
  sim::Message m2 = m1;
  m2.id = 2;
  m2.send_seq = 2;
  m2.from = 1;
  m2.to = 2;
  sim::Message copy = m2;
  copy.id = 3;  // a link duplicate: fresh id, same send_seq
  sim::Message orphan = m1;
  orphan.id = 9;
  orphan.send_seq = 99;

  trace.on_send(m1, true);
  trace.on_deliver(m1);
  trace.on_send(m2, true);
  trace.on_round(0, 1);
  trace.on_link_duplicate(copy);
  trace.on_deliver(copy);
  sim::DecideEvent decide;
  decide.who = 2;
  decide.scope = "hop";
  trace.on_decide(decide);
  trace.on_link_drop(orphan);

  using Clock = std::vector<std::uint64_t>;
  const std::vector<Clock> expected = {
      {1},        // p0 sends m1
      {1, 1},     // p1 merges m1's snapshot, ticks
      {1, 2},     // p1 sends m2
      {},         // round: no clock
      {1, 2},     // the duplicate carries m2's send snapshot
      {1, 2, 1},  // p2 delivers the copy
      {1, 2, 1},  // p2 decides with its current clock
      {},         // drop of a send outside the stream
  };
  EXPECT_EQ(trace.vector_clocks(), expected);
  EXPECT_EQ(trace.records()[5].prov, Prov::kDuplicate);

  std::ostringstream jsonl;
  trace.dump_jsonl(jsonl);
  EXPECT_EQ(count_lines(jsonl.str()), expected.size());
  EXPECT_NE(jsonl.str().find("\"ev\":\"decide\",\"who\":2,\"scope\":\"hop\""
                             ",\"value\":0,\"round\":0,\"depth\":0,"
                             "\"correct\":true,\"vc\":[1,2,1]}"),
            std::string::npos);
}

}  // namespace
}  // namespace coincidence
