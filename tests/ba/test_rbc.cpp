#include "ba/rbc.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/ser.h"
#include "crypto/sha256.h"
#include "sim/simulation.h"

namespace coincidence::ba {
namespace {

class RbcHost final : public sim::Process {
 public:
  RbcHost(ReliableBroadcast::Config cfg, std::optional<Bytes> to_send)
      : rbc_(std::move(cfg),
             [this](sim::ProcessId src, const Bytes& payload) {
               delivered[src] = payload;
             }),
        to_send_(std::move(to_send)) {}

  void on_start(sim::Context& ctx) override {
    if (to_send_) rbc_.broadcast(ctx, *to_send_);
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    rbc_.handle(ctx, msg);
  }

  std::map<sim::ProcessId, Bytes> delivered;

 private:
  ReliableBroadcast rbc_;
  std::optional<Bytes> to_send_;
};

ReliableBroadcast::Config rbc_cfg(std::size_t n, std::size_t f) {
  ReliableBroadcast::Config cfg;
  cfg.tag = "rbc";
  cfg.n = n;
  cfg.f = f;
  return cfg;
}

TEST(Rbc, CorrectSourceDeliveredByAll) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 1;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i) {
    std::optional<Bytes> send;
    if (i == 0) send = bytes_of("hello");
    sim.add_process(std::make_unique<RbcHost>(rbc_cfg(7, 2), send));
  }
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], bytes_of("hello"));
  }
}

TEST(Rbc, AllSourcesConcurrently) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.seed = 3;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        rbc_cfg(7, 2), bytes_of("m" + std::to_string(i))));
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 7; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.size(), 7u);
    for (sim::ProcessId s = 0; s < 7; ++s)
      EXPECT_EQ(host.delivered[s], bytes_of("m" + std::to_string(s)));
  }
}

TEST(Rbc, SilentSourceDeliversNothingButOthersUnaffected) {
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 5;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        rbc_cfg(7, 2), bytes_of("m" + std::to_string(i))));
  sim.corrupt(6, sim::FaultPlan::crash());
  sim.start();
  sim.run();
  for (sim::ProcessId i = 0; i < 6; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.count(6), 0u);
    for (sim::ProcessId s = 0; s < 6; ++s)
      EXPECT_EQ(host.delivered.count(s), 1u) << i << "<-" << s;
  }
}

TEST(Rbc, EquivocatingSourceNeverSplitsDelivery) {
  // Byzantine source sends initial("a") to half and initial("b") to the
  // other half: totality says nobody delivers conflicting payloads.
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 1;
  cfg.seed = 7;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(rbc_cfg(7, 2), std::nullopt));
  sim.corrupt(0, sim::FaultPlan::silent());
  sim.start();
  for (sim::ProcessId to = 1; to < 7; ++to) {
    Bytes payload = to <= 3 ? bytes_of("a") : bytes_of("b");
    sim.inject(0, to, "rbc/initial", payload, 1);
  }
  sim.run();

  std::optional<Bytes> delivered_value;
  for (sim::ProcessId i = 1; i < 7; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    auto it = host.delivered.find(0);
    if (it == host.delivered.end()) continue;
    if (!delivered_value) delivered_value = it->second;
    EXPECT_EQ(*delivered_value, it->second) << i;  // agreement on payload
  }
}

TEST(Rbc, ForgedReadyQuorumCannotFakeDelivery) {
  // f Byzantine processes send <ready, src=0, "forged"> without any
  // initial/echo: 2f+1 readies are required, and only f can be forged
  // (f+1 amplification needs a correct ready, which needs an echo quorum).
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 9;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(rbc_cfg(7, 2), std::nullopt));
  sim.corrupt(5, sim::FaultPlan::silent());
  sim.corrupt(6, sim::FaultPlan::silent());
  sim.start();
  // READY now carries (source, digest): forge a well-formed one for a
  // payload nobody echoed.
  const crypto::Digest d = crypto::sha256(bytes_of("forged"));
  Writer w;
  w.u32(0).blob(BytesView(d.data(), d.size()));
  for (sim::ProcessId from : {5, 6})
    for (sim::ProcessId to = 0; to < 5; ++to)
      sim.inject(from, to, "rbc/ready", w.bytes(), 5);
  sim.run();
  for (sim::ProcessId i = 0; i < 5; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    EXPECT_EQ(host.delivered.count(0), 0u) << i;
  }
}

TEST(Rbc, EchoDigestReuseNeedsByteEquality) {
  // Replicas reuse a source's last echo digest when an echo's bytes equal
  // that digest's stored payload. Two Byzantine echoers relay, for the
  // correct source 0, a same-length forgery differing only in its last
  // byte, interleaved with the real payload, so every replica's slot for
  // source 0 flips back and forth. Reusing a digest on anything short of
  // byte equality would count correct echoes toward the forgery.
  sim::SimConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.seed = 13;
  Bytes real(96);
  for (std::size_t i = 0; i < real.size(); ++i)
    real[i] = static_cast<std::uint8_t>(i * 7 + 1);
  Bytes forged = real;
  forged.back() ^= 1;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 7; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        rbc_cfg(7, 2), i == 0 ? std::optional<Bytes>(real) : std::nullopt));
  sim.corrupt(5, sim::FaultPlan::silent());
  sim.corrupt(6, sim::FaultPlan::silent());
  auto echo_of = [](const Bytes& payload) {
    Writer w;
    w.u32(0).blob(payload);
    return w.take();
  };
  const crypto::Digest fd = crypto::sha256(forged);
  Writer ready;
  ready.u32(0).blob(BytesView(fd.data(), fd.size()));
  sim.start();
  for (int round = 0; round < 4; ++round)
    for (sim::ProcessId from : {5, 6})
      for (sim::ProcessId to = 0; to < 5; ++to) {
        sim.inject(from, to, "rbc/echo", echo_of(forged), 14);
        sim.inject(from, to, "rbc/echo", echo_of(real), 14);
        sim.inject(from, to, "rbc/ready", ready.bytes(), 5);
      }
  sim.run();
  for (sim::ProcessId i = 0; i < 5; ++i) {
    auto& host = dynamic_cast<RbcHost&>(sim.process(i));
    ASSERT_EQ(host.delivered.count(0), 1u) << i;
    EXPECT_EQ(host.delivered[0], real) << i;
  }
}

TEST(Rbc, MalformedEchoIgnored) {
  sim::SimConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 11;
  sim::Simulation sim(cfg);
  for (sim::ProcessId i = 0; i < 4; ++i)
    sim.add_process(std::make_unique<RbcHost>(
        rbc_cfg(4, 1), i == 0 ? std::optional<Bytes>(bytes_of("x"))
                              : std::nullopt));
  sim.corrupt(3, sim::FaultPlan::silent());
  sim.start();
  sim.inject(3, 1, "rbc/echo", bytes_of("garbage-not-codec"), 1);
  sim.inject(3, 1, "rbc/ready", Bytes{}, 1);
  sim.run();
  // Normal delivery still happens; no crash on malformed inputs.
  auto& host = dynamic_cast<RbcHost&>(sim.process(1));
  EXPECT_EQ(host.delivered.count(0), 1u);
}

TEST(Rbc, RequiresN3f) {
  ReliableBroadcast::Config cfg;
  cfg.tag = "x";
  cfg.n = 6;
  cfg.f = 2;
  EXPECT_THROW(ReliableBroadcast(cfg, nullptr), PreconditionError);
}

}  // namespace
}  // namespace coincidence::ba
