#include "sim/simulation.h"

#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/ser.h"

namespace coincidence::sim {
namespace {

/// Replies "pong" to every "ping" and counts what it saw.
class PingPong final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) {
      for (ProcessId to = 0; to < ctx.n(); ++to)
        if (to != 0) ctx.send(to, "ping", bytes_of("ping"), 1);
    }
  }
  void on_message(Context& ctx, const Message& msg) override {
    if (msg.tag == "ping") {
      ++pings;
      ctx.send(msg.from, "pong", bytes_of("pong"), 1);
    } else if (msg.tag == "pong") {
      ++pongs;
    }
  }
  int pings = 0;
  int pongs = 0;
};

std::unique_ptr<Simulation> make_pingpong(std::size_t n, std::uint64_t seed) {
  SimConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  auto sim = std::make_unique<Simulation>(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim->add_process(std::make_unique<PingPong>());
  return sim;
}

TEST(Simulation, PingPongRoundTrip) {
  auto sim_ptr = make_pingpong(4, 1);
  Simulation& sim = *sim_ptr;
  sim.start();
  sim.run();
  auto& p0 = dynamic_cast<PingPong&>(sim.process(0));
  EXPECT_EQ(p0.pongs, 3);
  for (ProcessId i = 1; i < 4; ++i)
    EXPECT_EQ(dynamic_cast<PingPong&>(sim.process(i)).pings, 1);
}

TEST(Simulation, DeterministicAcrossRuns) {
  for (int trial = 0; trial < 2; ++trial) {
    auto a_ptr = make_pingpong(6, 9);
  Simulation& a = *a_ptr;
    auto b_ptr = make_pingpong(6, 9);
  Simulation& b = *b_ptr;
    a.start();
    b.start();
    a.run();
    b.run();
    EXPECT_EQ(a.metrics().correct_words(), b.metrics().correct_words());
    EXPECT_EQ(a.deliveries(), b.deliveries());
  }
}

TEST(Simulation, SeedChangesSchedule) {
  auto a_ptr = make_pingpong(8, 1);
  Simulation& a = *a_ptr;
  auto b_ptr = make_pingpong(8, 2);
  Simulation& b = *b_ptr;
  a.start();
  b.start();
  // Same totals (same protocol)…
  a.run();
  b.run();
  EXPECT_EQ(a.metrics().messages_sent(), b.metrics().messages_sent());
}

class Broadcaster final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) ctx.broadcast("hello", bytes_of("x"), 3);
  }
  void on_message(Context&, const Message& msg) override {
    if (msg.tag == "hello") ++received;
  }
  int received = 0;
};

TEST(Simulation, BroadcastReachesEveryoneIncludingSelf) {
  SimConfig cfg;
  cfg.n = 5;
  Simulation sim(cfg);
  for (int i = 0; i < 5; ++i) sim.add_process(std::make_unique<Broadcaster>());
  sim.start();
  sim.run();
  for (ProcessId i = 0; i < 5; ++i)
    EXPECT_EQ(dynamic_cast<Broadcaster&>(sim.process(i)).received, 1) << i;
  // Word accounting: n * words, self included (§2 accounting).
  EXPECT_EQ(sim.metrics().correct_words(), 5u * 3u);
}

class SelfSender final : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.send(ctx.self(), "note", bytes_of("n"), 1);
    // Reentrancy guard: the self message must NOT arrive synchronously.
    EXPECT_EQ(notes, 0);
    started = true;
  }
  void on_message(Context&, const Message& msg) override {
    EXPECT_TRUE(started);
    if (msg.tag == "note") ++notes;
  }
  bool started = false;
  int notes = 0;
};

TEST(Simulation, SelfDeliveryIsDeferredNotSynchronous) {
  SimConfig cfg;
  cfg.n = 1;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<SelfSender>());
  sim.start();
  sim.run();
  EXPECT_EQ(dynamic_cast<SelfSender&>(sim.process(0)).notes, 1);
}

TEST(Simulation, StartTwiceThrows) {
  auto sim_ptr = make_pingpong(2, 1);
  Simulation& sim = *sim_ptr;
  sim.start();
  EXPECT_THROW(sim.start(), PreconditionError);
}

TEST(Simulation, StartWithMissingProcessesThrows) {
  SimConfig cfg;
  cfg.n = 3;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<PingPong>());
  EXPECT_THROW(sim.start(), PreconditionError);
}

TEST(Simulation, RunUntilPredicate) {
  auto sim_ptr = make_pingpong(4, 1);
  Simulation& sim = *sim_ptr;
  sim.start();
  bool reached = sim.run_until(
      [&] { return dynamic_cast<PingPong&>(sim.process(0)).pongs >= 1; });
  EXPECT_TRUE(reached);
}

TEST(Simulation, RunUntilUnreachableReturnsFalse) {
  auto sim_ptr = make_pingpong(4, 1);
  Simulation& sim = *sim_ptr;
  sim.start();
  EXPECT_FALSE(sim.run_until([] { return false; }));
  EXPECT_FALSE(sim.has_pending());
}

TEST(Simulation, InjectRequiresCorruptedSender) {
  SimConfig cfg;
  cfg.n = 3;
  cfg.f = 1;
  Simulation sim(cfg);
  for (int i = 0; i < 3; ++i) sim.add_process(std::make_unique<PingPong>());
  sim.start();
  EXPECT_THROW(sim.inject(0, 1, "ping", bytes_of("ping"), 1),
               PreconditionError);
  sim.corrupt(0, FaultPlan::silent());
  sim.inject(0, 1, "ping", bytes_of("ping"), 1);
  sim.run();
  EXPECT_EQ(dynamic_cast<PingPong&>(sim.process(1)).pings, 2);  // start + inject
}

TEST(Simulation, InjectedWordsDoNotCountAsCorrect) {
  SimConfig cfg;
  cfg.n = 2;
  cfg.f = 1;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<Broadcaster>());
  sim.add_process(std::make_unique<Broadcaster>());
  sim.start();
  sim.corrupt(1, FaultPlan::silent());
  std::uint64_t before = sim.metrics().correct_words();
  sim.inject(1, 0, "hello", bytes_of("x"), 7);
  EXPECT_EQ(sim.metrics().correct_words(), before);
  EXPECT_GT(sim.metrics().counter(Counter::kTotalWords), before);
}

class DepthProbe final : public Process {
 public:
  void on_start(Context& ctx) override {
    // Build a chain 0 -> 1 -> 2 -> ... -> n-1.
    if (ctx.self() == 0) ctx.send(1, "chain", {}, 1);
  }
  void on_message(Context& ctx, const Message& msg) override {
    depth_at_receive = msg.causal_depth;
    ProcessId next = ctx.self() + 1;
    if (next < ctx.n()) ctx.send(next, "chain", {}, 1);
  }
  std::uint64_t depth_at_receive = 0;
};

TEST(Simulation, CausalDepthGrowsAlongChains) {
  SimConfig cfg;
  cfg.n = 5;
  Simulation sim(cfg);
  for (int i = 0; i < 5; ++i) sim.add_process(std::make_unique<DepthProbe>());
  sim.start();
  sim.run();
  for (ProcessId i = 1; i < 5; ++i) {
    EXPECT_EQ(dynamic_cast<DepthProbe&>(sim.process(i)).depth_at_receive, i)
        << "hop " << i;
  }
  EXPECT_EQ(sim.depth_of(4), 4u);
}

TEST(Simulation, MaxDeliveriesGuardsLivelock) {
  // Two processes ping each other forever.
  class Forever final : public Process {
   public:
    void on_start(Context& ctx) override {
      ctx.send(1 - ctx.self(), "p", {}, 1);
    }
    void on_message(Context& ctx, const Message& msg) override {
      ctx.send(msg.from, "p", {}, 1);
    }
  };
  SimConfig cfg;
  cfg.n = 2;
  cfg.max_deliveries = 100;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<Forever>());
  sim.add_process(std::make_unique<Forever>());
  sim.start();
  EXPECT_THROW(sim.run(), ConfigError);
}

}  // namespace
}  // namespace coincidence::sim
