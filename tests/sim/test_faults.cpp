#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/ser.h"
#include "sim/simulation.h"
#include "sim/snapshot.h"

namespace coincidence::sim {
namespace {

/// Everyone broadcasts one "v" message at start and counts receipts.
class Counter final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.broadcast("v", bytes_of("v"), 1); }
  void on_message(Context&, const Message& msg) override {
    if (msg.tag == "v") ++received;
    if (!msg.payload.empty() && msg.payload == bytes_of("v")) ++valid;
  }
  int received = 0;
  int valid = 0;
};

std::unique_ptr<Simulation> make_counters(std::size_t n, std::size_t f,
                                          std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  auto sim = std::make_unique<Simulation>(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim->add_process(std::make_unique<Counter>());
  return sim;
}

TEST(Faults, BudgetEnforced) {
  auto sim_ptr = make_counters(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::silent());
  EXPECT_THROW(sim.corrupt(1, FaultPlan::silent()), PreconditionError);
  EXPECT_EQ(sim.corrupted_count(), 1u);
  EXPECT_TRUE(sim.is_corrupted(0));
  EXPECT_FALSE(sim.is_corrupted(1));
}

TEST(Faults, RecorruptionUpdatesBehaviourWithoutBudget) {
  auto sim_ptr = make_counters(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::silent());
  sim.corrupt(0, FaultPlan::crash());  // allowed: same process
  EXPECT_EQ(sim.corrupted_count(), 1u);
}

TEST(Faults, SilentProcessSendsNothing) {
  auto sim_ptr = make_counters(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::silent());
  sim.start();
  sim.run();
  // Correct processes got 3 broadcasts (from 1,2,3), not 4.
  for (ProcessId i = 1; i < 4; ++i)
    EXPECT_EQ(dynamic_cast<Counter&>(sim.process(i)).received, 3) << i;
  // The silent process still receives.
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(0)).received, 3);
}

TEST(Faults, CrashedProcessNeitherSendsNorReceives) {
  auto sim_ptr = make_counters(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::crash());
  sim.start();
  sim.run();
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(0)).received, 0);
  for (ProcessId i = 1; i < 4; ++i)
    EXPECT_EQ(dynamic_cast<Counter&>(sim.process(i)).received, 3) << i;
}

TEST(Faults, SelectiveSendsOnlyToTargets) {
  auto sim_ptr = make_counters(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::selective({1}));
  sim.start();
  sim.run();
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(1)).received, 4);  // has 0's msg
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(2)).received, 3);
  EXPECT_EQ(dynamic_cast<Counter&>(sim.process(3)).received, 3);
}

TEST(Faults, JunkCorruptsPayloadSameLength) {
  auto sim_ptr = make_counters(4, 1, /*seed=*/3);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::junk());
  sim.start();
  sim.run();
  auto& c1 = dynamic_cast<Counter&>(sim.process(1));
  EXPECT_EQ(c1.received, 4);     // message still arrives…
  EXPECT_EQ(c1.valid, 3);        // …but its payload no longer matches
}

TEST(Faults, ByzantineWordsExcludedFromCorrectCount) {
  auto honest_ptr = make_counters(4, 0);
  Simulation& honest = *honest_ptr;
  honest.start();
  honest.run();
  auto faulty_ptr = make_counters(4, 1);
  Simulation& faulty = *faulty_ptr;
  faulty.corrupt(0, FaultPlan::junk());  // still sends, but as Byzantine
  faulty.start();
  faulty.run();
  EXPECT_EQ(honest.metrics().correct_words(), 4u * 4u);
  EXPECT_EQ(faulty.metrics().correct_words(), 3u * 4u);
  EXPECT_EQ(faulty.metrics().counter(sim::Counter::kTotalWords), 4u * 4u);
}

TEST(Faults, NoFrontRunning_PendingMessagesSurviveCorruption) {
  // Process 0 broadcasts at start; corrupting it *after* start() (messages
  // already in flight) must not retract those messages.
  auto sim_ptr = make_counters(4, 1);
  Simulation& sim = *sim_ptr;
  sim.start();  // all broadcasts enqueued
  sim.corrupt(0, FaultPlan::crash());
  sim.run();
  for (ProcessId i = 1; i < 4; ++i)
    EXPECT_EQ(dynamic_cast<Counter&>(sim.process(i)).received, 4) << i;
}

TEST(Faults, JunkIsSeedReproducible) {
  // kJunk draws its garbage from the corrupted process's forked Rng, so a
  // junk run is as replayable as an honest one: same seed, same garbage.
  class PayloadTap final : public Process {
   public:
    void on_start(Context& ctx) override {
      ctx.broadcast("v", Bytes(16, 0xab), 1);
    }
    void on_message(Context&, const Message& msg) override {
      if (msg.from == 0) from_zero.push_back(msg.payload.to_bytes());
    }
    std::vector<Bytes> from_zero;
  };
  auto run = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.seed = seed;
    auto sim = std::make_unique<Simulation>(cfg);
    for (int i = 0; i < 4; ++i)
      sim->add_process(std::make_unique<PayloadTap>());
    sim->corrupt(0, FaultPlan::junk());
    sim->start();
    sim->run();
    return sim;
  };
  auto a = run(41);
  auto b = run(41);
  auto c = run(42);
  for (ProcessId i = 1; i < 4; ++i) {
    const auto& pa = dynamic_cast<PayloadTap&>(a->process(i)).from_zero;
    const auto& pb = dynamic_cast<PayloadTap&>(b->process(i)).from_zero;
    ASSERT_EQ(pa.size(), 1u) << i;
    EXPECT_EQ(pa, pb) << i;  // identical seeds: identical garbage
    EXPECT_NE(pa[0], Bytes(16, 0xab)) << i;  // and it *is* garbage
  }
  // A different seed produces different garbage (16 random bytes — a
  // collision would be a 2^-128 event).
  const auto& pa = dynamic_cast<PayloadTap&>(a->process(1)).from_zero;
  const auto& pc = dynamic_cast<PayloadTap&>(c->process(1)).from_zero;
  ASSERT_EQ(pc.size(), 1u);
  EXPECT_NE(pa[0], pc[0]);
}

// ----------------------------------------------------- crash-recover --

/// Persists a counter of processed messages; announces its restart.
class Phoenix final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.broadcast("v", bytes_of("v"), 1); }
  void on_message(Context& ctx, const Message& msg) override {
    if (msg.tag == "hello") ++hellos;
    if (msg.tag != "v") return;
    ++received;
    Writer w;
    w.u64(static_cast<std::uint64_t>(received));
    ctx.persist(StateSnapshot::pack("phoenix", 1, w.take()));
  }
  void on_recover(Context& ctx, const Bytes& snapshot) override {
    recovered = true;
    received = 0;  // in-memory state is gone; rebuild from the snapshot
    Bytes state;
    if (StateSnapshot::unpack(snapshot, "phoenix", 1, state)) {
      Reader r(state);
      restored = static_cast<int>(r.u64());
    }
    ctx.broadcast("hello", bytes_of("h"), 1);
  }
  int received = 0;
  int restored = -1;
  int hellos = 0;
  bool recovered = false;
};

std::unique_ptr<Simulation> make_phoenixes(std::size_t n, std::size_t f,
                                           std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.seed = seed;
  auto sim = std::make_unique<Simulation>(cfg);
  for (std::size_t i = 0; i < n; ++i)
    sim->add_process(std::make_unique<Phoenix>());
  return sim;
}

TEST(Faults, CrashRecoverRestartsAndCanSendAgain) {
  auto sim_ptr = make_phoenixes(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::crash_recover(6));
  EXPECT_TRUE(sim.is_down(0));
  EXPECT_FALSE(sim.has_recovered(0));
  sim.start();
  sim.run();
  EXPECT_TRUE(sim.has_recovered(0));
  EXPECT_FALSE(sim.is_down(0));
  // The corruption budget stays spent — recovery is not a pardon.
  EXPECT_TRUE(sim.is_corrupted(0));
  EXPECT_EQ(sim.corrupted_count(), 1u);
  auto& p0 = dynamic_cast<Phoenix&>(sim.process(0));
  EXPECT_TRUE(p0.recovered);
  // Its post-restart broadcast reached everyone: it can send again.
  for (ProcessId i = 1; i < 4; ++i)
    EXPECT_EQ(dynamic_cast<Phoenix&>(sim.process(i)).hellos, 1) << i;
}

TEST(Faults, CrashRecoverHandsBackPersistedSnapshot) {
  // Corrupt only after some messages were processed and persisted.
  auto sim_ptr = make_phoenixes(4, 1);
  Simulation& sim = *sim_ptr;
  sim.start();
  // Let the run finish, then crash-recover: the snapshot must reflect
  // everything process 0 persisted before the crash.
  sim.run();
  const int before = dynamic_cast<Phoenix&>(sim.process(0)).received;
  ASSERT_GT(before, 0);
  sim.corrupt(0, FaultPlan::crash_recover(3));
  sim.run();  // idle-advances straight to the restart
  auto& p0 = dynamic_cast<Phoenix&>(sim.process(0));
  EXPECT_TRUE(p0.recovered);
  EXPECT_EQ(p0.restored, before);
}

TEST(Faults, CrashRecoverDownWindowDropsTraffic) {
  auto sim_ptr = make_phoenixes(4, 1);
  Simulation& sim = *sim_ptr;
  // Down long past the run's natural length: while down, nothing is
  // received; the broadcasts of others are simply lost to it.
  sim.corrupt(0, FaultPlan::crash_recover(1000));
  sim.start();
  sim.run();
  auto& p0 = dynamic_cast<Phoenix&>(sim.process(0));
  EXPECT_TRUE(p0.recovered);       // idle-advance still reached the restart
  EXPECT_EQ(p0.received, 0);       // but the down window ate everything
  EXPECT_EQ(p0.restored, -1);      // never persisted anything either
}

TEST(Faults, RecorruptionCancelsPendingRecovery) {
  auto sim_ptr = make_phoenixes(4, 1);
  Simulation& sim = *sim_ptr;
  sim.corrupt(0, FaultPlan::crash_recover(5));
  sim.corrupt(0, FaultPlan::crash());  // the adversary changed its mind
  sim.start();
  sim.run();
  EXPECT_FALSE(sim.has_recovered(0));
  EXPECT_FALSE(dynamic_cast<Phoenix&>(sim.process(0)).recovered);
}

TEST(Faults, OnCorruptHookFires) {
  class Hooked final : public Process {
   public:
    void on_start(Context&) override {}
    void on_message(Context&, const Message&) override {}
    void on_corrupt(Context&) override { hooked = true; }
    bool hooked = false;
  };
  SimConfig cfg;
  cfg.n = 2;
  cfg.f = 1;
  Simulation sim(cfg);
  sim.add_process(std::make_unique<Hooked>());
  sim.add_process(std::make_unique<Hooked>());
  sim.start();
  sim.corrupt(0, FaultPlan::silent());
  EXPECT_TRUE(dynamic_cast<Hooked&>(sim.process(0)).hooked);
  EXPECT_FALSE(dynamic_cast<Hooked&>(sim.process(1)).hooked);
}

}  // namespace
}  // namespace coincidence::sim
