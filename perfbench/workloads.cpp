#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "ba/ba_whp.h"
#include "common/bytes.h"
#include "common/errors.h"
#include "common/rng.h"
#include "core/env.h"
#include "crypto/fast_vrf.h"
#include "session/log_driver.h"
#include "session/replicated_log.h"
#include "sim/simulation.h"

namespace perfbench {

namespace cc = coincidence;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Independent seed for (stream, index) of one run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL) ^
                        (index * 0xD1B54A32D192ED03ULL);
  return cc::splitmix64(state);
}

// Deliveries a log slot or a BA instance may take before the run gives
// up on it as a liveness failure; healthy runs use a small fraction.
constexpr std::uint64_t kMaxDeliveriesPerSlot = 4'000'000;
constexpr std::uint64_t kMaxDeliveriesPerBa = 8'000'000;

/// The relaxed small-n setup of core::Env::make_relaxed. With a tracer,
/// the VRF is timed under the CachingSampler and the sampler is timed
/// above it, so every interface call the protocols and the
/// BatchVerifier make is seen.
cc::core::Env make_env(std::size_t n, std::uint64_t seed, Tracer* tracer) {
  cc::core::Env env;
  env.params = cc::committee::Params::derive(n, 0.25, 0.02, /*strict=*/false);
  env.registry = cc::crypto::KeyRegistry::create_for(n, seed);
  std::shared_ptr<cc::crypto::Vrf> vrf =
      std::make_shared<cc::crypto::FastVrf>(env.registry);
  if (tracer) vrf = std::make_shared<TimedVrf>(std::move(vrf), *tracer);
  env.vrf = vrf;
  auto caching = std::make_shared<cc::committee::CachingSampler>(
      env.vrf, env.registry, env.params.sample_prob());
  if (tracer)
    env.sampler = std::make_shared<TimedSampler>(std::move(caching), env.vrf,
                                                 env.registry, *tracer);
  else
    env.sampler = std::move(caching);
  env.signer = std::make_shared<cc::crypto::Signer>(env.registry);
  env.batcher = std::make_shared<cc::coin::BatchVerifier>(
      cc::coin::BatchVerifier::Config{env.vrf, env.sampler, env.signer});
  return env;
}

std::unique_ptr<cc::sim::Process> maybe_traced(
    std::unique_ptr<cc::sim::Process> p, Tracer* tracer) {
  if (!tracer) return p;
  return std::make_unique<TracedProcess>(std::move(p), *tracer);
}

void add_verifier_counters(const cc::coin::BatchVerifier& b, Totals& tot) {
  tot.verify_shares += b.shares();
  tot.verify_batches += b.batches();
  tot.sig_checks += b.sig_checks();
}

void add_sim_counters(const cc::sim::Simulation& sim, Totals& tot,
                      UnitRecord& rec) {
  const cc::sim::Metrics& m = sim.metrics();
  rec.deliveries = sim.deliveries();
  rec.correct_words = m.correct_words();
  tot.deliveries += rec.deliveries;
  tot.correct_words += rec.correct_words;
  tot.messages += m.messages_sent();
  tot.rbc_encodes += m.rbc_encodes();
  tot.rbc_decodes += m.rbc_decodes();
  tot.rbc_decode_failures += m.rbc_decode_failures();
  tot.sig_sweep_sigs += m.sig_verify_sigs();
  tot.sig_sweep_memo_hits += m.sig_verify_memo_hits();
}

void violation(Totals& tot, const std::string& what) {
  if (tot.safety_ok) tot.safety_error = what;
  tot.safety_ok = false;
}

// --- Replicated log ---------------------------------------------------------

struct LogRig {
  cc::core::Env env;
  std::unique_ptr<cc::sim::Simulation> sim;
  std::vector<cc::session::LogProcess*> logs;
};

LogRig build_log(const LogShape& shape, std::uint64_t seed, Tracer* tracer) {
  LogRig rig;
  rig.env = make_env(shape.n, derive(seed, 1, 0), tracer);
  cc::sim::SimConfig cfg;
  cfg.n = shape.n;
  cfg.seed = derive(seed, 2, 0);
  cfg.max_deliveries = kMaxDeliveriesPerSlot * shape.slots;
  rig.sim = std::make_unique<cc::sim::Simulation>(cfg);

  // The options run_replicated_log applies by default.
  const cc::session::LogRunOptions defaults;
  cc::session::LogConfig lcfg;
  lcfg.params = rig.env.params;
  lcfg.vrf = rig.env.vrf;
  lcfg.registry = rig.env.registry;
  lcfg.sampler = rig.env.sampler;
  lcfg.signer = rig.env.signer;
  lcfg.batcher = rig.env.batcher;
  lcfg.total_slots = shape.slots;
  lcfg.pipeline_depth = kPipelineDepth;
  lcfg.batch_size = shape.batch_size;
  lcfg.max_rounds = defaults.max_rounds;
  lcfg.max_candidates = defaults.max_candidates;
  lcfg.client_seed = derive(seed, 3, 0);
  lcfg.rbc = shape.rbc;
  lcfg.skip_timeout =
      cc::session::auto_skip_timeout(shape.n, kPipelineDepth);
  for (std::size_t i = 0; i < shape.n; ++i) {
    auto p = std::make_unique<cc::session::LogProcess>(lcfg);
    rig.logs.push_back(p.get());
    rig.sim->add_process(maybe_traced(std::move(p), tracer));
  }
  return rig;
}

/// Runs one log to completion. After every delivery it polls the
/// replicas' public progress counters and timestamps, per (replica,
/// slot), the local activation, decision and commit.
double run_log_to_end(LogRig& rig, const LogShape& shape, Totals& tot) {
  const std::size_t n = shape.n;
  const std::size_t slots = shape.slots;
  struct Progress {
    std::size_t activated = 0, decided = 0, committed = 0;
    std::size_t lowest_undecided = 0;
    std::vector<Clock::time_point> activated_at;
    std::vector<char> is_decided;
  };
  std::vector<Progress> prog(n);
  for (auto& p : prog) {
    p.activated_at.resize(slots);
    p.is_decided.assign(slots, 0);
  }
  std::size_t committed = 0;
  const std::size_t target = n * slots;
  auto ms_since = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  auto poll = [&] {
    Clock::time_point now{};
    bool stamped = false;
    for (std::size_t i = 0; i < n; ++i) {
      const cc::session::LogProcess& log = *rig.logs[i];
      Progress& p = prog[i];
      const std::size_t a = log.slots_activated();
      const std::size_t d = log.slots_decided();
      const std::size_t c = log.committed_count();
      if (a == p.activated && d == p.decided && c == p.committed) continue;
      if (!stamped) {
        now = Clock::now();
        stamped = true;
      }
      for (std::size_t s = p.activated; s < a; ++s) p.activated_at[s] = now;
      p.activated = a;
      if (d != p.decided) {
        // Decisions can land out of order; scan the slots in flight.
        for (std::size_t s = p.lowest_undecided; s < a; ++s) {
          if (p.is_decided[s] || !log.slot_instance(s).decided()) continue;
          p.is_decided[s] = 1;
          tot.op_ms.push_back(ms_since(p.activated_at[s], now));
        }
        while (p.lowest_undecided < a && p.is_decided[p.lowest_undecided])
          ++p.lowest_undecided;
        p.decided = d;
      }
      for (std::size_t s = p.committed; s < c; ++s)
        tot.commit_ms.push_back(ms_since(p.activated_at[s], now));
      committed += c - p.committed;
      p.committed = c;
    }
  };

  const Clock::time_point t0 = Clock::now();
  rig.sim->start();
  poll();
  try {
    while (committed < target && rig.sim->step()) poll();
  } catch (const cc::ConfigError&) {
    // max_deliveries exceeded: the uncommitted slots count as failed.
  }
  return seconds_since(t0);
}

void check_log(const LogRig& rig, const LogShape& shape, double run_s,
               Totals& tot) {
  const std::size_t n = shape.n;
  UnitRecord rec;
  rec.run_s = run_s;
  add_sim_counters(*rig.sim, tot, rec);
  add_verifier_counters(*rig.env.batcher, tot);
  tot.attempted += shape.slots;

  const cc::session::LogProcess& first = *rig.logs[0];
  for (std::size_t s = 0; s < shape.slots; ++s) {
    // The first replica that committed s is the reference entry.
    const cc::session::LogProcess* ref = nullptr;
    bool everyone = true;
    for (const auto* log : rig.logs) {
      if (log->committed_count() <= s) {
        everyone = false;
        continue;
      }
      if (!ref) {
        ref = log;
      } else if (log->committed(s) != ref->committed(s)) {
        violation(tot, "log disagreement at slot " + std::to_string(s));
      }
    }
    if (!everyone) ++tot.failed;
    if (!ref) continue;
    const cc::Bytes& entry = ref->committed(s);
    if (entry.empty()) {
      ++tot.noop_slots;
    } else {
      bool valid = false;
      for (std::size_t p = 0; p < n && !valid; ++p)
        valid = entry == first.batch_for(static_cast<cc::sim::ProcessId>(p), s);
      if (!valid)
        violation(tot, "slot " + std::to_string(s) +
                           " committed a batch no process proposed");
    }
    tot.candidates += ref->slot_instance(s).candidates_activated();
  }

  bool have_fp = false;
  cc::crypto::Digest fp{};
  std::uint64_t requests = 0;
  for (const auto* log : rig.logs) {
    requests += log->requests_committed();
    tot.rounds_skipped += log->rounds_skipped();
    tot.max_decided_round =
        std::max(tot.max_decided_round, log->max_decided_round());
    if (!log->all_committed()) continue;
    const cc::crypto::Digest d = log->log_fingerprint();
    if (!have_fp) {
      have_fp = true;
      fp = d;
      rec.fingerprint = cc::to_hex(d);
    } else if (d != fp) {
      violation(tot, "log fingerprints differ");
    }
  }
  tot.requests += requests / n;
  tot.units.push_back(std::move(rec));
}

// --- BA stream -------------------------------------------------------------

struct BaRig {
  std::unique_ptr<cc::sim::Simulation> sim;
  std::vector<cc::ba::BaWhp*> bas;
  std::vector<cc::ba::Value> inputs;
};

BaRig build_ba(const BaShape& shape, const cc::core::Env& env,
               std::uint64_t seed, std::uint64_t instance, Tracer* tracer) {
  const std::size_t n = shape.n;
  BaRig rig;
  cc::sim::SimConfig cfg;
  cfg.n = n;
  cfg.f = shape.silent_faults;
  cfg.seed = derive(seed, 2, instance);
  cfg.max_deliveries = kMaxDeliveriesPerBa;
  rig.sim = std::make_unique<cc::sim::Simulation>(cfg);

  // Split inputs: half of the correct processes start with 0, half with 1.
  const std::size_t correct = n - shape.silent_faults;
  std::vector<std::size_t> order(correct);
  for (std::size_t i = 0; i < correct; ++i) order[i] = i;
  cc::Rng rng(derive(seed, 3, instance));
  rng.shuffle(order);
  rig.inputs.assign(n, cc::ba::kZero);
  for (std::size_t i = correct / 2; i < correct; ++i)
    rig.inputs[order[i]] = cc::ba::kOne;

  cc::ba::BaWhp::Config bcfg;
  bcfg.tag = "ba" + std::to_string(instance);
  bcfg.params = env.params;
  bcfg.vrf = env.vrf;
  bcfg.registry = env.registry;
  bcfg.sampler = env.sampler;
  bcfg.signer = env.signer;
  bcfg.batcher = env.batcher;
  bcfg.max_rounds = 32;
  // Armed the way core::Session users arm it for one BA in flight.
  bcfg.skip_timeout = cc::session::auto_skip_timeout(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    auto p = std::make_unique<cc::ba::BaWhp>(bcfg, rig.inputs[i]);
    rig.bas.push_back(p.get());
    rig.sim->add_process(maybe_traced(std::move(p), tracer));
  }
  // Silent faults at the highest ids.
  for (std::size_t i = 0; i < shape.silent_faults; ++i)
    rig.sim->corrupt(static_cast<cc::sim::ProcessId>(n - 1 - i),
                     cc::sim::FaultPlan::silent());
  return rig;
}

double run_ba_instance(BaRig& rig, const BaShape& shape, Totals& tot) {
  const std::size_t correct = shape.n - shape.silent_faults;
  std::size_t cursor = 0;  // decisions are final, so scan forward once
  auto advance = [&] {
    while (cursor < correct && rig.bas[cursor]->decided()) ++cursor;
  };
  const Clock::time_point t0 = Clock::now();
  rig.sim->start();
  advance();
  try {
    while (cursor < correct && rig.sim->step()) advance();
  } catch (const cc::ConfigError&) {
    // max_deliveries exceeded: counted as a liveness failure below.
  }
  const double run_s = seconds_since(t0);
  if (cursor == correct) tot.op_ms.push_back(run_s * 1e3);
  return run_s;
}

void check_ba_instance(const BaRig& rig, const BaShape& shape, double run_s,
                       Totals& tot) {
  const std::size_t correct = shape.n - shape.silent_faults;
  UnitRecord rec;
  rec.run_s = run_s;
  add_sim_counters(*rig.sim, tot, rec);
  ++tot.attempted;

  std::optional<int> decision;
  bool all = true;
  bool skipped = false;
  for (std::size_t i = 0; i < correct; ++i) {
    const cc::ba::BaWhp& ba = *rig.bas[i];
    tot.rounds_skipped += ba.rounds_skipped();
    skipped = skipped || ba.rounds_skipped() > 0;
    if (!ba.decided()) {
      all = false;
      continue;
    }
    tot.max_decided_round = std::max(tot.max_decided_round, ba.decided_round());
    if (!decision) decision = ba.decision();
    if (*decision != ba.decision())
      violation(tot, "BA disagreement in instance " +
                         std::to_string(tot.units.size()));
  }
  if (decision) {
    bool valid = false;
    for (std::size_t i = 0; i < correct && !valid; ++i)
      valid = rig.inputs[i] == *decision;
    if (!valid)
      violation(tot, "BA decided a value no correct process proposed");
  }
  if (!all) ++tot.failed;
  if (skipped) ++tot.skip_rescued;
  rec.fingerprint = decision ? std::to_string(*decision) : "-";
  tot.units.push_back(std::move(rec));
}

}  // namespace

Totals run_log(const LogShape& shape, std::uint64_t seed, Tracer* tracer) {
  Totals tot;
  const Clock::time_point t0 = Clock::now();
  LogRig rig = build_log(shape, seed, tracer);
  const double run_s = run_log_to_end(rig, shape, tot);
  check_log(rig, shape, run_s, tot);
  tot.wall_s = seconds_since(t0);
  return tot;
}

Totals run_ba_stream(const BaShape& shape, std::uint64_t seed,
                     std::size_t instances, Tracer* tracer) {
  Totals tot;
  const Clock::time_point t0 = Clock::now();
  const cc::core::Env env = make_env(shape.n, derive(seed, 1, 0), tracer);
  for (std::uint64_t i = 0; i < instances; ++i) {
    BaRig rig = build_ba(shape, env, seed, i, tracer);
    const double run_s = run_ba_instance(rig, shape, tot);
    check_ba_instance(rig, shape, run_s, tot);
  }
  add_verifier_counters(*env.batcher, tot);
  tot.wall_s = seconds_since(t0);
  return tot;
}

std::vector<double> log_setup_s(const LogShape& shape, std::uint64_t seed,
                                int reps) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point s0 = Clock::now();
    LogRig rig = build_log(shape, seed, nullptr);
    t.push_back(seconds_since(s0));
  }
  return t;
}

std::vector<double> ba_setup_s(const BaShape& shape, std::uint64_t seed,
                               int reps) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point s0 = Clock::now();
    const cc::core::Env env = make_env(shape.n, derive(seed, 1, 0), nullptr);
    BaRig rig = build_ba(shape, env, seed, 0, nullptr);
    t.push_back(seconds_since(s0));
  }
  return t;
}

}  // namespace perfbench
