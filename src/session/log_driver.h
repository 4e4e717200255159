// Harness driver for the replicated-log layer: one call from an Env and
// a set of options to a finished LogReport — the session-layer analogue
// of core::run_agreement. Runs n LogProcesses in one Simulation (legacy
// or sharded engine, per options), waits until every correct process
// committed the full log, and distils throughput / latency / agreement
// telemetry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/env.h"
#include "session/replicated_log.h"

namespace coincidence::session {

struct LogRunOptions {
  std::size_t slots = 8;
  std::size_t pipeline_depth = 4;
  std::size_t batch_size = 4;
  std::size_t silent_faults = 0;
  std::uint64_t sim_seed = 1;

  /// Round-skip fallback budget per inner BA (ba_whp.h). kAutoSkip
  /// scales with n and the pipeline depth — concurrent slots share the
  /// delivery clock, so a healthy round takes proportionally longer
  /// when more slots are in flight. 0 disables the fallback.
  static constexpr std::uint64_t kAutoSkip = ~0ULL;
  std::uint64_t skip_timeout = kAutoSkip;

  /// Sharded superstep engine (sim/simulation.h). 0 = legacy loop.
  std::size_t shards = 0;
  std::size_t threads = 0;

  std::uint64_t max_rounds = 32;
  std::size_t max_candidates = 8;
  std::uint64_t client_seed = 0xC11E57;

  /// Proposal-dissemination backend for every slot (ba/broadcast.h).
  ba::RbcBackend rbc = ba::RbcBackend::kBracha;
};

struct LogReport {
  std::size_t slots = 0;
  /// Every correct process committed every slot.
  bool all_committed = false;
  /// All correct processes' committed logs are byte-identical.
  bool agreement = true;
  std::uint64_t requests_committed = 0;  // per correct process
  std::size_t noop_slots = 0;
  /// The committed log, slot by slot (an empty entry is a no-op slot).
  std::vector<Bytes> log;

  std::uint64_t deliveries = 0;
  std::uint64_t correct_words = 0;
  std::uint64_t messages = 0;
  std::uint64_t duration = 0;  // max causal depth
  std::uint64_t words_per_slot = 0;
  /// Committed requests per 100k delivery events — the simulator's
  /// clock-free "requests/s".
  double requests_per_100k_deliveries = 0.0;

  /// Slot activation -> local decision, across all correct processes
  /// and slots, in delivery events.
  std::uint64_t decide_latency_p50 = 0;
  std::uint64_t decide_latency_p90 = 0;
  std::uint64_t decide_latency_max = 0;

  std::uint64_t rounds_skipped = 0;  // summed over processes and slots
  std::uint64_t max_decided_round = 0;
  /// Hex log fingerprint shared by the correct processes (empty until
  /// the first correct process commits the full log).
  std::string fingerprint;
};

/// The effective skip budget kAutoSkip resolves to (exposed so benches
/// and tests can report it).
std::uint64_t auto_skip_timeout(std::size_t n, std::size_t pipeline_depth);

LogReport run_replicated_log(const core::Env& env,
                             const LogRunOptions& opts);

}  // namespace coincidence::session
