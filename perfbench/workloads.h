// The benchmark's workloads, built on the public core::Env,
// sim::Simulation, session::LogProcess and ba::BaWhp APIs.
//
// Both workloads are closed loops. A log run is one replicated log of
// LogShape::slots slots whose replicas keep at most kPipelineDepth slots
// undecided: a slot opens when an earlier one decides. A BA run is a stream
// of binary BaWhp instances over one shared setup (the paper's §3
// reuse), one at a time: the next starts when every correct process has
// decided the last. Message delays come from the simulator's random
// scheduling adversary with no injected wall-clock delay, so all
// latency is processor time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ba/broadcast.h"
#include "trace.h"

namespace perfbench {

constexpr std::size_t kPipelineDepth = 4;

struct LogShape {
  std::size_t n = 48;
  std::size_t slots = 8;
  std::size_t batch_size = 64;
  coincidence::ba::RbcBackend rbc = coincidence::ba::RbcBackend::kBracha;
};

struct BaShape {
  std::size_t n = 128;
  std::size_t silent_faults = 10;
};

/// What one log or one BA instance left behind: exact counts that two
/// runs of one seed must reproduce, traced or not.
struct UnitRecord {
  std::uint64_t deliveries = 0;
  std::uint64_t correct_words = 0;
  std::string fingerprint;  // log: the agreed log; BA: the decision
  double run_s = 0;  // sim.start() to done; not part of the exact counts
};

/// Everything a run measured.
struct Totals {
  std::vector<UnitRecord> units;  // the log, or one per BA instance
  std::uint64_t attempted = 0;  // slots (log) or instances (BA)
  std::uint64_t failed = 0;     // not committed / decided by every correct
  bool safety_ok = true;        // agreement and validity held
  std::string safety_error;

  double wall_s = 0;  // closed-loop time, per-instance set-up included
  // Per-operation latency samples. Log: per (replica, slot), activation
  // to local decision; BA: per instance, start to all-correct-decided.
  std::vector<double> op_ms;
  std::vector<double> commit_ms;  // log: activation to local commit

  std::uint64_t requests = 0;   // committed requests per correct replica
  std::uint64_t candidates = 0;   // log: candidate BaWhp instances run
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
  std::uint64_t correct_words = 0;

  std::uint64_t rbc_encodes = 0;
  std::uint64_t rbc_decodes = 0;
  std::uint64_t rbc_decode_failures = 0;
  std::uint64_t verify_shares = 0;    // BatchVerifier::shares
  std::uint64_t verify_batches = 0;   // BatchVerifier::batches
  std::uint64_t sig_checks = 0;       // BatchVerifier::sig_checks
  std::uint64_t sig_sweep_sigs = 0;   // ok-proof sweep entries (Metrics)
  std::uint64_t sig_sweep_memo_hits = 0;

  std::uint64_t rounds_skipped = 0;   // over correct processes
  std::uint64_t skip_rescued = 0;     // BA instances with any skip
  std::uint64_t noop_slots = 0;
  std::uint64_t max_decided_round = 0;
};

/// `tracer` null runs untraced. `seed` fixes every input of the run.
Totals run_log(const LogShape& shape, std::uint64_t seed, Tracer* tracer);
Totals run_ba_stream(const BaShape& shape, std::uint64_t seed,
                     std::size_t instances, Tracer* tracer);

/// Times of `reps` fresh setups (Env, Simulation and all processes),
/// built and torn down without running.
std::vector<double> log_setup_s(const LogShape& shape, std::uint64_t seed,
                                int reps);
std::vector<double> ba_setup_s(const BaShape& shape, std::uint64_t seed,
                               int reps);

}  // namespace perfbench
