// Passive observation hooks on a Simulation.
//
// Observers see every send, delivery and corruption — outside the
// adversary's restricted view — which makes them the right place for
// in-flight invariant checking ("no correct process broadcast twice in
// one committee role"), tracing, and custom metrics. Observers must not
// mutate anything; they run after the runtime has finished processing
// the event they are told about.
#pragma once

#include "sim/fault.h"
#include "sim/message.h"

namespace coincidence::sim {

/// A protocol-level decision or sub-protocol output, reported through
/// Context::note_decide. `scope` is the reporting (sub-)protocol's tag
/// prefix ("ba", "ba/3/coin", ...), `value` its output, `round` the
/// protocol round the output fired in, and `causal_depth` the reporter's
/// observed causal depth at that moment — the quantity the paper's
/// duration metric maximises over decision events.
struct DecideEvent {
  ProcessId who = 0;
  Tag scope;
  int value = 0;
  std::uint64_t round = 0;
  std::uint64_t causal_depth = 0;
  bool correct = true;  // false when the reporter is corrupted
};

class Observer {
 public:
  virtual ~Observer() = default;

  /// A message entered the network (or a self-queue). `sender_correct`
  /// is false for corrupted senders and adversary injections.
  virtual void on_send(const Message& /*msg*/, bool /*sender_correct*/) {}

  /// A message was handed to its receiver.
  virtual void on_deliver(const Message& /*msg*/) {}

  /// A process was corrupted with the given behaviour.
  virtual void on_corrupt(ProcessId /*target*/, const FaultPlan& /*plan*/) {}

  /// A kCrashRecover process came back up (after on_recover ran).
  virtual void on_recover(ProcessId /*target*/) {}

  /// The lossy link layer dropped `msg` (it will never be delivered).
  virtual void on_link_drop(const Message& /*msg*/) {}

  /// The lossy link layer enqueued an extra copy of `msg`.
  virtual void on_link_duplicate(const Message& /*msg*/) {}

  /// The lossy link layer belched up a stale replay of `msg`.
  virtual void on_link_replay(const Message& /*msg*/) {}

  /// A transport gave up on a frame (e.g. net::ReliableChannel exhausting
  /// max_retransmits). The payload is gone for good and is *not* covered
  /// by on_link_drop — that hook fires per lost packet, this one fires
  /// once per abandoned payload.
  virtual void on_dead_letter(ProcessId /*from*/, ProcessId /*to*/,
                              const Tag& /*tag*/, std::size_t /*words*/) {}

  /// A protocol decision point fired (Context::note_decide).
  virtual void on_decide(const DecideEvent& /*event*/) {}

  /// A process entered protocol round `round` (Context::note_round).
  virtual void on_round(ProcessId /*who*/, std::uint64_t /*round*/) {}

  /// The scheduler picked the next message to deliver. `forced_by_
  /// fairness` marks deliveries the fairness bound forced through over
  /// the adversary's head; everything else is the adversary's own pick.
  /// Fires before the delivery it describes (msg.age is the delivery-
  /// event count the message spent pending).
  virtual void on_adversary_choice(const MessageMeta& /*msg*/,
                                   bool /*forced_by_fairness*/) {}

  /// A chaos schedule phase (sim/chaos.h) began (`begin`) or ended at
  /// delivery tick `at`. `kind` is the phase's kind_name(); `index` its
  /// position in the schedule — the coordinate the failing-seed repro
  /// triple (seed, config, schedule-phase) points at.
  virtual void on_chaos_phase(std::size_t /*index*/, const char* /*kind*/,
                              bool /*begin*/, std::uint64_t /*at*/) {}

  /// An active chaos partition blocked `msg`: `held`=true means the
  /// message was buffered and will be released when the partition heals,
  /// false means it was lost at the link (drop mode — only a
  /// retransmitting transport delivers its payload eventually).
  virtual void on_partition_block(const Message& /*msg*/, bool /*held*/) {}
};

}  // namespace coincidence::sim
