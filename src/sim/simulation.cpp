#include "sim/simulation.h"

#include <algorithm>

#include "common/errors.h"

namespace coincidence::sim {

namespace {
/// replay_history_ key: one u64 per directed link.
std::uint64_t link_key(ProcessId from, ProcessId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// splitmix64 finalizer: the sharded engine's hash-addressed randomness.
/// Every scheduling decision is mix64(seed ^ counter) of a counter that
/// advances in canonical (serial-commit) order, never a stream whose
/// draw order could depend on shard or thread count.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Superstep slack window W: a routed message is delivered 1..W
/// supersteps after routing (hash-chosen).
constexpr std::size_t kShardSlack = 4;

/// Calendar presize: broadcast-heavy rounds keep O(n) messages per
/// process in flight inside the W-superstep window.
constexpr std::size_t kInFlightPerProcess = 16;
}  // namespace

// ------------------------------------------------- sharded engine data --

/// One side-effect a handler produced during the parallel phase. Replayed
/// by the serial commit in the exact order the handler issued it, so the
/// observable event stream is identical to an inline execution.
struct Simulation::PendingEffect {
  enum class Kind : std::uint8_t {
    kSend,
    kWakeup,
    kDecide,
    kRound,
    kDeadLetter,
    kCount,
  };
  Kind kind = Kind::kSend;
  bool retransmit = false;
  bool self = false;    // send to self: already delivered nested in-phase
  bool correct = true;  // sender/reporter was uncorrupted at call time
  ProcessId to = 0;
  Tag tag;
  SharedBytes payload;
  // kSend: a=words b=causal_depth; kWakeup: a=delay; kDecide: a=round
  // b=value c=depth; kRound: a=round; kDeadLetter: a=words; kCount:
  // a=counter b=delta.
  std::uint64_t a = 0, b = 0, c = 0;
};

/// One routed in-flight message in a shard calendar. (okey, route_seq) is
/// the canonical within-superstep rank — a pure function of (seed, route
/// order), so the merged delivery order is shard/thread-count invariant.
struct Simulation::CalEntry {
  std::uint64_t okey = 0;
  std::uint64_t route_seq = 0;
  std::uint64_t enqueue_index = 0;  // deliveries_ at routing (age basis)
  std::uint64_t delivery_pre = 0;   // deliveries_ just before this commit
  bool handler_ran = false;
  Message msg;
  std::vector<PendingEffect> effects;
};

/// Per-shard runtime: the calendar ring (slot s holds entries due at
/// supersteps congruent to s mod W) and the current superstep's work.
struct Simulation::ShardState {
  std::vector<std::vector<CalEntry>> ring;
  std::vector<CalEntry> acts;
};

// ---------------------------------------------------------------- Slot --

struct Simulation::Slot {
  std::unique_ptr<Process> process;
  std::unique_ptr<SlotContext> context;
  Rng rng{0};
  FaultPlan fault;            // kCorrect until corrupted
  bool corrupted = false;
  bool recovered = false;     // kCrashRecover process that restarted
  std::uint64_t wakeup_epoch = 0;  // bumped on crash: stale timers die
  std::uint64_t depth = 0;    // causal depth observed so far
  std::deque<Message> self_queue;
  Bytes stable_storage;       // survives kCrashRecover (Context::persist)
  // Sharded handler phase: the activation this slot is currently
  // executing (its effect sink). Only ever touched by the slot's home
  // shard, so no synchronization is needed.
  CalEntry* active_entry = nullptr;

  /// Crash semantics apply: a kCrash process forever, a kCrashRecover
  /// process until its restart flips the mode back to kCorrect.
  bool crash_like() const {
    return fault.mode == FaultPlan::Mode::kCrash ||
           fault.mode == FaultPlan::Mode::kCrashRecover;
  }
};

class Simulation::SlotContext final : public Context {
 public:
  SlotContext(Simulation* sim, ProcessId id) : sim_(sim), id_(id) {}

  ProcessId self() const override { return id_; }
  std::size_t n() const override { return sim_->cfg_.n; }

  // During the sharded engine's parallel handler phase every side-effect
  // is buffered on the running activation (and replayed by the serial
  // commit in canonical order); outside it — the legacy loop and all
  // serial callbacks (on_start/on_wakeup/on_recover/barriers) — the
  // effects go straight through, exactly as before.

  void send(ProcessId to, Tag tag, SharedBytes payload,
            std::size_t words) override {
    if (sim_->parallel_phase_) {
      sim_->buffer_send(id_, to, tag, std::move(payload), words,
                        /*retransmit=*/false);
      return;
    }
    sim_->enqueue_send(id_, to, tag, std::move(payload), words);
  }

  void broadcast(Tag tag, SharedBytes payload, std::size_t words) override {
    // Each enqueued copy shares `payload`'s buffer: n refcount bumps,
    // zero deep copies.
    if (sim_->parallel_phase_) {
      for (ProcessId to = 0; to < sim_->cfg_.n; ++to)
        sim_->buffer_send(id_, to, tag, payload, words, /*retransmit=*/false);
      return;
    }
    for (ProcessId to = 0; to < sim_->cfg_.n; ++to)
      sim_->enqueue_send(id_, to, tag, payload, words);
  }

  void send_retransmission(ProcessId to, Tag tag, SharedBytes payload,
                           std::size_t words) override {
    if (sim_->parallel_phase_) {
      sim_->buffer_send(id_, to, tag, std::move(payload), words,
                        /*retransmit=*/true);
      return;
    }
    sim_->enqueue_send(id_, to, tag, std::move(payload), words,
                       /*retransmit=*/true);
  }

  Rng& rng() override { return sim_->slots_[id_]->rng; }

  std::uint64_t causal_depth() const override {
    return sim_->slots_[id_]->depth;
  }

  std::uint64_t now() const override {
    if (sim_->parallel_phase_) {
      // The legacy loop increments deliveries_ before dispatching, so a
      // handler sees "my delivery's index + 1"; delivery_pre is exactly
      // that index under the canonical merge order.
      const CalEntry* act = sim_->slots_[id_]->active_entry;
      if (act != nullptr) return act->delivery_pre + 1;
    }
    return sim_->deliveries_;
  }

  void schedule_wakeup(std::uint64_t delay) override {
    if (sim_->parallel_phase_) {
      buffered_effect(PendingEffect::Kind::kWakeup).a = delay;
      return;
    }
    sim_->schedule_wakeup_for(id_, delay);
  }

  void persist(BytesView snapshot) override {
    sim_->slots_[id_]->stable_storage.assign(snapshot.begin(),
                                             snapshot.end());
  }

  void note_decide(Tag scope, int value, std::uint64_t round) override {
    if (sim_->parallel_phase_) {
      PendingEffect& e = buffered_effect(PendingEffect::Kind::kDecide);
      e.tag = scope;
      e.a = round;
      e.b = static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
      e.c = sim_->slots_[id_]->depth;  // depth at the call, not at commit
      return;
    }
    sim_->note_decide_from(id_, scope, value, round);
  }

  void note_round(std::uint64_t round) override {
    if (sim_->parallel_phase_) {
      buffered_effect(PendingEffect::Kind::kRound).a = round;
      return;
    }
    sim_->note_round_from(id_, round);
  }

  void note_dead_letter(ProcessId to, Tag tag, std::size_t words) override {
    if (sim_->parallel_phase_) {
      PendingEffect& e = buffered_effect(PendingEffect::Kind::kDeadLetter);
      e.to = to;
      e.tag = tag;
      e.a = words;
      return;
    }
    sim_->note_dead_letter_from(id_, to, tag, words);
  }

  void count(Counter c, std::uint64_t delta) override {
    if (sim_->parallel_phase_) {
      PendingEffect& e = buffered_effect(PendingEffect::Kind::kCount);
      e.a = static_cast<std::uint64_t>(c);
      e.b = delta;
      return;
    }
    sim_->metrics_.add(c, delta);
  }

 private:
  /// Appends a blank effect of `kind` to the slot's running activation,
  /// pre-stamping the reporter's correctness. Parallel phase only; the
  /// slot's home shard owns both the slot and the activation.
  PendingEffect& buffered_effect(PendingEffect::Kind kind) {
    Slot& slot = *sim_->slots_[id_];
    PendingEffect e;
    e.kind = kind;
    e.correct = !slot.corrupted;
    slot.active_entry->effects.push_back(std::move(e));
    return slot.active_entry->effects.back();
  }

  Simulation* sim_;
  ProcessId id_;
};

// ---------------------------------------------------------- Simulation --

// The link Rng's seed is derived (not forked) from cfg.seed so that the
// scheduling stream and the per-process forks are byte-identical to a
// run without link faults — enabling a NetworkProfile must not change
// anything else about the run.
Simulation::Simulation(SimConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      link_rng_(cfg_.seed ^ 0x6c696e6b5f726e67ULL),
      chaos_rng_(cfg_.seed ^ 0x6368616f73726e67ULL),
      network_reliable_(cfg_.network.reliable()) {
  COIN_REQUIRE(cfg_.n > 0, "Simulation needs at least one process");
  if (cfg_.fairness_bound == 0) cfg_.fairness_bound = 16 * cfg_.n;
  adversary_ = std::make_unique<RandomAdversary>();
  slots_.reserve(cfg_.n);
  if (!cfg_.chaos.empty()) {
    chaos_ = std::make_unique<ChaosState>(cfg_.chaos);
    churn_victims_.resize(cfg_.chaos.phases.size());
  }
  if (cfg_.engine.shards > 0) {
    // More shards than processes would leave permanently-empty shards;
    // the clamp keeps shard_of() total without changing any schedule
    // (the schedule depends on (seed, route order), not the shard map).
    const std::size_t shards = std::min(cfg_.engine.shards, cfg_.n);
    cfg_.engine.shards = shards;
    shard_seed_ = mix64(cfg_.seed ^ 0x73686172645f7373ULL);  // "shard_ss"
    const std::size_t per_slot =
        kInFlightPerProcess * cfg_.n / (shards * kShardSlack) + 1;
    shard_states_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      auto st = std::make_unique<ShardState>();
      st->ring.resize(kShardSlack);
      for (auto& slot : st->ring) slot.reserve(per_slot);
      shard_states_.push_back(std::move(st));
    }
    slot_counts_.assign(kShardSlack, 0);
    shard_stats_.assign(shards, ShardStats{});
    std::size_t threads = cfg_.engine.threads;
    if (threads == 0) threads = std::min(shards, default_thread_count());
    shard_pool_ = std::make_unique<ThreadPool>(threads);
  }
}

Simulation::~Simulation() = default;

void Simulation::add_process(std::unique_ptr<Process> p) {
  COIN_REQUIRE(!started_, "add_process after start");
  COIN_REQUIRE(slots_.size() < cfg_.n, "too many processes");
  auto id = static_cast<ProcessId>(slots_.size());
  auto slot = std::make_unique<Slot>();
  slot->process = std::move(p);
  slot->context = std::make_unique<SlotContext>(this, id);
  slot->rng = rng_.fork();
  slots_.push_back(std::move(slot));
}

void Simulation::set_adversary(std::unique_ptr<Adversary> a) {
  COIN_REQUIRE(a != nullptr, "null adversary");
  adversary_ = std::move(a);
}

void Simulation::add_observer(std::shared_ptr<Observer> observer) {
  COIN_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(std::move(observer));
}

void Simulation::corrupt(ProcessId id, FaultPlan plan) {
  COIN_REQUIRE(id < slots_.size(), "corrupt: bad id");
  Slot& slot = *slots_[id];
  const bool fresh = !slot.corrupted;
  if (fresh) {
    COIN_REQUIRE(corrupted_count_ < cfg_.f,
                 "adversary corruption budget f exhausted");
    slot.corrupted = true;
    ++corrupted_count_;
  }
  slot.fault = std::move(plan);  // re-corruption just updates the behaviour
  if (slot.crash_like()) ++slot.wakeup_epoch;  // pending timers are lost
  if (slot.fault.mode == FaultPlan::Mode::kCrashRecover) {
    slot.recovered = false;
    recoveries_.push({deliveries_ + slot.fault.recover_after, timer_seq_++,
                      id, slot.wakeup_epoch});
  }
  if (!fresh) return;
  for (auto& obs : observers_) obs->on_corrupt(id, slot.fault);
  if (started_) slot.process->on_corrupt(*slot.context);
}

bool Simulation::is_corrupted(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "is_corrupted: bad id");
  return slots_[id]->corrupted;
}

bool Simulation::is_down(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "is_down: bad id");
  return slots_[id]->fault.mode == FaultPlan::Mode::kCrashRecover;
}

bool Simulation::has_recovered(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "has_recovered: bad id");
  return slots_[id]->recovered;
}

Process& Simulation::process(ProcessId id) {
  COIN_REQUIRE(id < slots_.size(), "process: bad id");
  return *slots_[id]->process;
}

std::uint64_t Simulation::depth_of(ProcessId id) const {
  COIN_REQUIRE(id < slots_.size(), "depth_of: bad id");
  return slots_[id]->depth;
}

void Simulation::enqueue_send(ProcessId from, ProcessId to, Tag tag,
                              SharedBytes payload, std::size_t words,
                              bool retransmit) {
  COIN_REQUIRE(to < cfg_.n, "send: bad destination");
  Slot& sender = *slots_[from];

  // Apply the sender's fault behaviour at the network boundary.
  if (sender.corrupted) {
    switch (sender.fault.mode) {
      case FaultPlan::Mode::kCrash:
      case FaultPlan::Mode::kCrashRecover:  // down: nothing leaves
      case FaultPlan::Mode::kSilent:
        return;  // nothing leaves a crashed/silent process
      case FaultPlan::Mode::kSelective: {
        const auto& t = sender.fault.selective_targets;
        if (std::find(t.begin(), t.end(), to) == t.end()) return;
        break;
      }
      case FaultPlan::Mode::kJunk:
        // Fresh junk per destination (broadcast fan-out reaches here once
        // per receiver), exactly as the pre-shared-payload substrate drew.
        payload = SharedBytes(sender.rng.next_bytes(payload.size()));
        break;
      case FaultPlan::Mode::kCorrect:
        break;
    }
  }

  Message msg;
  msg.id = next_msg_id_++;
  msg.from = from;
  msg.to = to;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.words = words;
  msg.causal_depth = sender.depth + 1;
  msg.send_seq = send_seq_++;
  msg.retransmit = retransmit;

  metrics_.record_send(msg, !sender.corrupted);
  for (auto& obs : observers_) obs->on_send(msg, !sender.corrupted);

  if (cfg_.allow_content_visibility) adversary_->observe_pending_content(msg);

  if (to == from) {
    sender.self_queue.push_back(std::move(msg));  // free local delivery
  } else {
    push_through_link(std::move(msg));
  }
}

// The lossy-link layer sits between the send event and the pending pool:
// the send already happened (metrics/observers above saw it — the sender
// paid its word cost), but the substrate may lose the packet, enqueue
// extra copies, or belch up a stale packet from the same link's past.
// Every draw comes from link_rng_, and only for links whose plan is not
// reliable, so (a) runs are replayable and (b) reliable runs are
// byte-identical to pre-link-fault behaviour.
void Simulation::push_through_link(Message msg) {
  // Chaos partition gate: an active partition intercepts cross-group
  // traffic before any link-plan randomness is drawn. Held messages skip
  // the link layer entirely and re-enter the pool verbatim at heal time
  // (they "traversed" the link once; the partition only delayed them).
  if (chaos_ && chaos_->any_active_partition()) {
    ChaosPhase::PartitionMode mode = ChaosPhase::PartitionMode::kHold;
    std::size_t phase = 0;
    if (chaos_->blocked(msg.from, msg.to, &mode, &phase)) {
      if (mode == ChaosPhase::PartitionMode::kHold) {
        metrics_.add(Counter::kPartitionHeld, 1);
        metrics_.add(Counter::kPartitionHeldWords, msg.words);
        for (auto& obs : observers_) obs->on_partition_block(msg, true);
        held_.emplace_back(phase, std::move(msg));
      } else {
        metrics_.add(Counter::kPartitionDropped, 1);
        metrics_.add(Counter::kPartitionDroppedWords, msg.words);
        for (auto& obs : observers_) obs->on_partition_block(msg, false);
      }
      return;
    }
  }

  // Chaos storm burst: congestion-style amplification, drawn from the
  // dedicated chaos Rng so storms never perturb link or scheduling
  // streams. Copies are network-created (like link duplicates) and
  // charge no words to anyone.
  if (chaos_) {
    if (std::optional<std::size_t> storm = chaos_->active_storm()) {
      const ChaosPhase& p = chaos_->schedule().phases[*storm];
      if (p.storm_p > 0.0 && chaos_rng_.next_bool(p.storm_p)) {
        std::size_t copies = 1;
        if (p.storm_copies > 1)
          copies += static_cast<std::size_t>(
              chaos_rng_.next_below(p.storm_copies));
        for (std::size_t i = 0; i < copies; ++i) {
          Message dup = msg;
          dup.id = next_msg_id_++;
          metrics_.add(Counter::kStormCopies, 1);
          route_message(std::move(dup));
        }
      }
    }
  }

  // Fully-reliable networks (the common case) skip the per-link plan
  // lookup entirely — one cached bool instead of a hash probe per send.
  if (network_reliable_) {
    route_message(std::move(msg));
    return;
  }
  const LinkPlan& plan = cfg_.network.link(msg.from, msg.to);
  if (plan.reliable()) {
    route_message(std::move(msg));
    return;
  }

  if (plan.drop_p > 0.0 && link_rng_.next_bool(plan.drop_p)) {
    metrics_.add(Counter::kLinkDrops, 1);
    metrics_.add(Counter::kLinkDroppedWords, msg.words);
    for (auto& obs : observers_) obs->on_link_drop(msg);
  } else {
    std::size_t copies = 0;
    if (plan.dup_p > 0.0 && link_rng_.next_bool(plan.dup_p)) {
      copies = 1;
      if (plan.max_duplicates > 1)
        copies += static_cast<std::size_t>(
            link_rng_.next_below(plan.max_duplicates));
    }
    for (std::size_t i = 0; i < copies; ++i) {
      Message dup = msg;
      dup.id = next_msg_id_++;
      metrics_.add(Counter::kLinkDuplicates, 1);
      for (auto& obs : observers_) obs->on_link_duplicate(dup);
      route_message(std::move(dup));
    }
    route_message(std::move(msg));
  }

  // Replay is keyed to send *activity* on the link, not to this packet's
  // fate: a dropped fresh packet can still shake loose a stale one.
  if (plan.replay_p > 0.0 && link_rng_.next_bool(plan.replay_p)) {
    const std::deque<Message>* history =
        replay_history_.find(link_key(msg.from, msg.to));
    if (history != nullptr && !history->empty()) {
      // The replayed copy aliases the original payload buffer.
      Message replay =
          (*history)[static_cast<std::size_t>(
              link_rng_.next_below(history->size()))];
      replay.id = next_msg_id_++;
      metrics_.add(Counter::kLinkReplays, 1);
      for (auto& obs : observers_) obs->on_link_replay(replay);
      route_message(std::move(replay));
    }
  }
}

const std::deque<Message>* Simulation::replay_history_of(ProcessId from,
                                                         ProcessId to) const {
  return replay_history_.find(link_key(from, to));
}

void Simulation::remember_delivered(const Message& msg) {
  if (network_reliable_) return;
  const LinkPlan& plan = cfg_.network.link(msg.from, msg.to);
  if (plan.replay_p <= 0.0 || plan.replay_window == 0) return;
  // The stored copy shares msg's payload buffer, so the history holds
  // O(window) headers per link, not O(window) payload clones.
  auto& history = replay_history_[link_key(msg.from, msg.to)];
  history.push_back(msg);
  while (history.size() > plan.replay_window) history.pop_front();
}

void Simulation::inject(ProcessId from, ProcessId to, Tag tag,
                        SharedBytes payload, std::size_t words) {
  COIN_REQUIRE(from < slots_.size() && to < cfg_.n, "inject: bad ids");
  COIN_REQUIRE(slots_[from]->corrupted,
               "inject: only corrupted processes can be impersonated");
  Message msg;
  msg.id = next_msg_id_++;
  msg.from = from;
  msg.to = to;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.words = words;
  msg.causal_depth = slots_[from]->depth + 1;
  msg.send_seq = send_seq_++;
  metrics_.record_send(msg, /*sender_correct=*/false);
  for (auto& obs : observers_) obs->on_send(msg, false);
  if (to == from) {
    slots_[from]->self_queue.push_back(std::move(msg));
  } else {
    route_message(std::move(msg));
  }
}

void Simulation::dispatch_to(ProcessId to, const Message& msg) {
  Slot& receiver = *slots_[to];
  if (receiver.corrupted && receiver.crash_like())
    return;  // crashed/down processes receive nothing
  receiver.depth = std::max(receiver.depth, msg.causal_depth);
  receiver.process->on_message(*receiver.context, msg);
  drain_self_queue(to);
}

void Simulation::drain_self_queue(ProcessId id) {
  Slot& slot = *slots_[id];
  while (!slot.self_queue.empty()) {
    if (slot.corrupted && slot.crash_like()) {
      slot.self_queue.clear();  // in-memory queue: lost in the crash
      return;
    }
    Message msg = std::move(slot.self_queue.front());
    slot.self_queue.pop_front();
    slot.depth = std::max(slot.depth, msg.causal_depth);
    slot.process->on_message(*slot.context, msg);
  }
}

// ----------------------------------------------------- telemetry notes --
//
// The §2 measures only count events at correct processes, so Metrics see
// a decision only when the reporter is currently correct; observers see
// everything, with the DecideEvent.correct flag carrying the distinction.

void Simulation::note_decide_from(ProcessId who, Tag scope, int value,
                                  std::uint64_t round) {
  const Slot& slot = *slots_[who];
  if (!slot.corrupted) metrics_.record_decide(round, slot.depth);
  if (observers_.empty()) return;
  DecideEvent ev;
  ev.who = who;
  ev.scope = scope;
  ev.value = value;
  ev.round = round;
  ev.causal_depth = slot.depth;
  ev.correct = !slot.corrupted;
  for (auto& obs : observers_) obs->on_decide(ev);
}

void Simulation::note_round_from(ProcessId who, std::uint64_t round) {
  for (auto& obs : observers_) obs->on_round(who, round);
}

void Simulation::note_dead_letter_from(ProcessId who, ProcessId to, Tag tag,
                                       std::size_t words) {
  metrics_.add(Counter::kDeadLetters, 1);
  metrics_.add(Counter::kDeadLetterWords, words);
  for (auto& obs : observers_) obs->on_dead_letter(who, to, tag, words);
}

// ----------------------------------------------------- timers/recovery --

void Simulation::schedule_wakeup_for(ProcessId id, std::uint64_t delay) {
  COIN_REQUIRE(id < slots_.size(), "schedule_wakeup: bad id");
  wakeups_.push(
      {deliveries_ + delay, timer_seq_++, id, slots_[id]->wakeup_epoch});
}

std::optional<std::uint64_t> Simulation::next_timer_due() const {
  std::optional<std::uint64_t> due;
  if (!wakeups_.empty()) due = std::get<0>(wakeups_.top());
  if (!recoveries_.empty()) {
    std::uint64_t r = std::get<0>(recoveries_.top());
    if (!due || r < *due) due = r;
  }
  // Chaos events participate in idle advance: a heal (or churn wave)
  // must fire even when nothing is in flight — otherwise a drained
  // network would strand held messages behind a partition forever.
  if (chaos_) {
    std::optional<std::uint64_t> c = chaos_->next_event_at();
    if (c && (!due || *c < *due)) due = c;
  }
  return due;
}

void Simulation::recover_process(ProcessId id) {
  Slot& slot = *slots_[id];
  // A re-corruption may have replaced the crash-recover plan (e.g. with a
  // permanent crash) while the restart was pending; the stale timer then
  // must not resurrect the process.
  if (slot.fault.mode != FaultPlan::Mode::kCrashRecover) return;
  slot.fault.mode = FaultPlan::Mode::kCorrect;
  slot.recovered = true;
  slot.process->on_recover(*slot.context, slot.stable_storage);
  drain_self_queue(id);
  for (auto& obs : observers_) obs->on_recover(id);
}

void Simulation::fire_due_timers() {
  // Restarts first: a process whose wakeup and restart are both due
  // should come back before (not instead of) seeing the wakeup dropped.
  while (!recoveries_.empty() &&
         std::get<0>(recoveries_.top()) <= deliveries_) {
    ProcessId id = std::get<2>(recoveries_.top());
    recoveries_.pop();
    recover_process(id);
  }
  while (!wakeups_.empty() && std::get<0>(wakeups_.top()) <= deliveries_) {
    TimerEntry e = wakeups_.top();
    wakeups_.pop();
    Slot& slot = *slots_[std::get<2>(e)];
    if (std::get<3>(e) != slot.wakeup_epoch) continue;  // pre-crash timer
    if (slot.corrupted && slot.crash_like()) continue;  // down right now
    slot.process->on_wakeup(*slot.context);
    drain_self_queue(std::get<2>(e));
  }
}

// ------------------------------------------------------------- chaos --

void Simulation::run_chaos_due() {
  if (!chaos_) return;
  while (std::optional<ChaosEvent> ev = chaos_->pop_due(deliveries_)) {
    const ChaosPhase& phase = chaos_->schedule().phases[ev->phase];
    switch (ev->kind) {
      case ChaosEvent::Kind::kPhaseBegin:
        for (auto& obs : observers_)
          obs->on_chaos_phase(ev->phase, phase.kind_name(), true,
                              deliveries_);
        break;
      case ChaosEvent::Kind::kChurnWave:
        churn_wave(ev->phase);
        break;
      case ChaosEvent::Kind::kPhaseEnd:
        if (phase.kind == ChaosPhase::Kind::kPartition)
          release_partition(ev->phase);
        for (auto& obs : observers_)
          obs->on_chaos_phase(ev->phase, phase.kind_name(), false,
                              deliveries_);
        break;
    }
  }
}

void Simulation::churn_wave(std::size_t phase_idx) {
  const ChaosPhase& phase = chaos_->schedule().phases[phase_idx];
  std::vector<ProcessId>& victims = churn_victims_[phase_idx];
  if (victims.empty()) {
    // First wave: claim the highest not-yet-corrupted ids. The runner's
    // static fault mix occupies the very top, so churn lands directly
    // below it; later waves cycle this same set, which re-corruption
    // makes budget-free.
    for (ProcessId id = static_cast<ProcessId>(cfg_.n);
         id > 0 && victims.size() < phase.churn_victims;) {
      --id;
      if (!slots_[id]->corrupted) victims.push_back(id);
    }
  }
  for (ProcessId id : victims) {
    Slot& slot = *slots_[id];
    // Skip victims that are still down (a wave must not extend a crash
    // already in progress) or that the adversary meanwhile repurposed
    // with a non-recovering behaviour — churn must never *heal* a
    // corruption it does not own.
    if (slot.corrupted && slot.fault.mode != FaultPlan::Mode::kCorrect)
      continue;
    // Fresh corruptions respect the budget like adversary requests do.
    if (!slot.corrupted && corrupted_count_ >= cfg_.f) continue;
    metrics_.add(Counter::kChurnCrashes, 1);
    corrupt(id, FaultPlan::crash_recover(phase.churn_down));
  }
}

void Simulation::release_partition(std::size_t phase_idx) {
  if (held_.empty()) return;
  std::vector<std::pair<std::size_t, Message>> kept;
  kept.reserve(held_.size());
  std::size_t released = 0;
  for (auto& entry : held_) {
    if (entry.first == phase_idx) {
      // Healed: the message re-enters the pool now, with a fresh enqueue
      // tick — its fairness clock starts at the heal, not at the
      // original send (the partition, not the adversary, delayed it).
      route_message(std::move(entry.second));
      ++released;
    } else {
      kept.push_back(std::move(entry));
    }
  }
  held_.swap(kept);
  metrics_.add(Counter::kPartitionReleased, released);
}

void Simulation::apply_corruptions() {
  for (auto& req : adversary_->corrupt_now(rng_)) {
    if (req.target >= slots_.size()) continue;
    if (slots_[req.target]->corrupted) continue;
    if (corrupted_count_ >= cfg_.f) break;  // budget exhausted: ignore
    corrupt(req.target, std::move(req.plan));
  }
}

void Simulation::start() {
  COIN_REQUIRE(!started_, "start called twice");
  COIN_REQUIRE(slots_.size() == cfg_.n, "start: missing processes");
  started_ = true;
  apply_corruptions();
  run_chaos_due();  // phases starting at tick 0 fire before on_start
  for (auto& slot : slots_) {
    if (slot->corrupted && slot->crash_like()) continue;
    slot->process->on_start(*slot->context);
  }
  for (ProcessId id = 0; id < slots_.size(); ++id) drain_self_queue(id);
}

bool Simulation::step() {
  COIN_REQUIRE(started_, "step before start");
  if (sharded()) return superstep();
  fire_due_timers();
  run_chaos_due();

  if (pending_.empty()) {
    // Idle network. If a wakeup, restart or chaos event is scheduled,
    // advance "time" straight to it (deliveries are the only clock;
    // nothing else can move it while no message is in flight). Its
    // callback may enqueue new sends — retransmissions typically do —
    // and a heal releases held messages, so this revives runs a pure
    // drop-fault or unhealed partition would otherwise strand.
    auto due = next_timer_due();
    if (!due) return false;
    if (*due >= cfg_.max_deliveries)
      throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");
    deliveries_ = std::max(deliveries_, *due);
    fire_due_timers();
    run_chaos_due();
    return true;
  }

  if (deliveries_ >= cfg_.max_deliveries)
    throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");

  apply_corruptions();

  // Fairness override: the oldest message must go through once bypassed
  // fairness_bound times; otherwise the adversary chooses freely.
  std::size_t chosen = pending_.oldest_index();
  const bool forced_by_fairness =
      deliveries_ - pending_.enqueue_tick(chosen) >= cfg_.fairness_bound;
  if (!forced_by_fairness) {
    chosen = adversary_->schedule(pending_, rng_);
    COIN_REQUIRE(chosen < pending_.size(), "adversary chose bad index");
  }

  const std::uint64_t age = deliveries_ - pending_.enqueue_tick(chosen);
  Message msg = pending_.take(chosen);

  if (!observers_.empty()) {
    MessageMeta meta;
    meta.id = msg.id;
    meta.from = msg.from;
    meta.to = msg.to;
    meta.tag = msg.tag;
    meta.words = msg.words;
    meta.send_seq = msg.send_seq;
    meta.age = age;
    for (auto& obs : observers_)
      obs->on_adversary_choice(meta, forced_by_fairness);
  }

  ++deliveries_;
  metrics_.record_delivery(msg, age);
  dispatch_to(msg.to, msg);
  remember_delivered(msg);
  for (auto& obs : observers_) obs->on_deliver(msg);
  adversary_->observe_delivery(msg);
  return true;
}

// ------------------------------------------- sharded superstep engine --
//
// The sharded engine replaces the per-delivery adversary choice with a
// hash-addressed random-delay schedule: at routing time (always serial —
// either the legacy-equivalent serial callbacks or the serial commit)
// each message draws h = mix64(shard_seed ^ route_seq) and is placed at
// superstep `now + 1 + h % W` with within-superstep rank mix64(h). Both
// are pure functions of (seed, canonical route order), so the merged
// global delivery order is bit-identical for every shard count and
// thread count. A superstep then runs in four phases:
//   1. barrier work (timers, chaos, corruption requests) — serial;
//   2. exchange: pull the due calendar slot per shard, sort by rank —
//      parallel, pure;
//   3. handlers: each shard executes its activations in rank order,
//      buffering every side-effect — parallel, shard-local state only;
//   4. commit: replay activations in the globally merged rank order,
//      emitting deliveries/sends/notes exactly as an inline loop would —
//      serial.
// Fairness is structural here (nothing waits more than W supersteps), so
// the fairness-bound scan and Adversary::schedule are bypassed.

void Simulation::route_message(Message msg) {
  if (!sharded()) {
    pending_.push(std::move(msg), deliveries_);
    return;
  }
  const std::uint64_t h = mix64(shard_seed_ ^ route_seq_);
  const std::size_t shard = shard_of(msg.to);
  CalEntry e;
  e.okey = mix64(h);
  e.route_seq = route_seq_++;
  e.enqueue_index = deliveries_;
  e.msg = std::move(msg);
  const std::size_t slot = (superstep_ + 1 + h % kShardSlack) % kShardSlack;
  shard_states_[shard]->ring[slot].push_back(std::move(e));
  ++slot_counts_[slot];
  ++calendar_size_;
}

void Simulation::buffer_send(ProcessId from, ProcessId to, Tag tag,
                             SharedBytes payload, std::size_t words,
                             bool retransmit) {
  COIN_REQUIRE(to < cfg_.n, "send: bad destination");
  Slot& sender = *slots_[from];

  // The sender's fault behaviour applies at call time (the parallel
  // phase), mirroring enqueue_send: only the sender's own slot state and
  // rng are touched, and both are home-shard-exclusive.
  if (sender.corrupted) {
    switch (sender.fault.mode) {
      case FaultPlan::Mode::kCrash:
      case FaultPlan::Mode::kCrashRecover:
      case FaultPlan::Mode::kSilent:
        return;  // nothing leaves a crashed/silent process
      case FaultPlan::Mode::kSelective: {
        const auto& t = sender.fault.selective_targets;
        if (std::find(t.begin(), t.end(), to) == t.end()) return;
        break;
      }
      case FaultPlan::Mode::kJunk:
        payload = SharedBytes(sender.rng.next_bytes(payload.size()));
        break;
      case FaultPlan::Mode::kCorrect:
        break;
    }
  }

  PendingEffect e;
  e.kind = PendingEffect::Kind::kSend;
  e.retransmit = retransmit;
  e.self = (to == from);
  e.correct = !sender.corrupted;
  e.to = to;
  e.tag = tag;
  e.payload = payload;  // commit emits the send event from this handle
  e.a = words;
  e.b = sender.depth + 1;
  sender.active_entry->effects.push_back(std::move(e));

  if (to == from) {
    // Self-sends are free local deliveries in the legacy loop (straight
    // onto the self queue, no pool transit): deliver them nested inside
    // this same handler phase. id/send_seq are stamped 0 here — the
    // canonical values exist only at commit — which is safe because no
    // protocol reads them; the commit-time send event carries real ones.
    Message msg;
    msg.from = from;
    msg.to = to;
    msg.tag = tag;
    msg.payload = std::move(payload);
    msg.words = words;
    msg.causal_depth = sender.depth + 1;
    msg.retransmit = retransmit;
    sender.self_queue.push_back(std::move(msg));
  }
}

void Simulation::deliver_in_phase(Slot& slot, const Message& msg) {
  slot.depth = std::max(slot.depth, msg.causal_depth);
  slot.process->on_message(*slot.context, msg);
}

void Simulation::run_shard_handlers(std::size_t shard) {
  ShardState& st = *shard_states_[shard];
  ShardStats& stats = shard_stats_[shard];
  for (CalEntry& act : st.acts) {
    Slot& receiver = *slots_[act.msg.to];
    receiver.active_entry = &act;
    if (!(receiver.corrupted && receiver.crash_like())) {
      act.handler_ran = true;
      ++stats.handler_calls;
      deliver_in_phase(receiver, act.msg);
      while (!receiver.self_queue.empty()) {
        Message msg = std::move(receiver.self_queue.front());
        receiver.self_queue.pop_front();
        ++stats.handler_calls;
        deliver_in_phase(receiver, msg);
      }
    }
    receiver.active_entry = nullptr;
    ++stats.deliveries;
  }
}

void Simulation::commit_activation(CalEntry& act) {
  const Message& msg = act.msg;
  const std::uint64_t age = act.delivery_pre - act.enqueue_index;

  if (!observers_.empty()) {
    MessageMeta meta;
    meta.id = msg.id;
    meta.from = msg.from;
    meta.to = msg.to;
    meta.tag = msg.tag;
    meta.words = msg.words;
    meta.send_seq = msg.send_seq;
    meta.age = age;
    // The "choice" is the hash-addressed schedule's; fairness never
    // forces anything (delay is structurally bounded by W).
    for (auto& obs : observers_) obs->on_adversary_choice(meta, false);
  }

  ++deliveries_;
  metrics_.record_delivery(msg, age);
  remember_delivered(msg);
  for (auto& obs : observers_) obs->on_deliver(msg);
  adversary_->observe_delivery(msg);

  const ProcessId who = msg.to;
  for (PendingEffect& e : act.effects) {
    switch (e.kind) {
      case PendingEffect::Kind::kSend: {
        Message m;
        m.id = next_msg_id_++;
        m.from = who;
        m.to = e.to;
        m.tag = e.tag;
        m.payload = std::move(e.payload);
        m.words = static_cast<std::size_t>(e.a);
        m.causal_depth = e.b;
        m.send_seq = send_seq_++;
        m.retransmit = e.retransmit;
        metrics_.record_send(m, e.correct);
        for (auto& obs : observers_) obs->on_send(m, e.correct);
        if (cfg_.allow_content_visibility)
          adversary_->observe_pending_content(m);
        // Self copies were already delivered nested inside the handler
        // phase; everything else transits the (serial) link layer now.
        if (!e.self) push_through_link(std::move(m));
        break;
      }
      case PendingEffect::Kind::kWakeup:
        // deliveries_ here == delivery_pre + 1 == the handler's now().
        wakeups_.push({deliveries_ + e.a, timer_seq_++, who,
                       slots_[who]->wakeup_epoch});
        break;
      case PendingEffect::Kind::kDecide: {
        if (e.correct) metrics_.record_decide(e.a, e.c);
        if (!observers_.empty()) {
          DecideEvent ev;
          ev.who = who;
          ev.scope = e.tag;
          ev.value = static_cast<int>(static_cast<std::int64_t>(e.b));
          ev.round = e.a;
          ev.causal_depth = e.c;
          ev.correct = e.correct;
          for (auto& obs : observers_) obs->on_decide(ev);
        }
        break;
      }
      case PendingEffect::Kind::kRound:
        for (auto& obs : observers_) obs->on_round(who, e.a);
        break;
      case PendingEffect::Kind::kDeadLetter:
        metrics_.add(Counter::kDeadLetters, 1);
        metrics_.add(Counter::kDeadLetterWords, e.a);
        for (auto& obs : observers_)
          obs->on_dead_letter(who, e.to, e.tag,
                              static_cast<std::size_t>(e.a));
        break;
      case PendingEffect::Kind::kCount:
        metrics_.add(static_cast<Counter>(e.a), e.b);
        break;
    }
  }
  act.effects.clear();
}

bool Simulation::superstep() {
  fire_due_timers();
  run_chaos_due();

  if (calendar_size_ == 0) {
    // Idle network: advance the delivery clock straight to the next
    // timer/chaos event, exactly like the legacy idle path.
    auto due = next_timer_due();
    if (!due) return false;
    if (*due >= cfg_.max_deliveries)
      throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");
    deliveries_ = std::max(deliveries_, *due);
    fire_due_timers();
    run_chaos_due();
    return true;
  }

  if (deliveries_ >= cfg_.max_deliveries)
    throw ConfigError("Simulation: max_deliveries exceeded (livelock?)");

  apply_corruptions();

  // Advance to the next superstep with work. Every in-flight entry is at
  // most W supersteps out, so this scans at most W ring slots.
  do {
    ++superstep_;
  } while (slot_counts_[superstep_ % kShardSlack] == 0);
  const std::size_t slot = superstep_ % kShardSlack;

  // Phase 2 — exchange: move the due slot into each shard's work list
  // and sort by the canonical (okey, route_seq) rank, in parallel. Idle
  // shards (nothing due while another shard has work) are the
  // deterministic load-imbalance signal run_report surfaces.
  std::size_t busy = 0;
  for (const auto& st : shard_states_)
    if (!st->ring[slot].empty()) ++busy;
  if (busy < cfg_.engine.shards) {
    for (std::size_t s = 0; s < cfg_.engine.shards; ++s) {
      if (shard_states_[s]->ring[slot].empty()) {
        ++shard_stats_[s].idle_supersteps;
        ++merge_stalls_;
      }
    }
  }
  shard_pool_->for_each_index(cfg_.engine.shards, [&](std::size_t s) {
    ShardState& st = *shard_states_[s];
    st.acts = std::move(st.ring[slot]);
    st.ring[slot].clear();
    std::sort(st.acts.begin(), st.acts.end(),
              [](const CalEntry& a, const CalEntry& b) {
                return a.okey != b.okey ? a.okey < b.okey
                                        : a.route_seq < b.route_seq;
              });
  });

  // Merge: assign each activation its global delivery index (the rank in
  // the k-way merge of the sorted shard lists) and remember the commit
  // order. Runs before the handlers so now()/delivery_pre are available
  // inside them.
  std::size_t total = 0;
  for (const auto& st : shard_states_) total += st->acts.size();
  calendar_size_ -= total;
  slot_counts_[slot] = 0;
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (shard, index)
  order.reserve(total);
  std::vector<std::size_t> cursor(cfg_.engine.shards, 0);
  for (std::size_t k = 0; k < total; ++k) {
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t s = 0; s < cfg_.engine.shards; ++s) {
      if (cursor[s] >= shard_states_[s]->acts.size()) continue;
      if (best == static_cast<std::size_t>(-1)) {
        best = s;
        continue;
      }
      const CalEntry& a = shard_states_[s]->acts[cursor[s]];
      const CalEntry& b = shard_states_[best]->acts[cursor[best]];
      if (a.okey < b.okey ||
          (a.okey == b.okey && a.route_seq < b.route_seq))
        best = s;
    }
    CalEntry& act = shard_states_[best]->acts[cursor[best]];
    act.delivery_pre = deliveries_ + k;
    order.emplace_back(best, cursor[best]);
    ++cursor[best];
  }

  // Phase 3 — handlers, in parallel; every side-effect buffered.
  parallel_phase_ = true;
  shard_pool_->for_each_index(
      cfg_.engine.shards, [this](std::size_t s) { run_shard_handlers(s); });
  parallel_phase_ = false;

  // Phase 4 — serial commit in the merged canonical order.
  for (const auto& [s, i] : order) commit_activation(shard_states_[s]->acts[i]);
  for (auto& st : shard_states_) st->acts.clear();
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

bool Simulation::run_until(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (step()) {
    if (pred()) return true;
  }
  return pred();
}

}  // namespace coincidence::sim
