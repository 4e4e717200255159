// Event-trace recording built on the Observer hooks.
//
// One record stream: every hook appends one Rec — sends, deliveries,
// link drops/duplicates/replays, dead letters, decisions, round
// transitions, corruptions, recoveries. Two printers read it:
//
//  * dump(): the compact trace, one human-greppable line per send /
//    deliver / corrupt record. Its format and event set are frozen —
//    golden fingerprint tests hash its bytes.
//
//  * dump_jsonl(): one JSON object per record, each message record
//    stamped with its causal depth and its vector-clock timestamp,
//    derived by replaying the stream as it prints (one clock per
//    process, plus the send snapshots later records still read; no
//    per-record clock is kept). Deliveries carry
//    provenance: whether the delivered copy was the fresh send, a
//    retransmission, a link duplicate, or a stale replay. Tags are
//    resolved to strings (TagIds never appear in output), so the JSONL
//    stream is byte-identical across replays regardless of interning
//    order.
//
// Filter contract: the tag filter narrows *message traffic only* — send
// and deliver records. Fault events (corrupt, drop, dead letter, decide,
// round, ...) are always recorded: their `tag`/`mode` fields hold fault
// or scope names, not message tags, and a filtered trace that silently
// dropped corruptions would make fault accounting lie.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/flat_map64.h"
#include "sim/observer.h"

namespace coincidence::sim {

class TraceRecorder final : public Observer {
 public:
  /// How the delivered (or lost) copy of a message came to exist.
  enum class Prov { kFresh, kRetransmit, kDuplicate, kReplay };

  /// One trace record. Field use depends on kind; unused fields
  /// keep their defaults and are omitted from the JSONL line.
  struct Rec {
    enum class Kind {
      kSend,
      kDeliver,
      kDrop,
      kDuplicate,
      kReplay,
      kDeadLetter,
      kCorrupt,
      kRecover,
      kDecide,
      kRound,
    };
    Kind kind;
    std::uint64_t msg_id = 0;
    std::uint64_t send_seq = 0;
    ProcessId from = 0;  // reporter for decide/round/corrupt/recover
    ProcessId to = 0;
    std::string tag;  // message tag / decide scope / fault mode
    std::size_t words = 0;
    std::uint64_t depth = 0;  // causal depth (messages and decides)
    std::uint64_t round = 0;  // decide/round events
    int value = 0;            // decide events
    bool correct = true;
    Prov prov = Prov::kFresh;
  };

  /// Records only send/deliver events whose tag contains `tag_filter`
  /// (empty = all); see the filter contract above.
  explicit TraceRecorder(std::string tag_filter = "");

  void on_send(const Message& msg, bool sender_correct) override;
  void on_deliver(const Message& msg) override;
  void on_corrupt(ProcessId target, const FaultPlan& plan) override;
  void on_recover(ProcessId target) override;
  void on_link_drop(const Message& msg) override;
  void on_link_duplicate(const Message& msg) override;
  void on_link_replay(const Message& msg) override;
  void on_dead_letter(ProcessId from, ProcessId to, const Tag& tag,
                      std::size_t words) override;
  void on_decide(const DecideEvent& event) override;
  void on_round(ProcessId who, std::uint64_t round) override;

  const std::vector<Rec>& records() const { return records_; }

  /// Vector-clock timestamps, index-aligned with records(), derived by
  /// replaying the stream. A send ticks the sender's component and
  /// snapshots its clock; a delivery merges the send snapshot into the
  /// receiver's clock and ticks; drops, duplicates and replays carry the
  /// snapshot of their send (matched by send_seq, which link copies
  /// share); a decide carries the decider's clock. Other records, and
  /// copies of sends outside the stream, get an empty clock. Clocks grow
  /// on demand (index = ProcessId); absent components are zero. Holds
  /// every record's clock at once: dump_jsonl() streams the same replay
  /// instead.
  std::vector<std::vector<std::uint64_t>> vector_clocks() const;

  /// Compact dump — format frozen (golden fingerprints hash it). One
  /// line per send/deliver/corrupt record: "S id from->to tag words" /
  /// "D id from->to tag" / "C target mode".
  void dump(std::ostream& os) const;

  /// JSONL dump of every record: one JSON object per line, deterministic
  /// byte-for-byte for a fixed (config, seed).
  void dump_jsonl(std::ostream& os) const;

 private:
  bool passes_filter(const Message& msg) const;
  void record_message(Rec::Kind kind, const Message& msg, bool correct,
                      Prov prov);

  std::string tag_filter_;
  std::vector<Rec> records_;
  FlatMap64<std::uint8_t> copy_prov_;  // msg id -> Prov of link copies
};

}  // namespace coincidence::sim
