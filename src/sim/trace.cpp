#include "sim/trace.h"

#include <algorithm>
#include <ostream>

namespace coincidence::sim {

namespace {

const char* rec_kind_name(TraceRecorder::Rec::Kind kind) {
  using Kind = TraceRecorder::Rec::Kind;
  switch (kind) {
    case Kind::kSend: return "send";
    case Kind::kDeliver: return "deliver";
    case Kind::kDrop: return "drop";
    case Kind::kDuplicate: return "dup";
    case Kind::kReplay: return "replay";
    case Kind::kDeadLetter: return "dead_letter";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kRecover: return "recover";
    case Kind::kDecide: return "decide";
    case Kind::kRound: return "round";
  }
  return "unknown";
}

const char* prov_name(TraceRecorder::Prov prov) {
  switch (prov) {
    case TraceRecorder::Prov::kFresh: return "fresh";
    case TraceRecorder::Prov::kRetransmit: return "retransmit";
    case TraceRecorder::Prov::kDuplicate: return "dup";
    case TraceRecorder::Prov::kReplay: return "replay";
  }
  return "unknown";
}

/// Minimal JSON string escaping — tags are short slash-separated tokens,
/// but a Byzantine-crafted tag must still produce valid JSONL.
void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

const char* fault_mode_name(FaultPlan::Mode mode) {
  switch (mode) {
    case FaultPlan::Mode::kCorrect: return "correct";
    case FaultPlan::Mode::kCrash: return "crash";
    case FaultPlan::Mode::kSilent: return "silent";
    case FaultPlan::Mode::kSelective: return "selective";
    case FaultPlan::Mode::kJunk: return "junk";
    case FaultPlan::Mode::kCrashRecover: return "crash-recover";
  }
  return "unknown";
}

}  // namespace

TraceRecorder::TraceRecorder(std::string tag_filter)
    : tag_filter_(std::move(tag_filter)) {}

bool TraceRecorder::passes_filter(const Message& msg) const {
  return tag_filter_.empty() ||
         msg.tag.str().find(tag_filter_) != std::string::npos;
}

void TraceRecorder::record_message(Rec::Kind kind, const Message& msg,
                                   bool correct, Prov prov) {
  Rec rec;
  rec.kind = kind;
  rec.msg_id = msg.id;
  rec.send_seq = msg.send_seq;
  rec.from = msg.from;
  rec.to = msg.to;
  rec.tag = msg.tag.str();
  rec.words = msg.words;
  rec.depth = msg.causal_depth;
  rec.correct = correct;
  rec.prov = prov;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_send(const Message& msg, bool sender_correct) {
  if (!passes_filter(msg)) return;
  record_message(Rec::Kind::kSend, msg, sender_correct,
                 msg.retransmit ? Prov::kRetransmit : Prov::kFresh);
}

void TraceRecorder::on_deliver(const Message& msg) {
  if (!passes_filter(msg)) return;
  Prov prov = msg.retransmit ? Prov::kRetransmit : Prov::kFresh;
  if (const auto* copy = copy_prov_.find(msg.id))
    prov = static_cast<Prov>(*copy);
  record_message(Rec::Kind::kDeliver, msg, true, prov);
}

void TraceRecorder::on_corrupt(ProcessId target, const FaultPlan& plan) {
  // Never filtered: the tag field holds a fault-mode name, not a message
  // tag, and fault accounting must survive any tag filter.
  Rec rec;
  rec.kind = Rec::Kind::kCorrupt;
  rec.from = target;
  rec.tag = fault_mode_name(plan.mode);
  rec.correct = false;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_recover(ProcessId target) {
  Rec rec;
  rec.kind = Rec::Kind::kRecover;
  rec.from = target;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_link_drop(const Message& msg) {
  record_message(Rec::Kind::kDrop, msg, true, Prov::kFresh);
}

void TraceRecorder::on_link_duplicate(const Message& msg) {
  copy_prov_.insert_or_assign(msg.id,
                              static_cast<std::uint8_t>(Prov::kDuplicate));
  record_message(Rec::Kind::kDuplicate, msg, true, Prov::kDuplicate);
}

void TraceRecorder::on_link_replay(const Message& msg) {
  copy_prov_.insert_or_assign(msg.id,
                              static_cast<std::uint8_t>(Prov::kReplay));
  record_message(Rec::Kind::kReplay, msg, true, Prov::kReplay);
}

void TraceRecorder::on_dead_letter(ProcessId from, ProcessId to,
                                   const Tag& tag, std::size_t words) {
  Rec rec;
  rec.kind = Rec::Kind::kDeadLetter;
  rec.from = from;
  rec.to = to;
  rec.tag = tag.str();
  rec.words = words;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_decide(const DecideEvent& event) {
  Rec rec;
  rec.kind = Rec::Kind::kDecide;
  rec.from = event.who;
  rec.tag = event.scope.str();
  rec.depth = event.causal_depth;
  rec.round = event.round;
  rec.value = event.value;
  rec.correct = event.correct;
  records_.push_back(std::move(rec));
}

void TraceRecorder::on_round(ProcessId who, std::uint64_t round) {
  Rec rec;
  rec.kind = Rec::Kind::kRound;
  rec.from = who;
  rec.round = round;
  records_.push_back(std::move(rec));
}

namespace {

bool is_message_kind(TraceRecorder::Rec::Kind kind) {
  using Kind = TraceRecorder::Rec::Kind;
  return kind == Kind::kSend || kind == Kind::kDeliver ||
         kind == Kind::kDrop || kind == Kind::kDuplicate ||
         kind == Kind::kReplay;
}

/// Replays `recs` in order and calls visit(i, clock) with every record's
/// vector-clock timestamp (empty when it has none). Live state is one
/// clock per process plus the snapshots of sends that a later record
/// still reads: each snapshot is freed at the last message record that
/// carries its send_seq.
template <typename Visit>
void replay_clocks(const std::vector<TraceRecorder::Rec>& recs,
                   Visit&& visit) {
  using Kind = TraceRecorder::Rec::Kind;
  using Clock = std::vector<std::uint64_t>;
  // send_seq -> index of the last record that reads its snapshot.
  FlatMap64<std::size_t> last_read;
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (is_message_kind(recs[i].kind))
      last_read.insert_or_assign(recs[i].send_seq, i);

  std::vector<Clock> clocks;  // index = ProcessId
  auto clock_of = [&clocks](ProcessId id) -> Clock& {
    if (id >= clocks.size()) clocks.resize(id + 1);
    auto& clock = clocks[id];
    if (clock.size() <= id) clock.resize(id + 1, 0);
    return clock;
  };
  // send_seq -> snapshot of the latest send record with it. Link
  // duplicates and replays get fresh msg ids but keep their send's
  // send_seq, so a stale copy still resolves to its causal timestamp.
  FlatMap64<Clock> snaps;
  const Clock none;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecorder::Rec& r = recs[i];
    const Clock* stamp = &none;
    switch (r.kind) {
      case Kind::kSend: {
        auto& clock = clock_of(r.from);
        ++clock[r.from];
        Clock& snap = snaps[r.send_seq];
        snap = clock;
        stamp = &snap;
        break;
      }
      case Kind::kDeliver: {
        auto& clock = clock_of(r.to);
        if (const Clock* snap = snaps.find(r.send_seq)) {
          if (clock.size() < snap->size()) clock.resize(snap->size(), 0);
          for (std::size_t k = 0; k < snap->size(); ++k)
            clock[k] = std::max(clock[k], (*snap)[k]);
        }
        ++clock[r.to];
        stamp = &clock;
        break;
      }
      case Kind::kDrop:
      case Kind::kDuplicate:
      case Kind::kReplay:
        if (const Clock* snap = snaps.find(r.send_seq)) stamp = snap;
        break;
      case Kind::kDecide:
        stamp = &clock_of(r.from);
        break;
      default:
        break;
    }
    visit(i, *stamp);
    if (is_message_kind(r.kind) && *last_read.find(r.send_seq) == i)
      snaps.erase(r.send_seq);
  }
}

}  // namespace

std::vector<std::vector<std::uint64_t>> TraceRecorder::vector_clocks()
    const {
  std::vector<std::vector<std::uint64_t>> stamps(records_.size());
  replay_clocks(records_,
                [&stamps](std::size_t i, const std::vector<std::uint64_t>& vc) {
                  stamps[i] = vc;
                });
  return stamps;
}

void TraceRecorder::dump(std::ostream& os) const {
  for (const Rec& r : records_) {
    switch (r.kind) {
      case Rec::Kind::kSend:
        os << "S " << r.msg_id << ' ' << r.from << "->" << r.to << ' '
           << r.tag << ' ' << r.words << (r.correct ? "" : " BYZ") << '\n';
        break;
      case Rec::Kind::kDeliver:
        os << "D " << r.msg_id << ' ' << r.from << "->" << r.to << ' '
           << r.tag << '\n';
        break;
      case Rec::Kind::kCorrupt:
        os << "C " << r.from << ' ' << r.tag << '\n';
        break;
      default:
        break;
    }
  }
}

void TraceRecorder::dump_jsonl(std::ostream& os) const {
  replay_clocks(records_, [&](std::size_t seq,
                              const std::vector<std::uint64_t>& vc) {
    const Rec& r = records_[seq];
    os << "{\"seq\":" << seq << ",\"ev\":\"" << rec_kind_name(r.kind)
       << '"';
    switch (r.kind) {
      case Rec::Kind::kSend:
      case Rec::Kind::kDeliver:
      case Rec::Kind::kDrop:
      case Rec::Kind::kDuplicate:
      case Rec::Kind::kReplay:
        os << ",\"id\":" << r.msg_id << ",\"sseq\":" << r.send_seq
           << ",\"from\":" << r.from << ",\"to\":" << r.to << ",\"tag\":";
        json_escape(os, r.tag);
        os << ",\"words\":" << r.words << ",\"depth\":" << r.depth
           << ",\"correct\":" << (r.correct ? "true" : "false")
           << ",\"prov\":\"" << prov_name(r.prov) << '"';
        break;
      case Rec::Kind::kDeadLetter:
        os << ",\"from\":" << r.from << ",\"to\":" << r.to << ",\"tag\":";
        json_escape(os, r.tag);
        os << ",\"words\":" << r.words;
        break;
      case Rec::Kind::kCorrupt:
        os << ",\"who\":" << r.from << ",\"mode\":";
        json_escape(os, r.tag);
        break;
      case Rec::Kind::kRecover:
        os << ",\"who\":" << r.from;
        break;
      case Rec::Kind::kDecide:
        os << ",\"who\":" << r.from << ",\"scope\":";
        json_escape(os, r.tag);
        os << ",\"value\":" << r.value << ",\"round\":" << r.round
           << ",\"depth\":" << r.depth
           << ",\"correct\":" << (r.correct ? "true" : "false");
        break;
      case Rec::Kind::kRound:
        os << ",\"who\":" << r.from << ",\"round\":" << r.round;
        break;
    }
    if (!vc.empty()) {
      os << ",\"vc\":[";
      for (std::size_t i = 0; i < vc.size(); ++i) {
        if (i != 0) os << ',';
        os << vc[i];
      }
      os << ']';
    }
    os << "}\n";
  });
}

}  // namespace coincidence::sim
