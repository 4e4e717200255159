// The in-flight message pool.
//
// Requirements: O(1) random access for the adversary, O(1) removal, O(1)
// oldest-message lookup for the fairness bound, and a metadata-only read
// surface — adversaries can see every field of a pending message *except
// its payload*, which is exactly the delayed-adaptive visibility rule
// (payload access is reserved to the Simulation via take()).
//
// Layout: the messages live in a dense vector (swap-remove), and beside it
// an ordered ring of (enqueue tick, id) entries sorted by that pair. Each
// ring entry points at its message's index and each message records its
// ring position, so take() marks the entry dead and fixes the one
// back-pointer that swap-remove moves. Dead entries are popped off the
// front, so the front is always the oldest live message; once dead entries
// outnumber live ones the ring is compacted, so its memory stays
// proportional to what is actually in flight. No hashing, no heap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.h"

namespace coincidence::sim {

class PendingPool {
 public:
  std::size_t size() const { return msgs_.size(); }
  bool empty() const { return msgs_.empty(); }

  // Metadata-only accessors (the adversary's legal view).
  ProcessId from(std::size_t i) const { return msgs_[i].from; }
  ProcessId to(std::size_t i) const { return msgs_[i].to; }
  const std::string& tag(std::size_t i) const { return msgs_[i].tag.str(); }
  TagId tag_id(std::size_t i) const { return msgs_[i].tag.id(); }
  std::size_t words(std::size_t i) const { return msgs_[i].words; }
  std::uint64_t send_seq(std::size_t i) const { return msgs_[i].send_seq; }
  std::uint64_t enqueue_tick(std::size_t i) const {
    return ring_[pos_[i]].tick;
  }

  /// Index of the pending message with the least (enqueue tick, id). O(1).
  /// Pool must be non-empty.
  std::size_t oldest_index() const;

  /// Enqueues `msg` at `tick`. Ticks need not arrive in order, nor ids
  /// within one tick (link duplicates take fresh ids and are routed before
  /// their original): the entry is inserted from the back of the ring
  /// until the (tick, id) order holds, which is an append in the common
  /// case.
  void push(Message msg, std::uint64_t tick);

  /// Removes and returns the message at `i` (swap-remove; indices of other
  /// messages may change).
  Message take(std::size_t i);

  /// Ring entries including dead ones — whitebox view for the compaction
  /// regression test.
  std::size_t ring_size() const { return ring_.size(); }

 private:
  static constexpr std::size_t kDead = ~std::size_t{0};

  struct Entry {
    std::uint64_t tick;
    std::uint64_t id;
    std::size_t idx;  // index into msgs_, or kDead once taken
  };

  void compact();

  std::vector<Message> msgs_;
  std::vector<std::size_t> pos_;  // msgs_ index -> ring_ position
  // Sorted by (tick, id), dead entries included; ring_[head_] is live
  // whenever the pool is non-empty.
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
};

}  // namespace coincidence::sim
