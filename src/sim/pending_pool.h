// The in-flight message pool.
//
// Requirements: O(1) random access for the adversary, O(1) removal, O(1)
// amortized oldest-message lookup for the fairness bound, and a metadata-
// only read surface — adversaries can see every field of a pending
// message *except its payload*, which is exactly the delayed-adaptive
// visibility rule (payload access is reserved to the Simulation via
// take()).
//
// Hot-path containers (ISSUE 3): the id->index map is a flat hash (no
// per-push node allocation) and the lazily-cleaned oldest-message heap
// is compacted once stale entries outnumber live ones, so the pool's
// memory stays proportional to what is actually in flight.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/flat_map64.h"
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
  std::uint64_t enqueue_tick(std::size_t i) const { return ticks_[i]; }

  /// Index of the message enqueued earliest among those still pending.
  /// Amortized O(1) via a lazily-cleaned min-heap. Pool must be non-empty.
  std::size_t oldest_index() const;

  /// Lower bound on the oldest pending message's enqueue tick: the heap
  /// top's tick, stale entries included (a stale tick is never larger
  /// than the live minimum, since ticks only grow). Lets the scheduler
  /// skip the precise oldest_index() resolution — and its stale-entry
  /// pops — whenever even this bound cannot trip the fairness check.
  /// O(1), no cleanup. Pool must be non-empty.
  std::uint64_t oldest_tick_lower_bound() const {
    return oldest_heap_.top().first;
  }

  void push(Message msg, std::uint64_t tick);

  /// Removes and returns the message at `i` (swap-remove; indices of other
  /// messages may change).
  Message take(std::size_t i);

  /// Heap entries including stale ones — whitebox view for the compaction
  /// regression test.
  std::size_t heap_size() const { return oldest_heap_.size(); }

 private:
  void compact_heap() const;

  std::vector<Message> msgs_;
  std::vector<std::uint64_t> ticks_;
  mutable FlatMap64<std::size_t> index_of_;  // id -> idx
  // min-heap of (tick, id); stale ids skipped lazily, bulk-evicted by
  // compact_heap() once they outnumber the live messages.
  using HeapEntry = std::pair<std::uint64_t, std::uint64_t>;
  using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                   std::greater<HeapEntry>>;
  mutable Heap oldest_heap_;
};

}  // namespace coincidence::sim
