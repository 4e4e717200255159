#include "sim/pending_pool.h"

#include "common/errors.h"

namespace coincidence::sim {

void PendingPool::push(Message msg, std::uint64_t tick) {
  std::uint64_t id = msg.id;
  index_of_[id] = msgs_.size();
  msgs_.push_back(std::move(msg));
  ticks_.push_back(tick);
  // Stale heap entries (taken messages skipped lazily by oldest_index)
  // would otherwise accumulate across a long run; rebuild from the live
  // set once they dominate. Ticks are monotone, so the rebuilt heap
  // orders identically to the lazily-cleaned one.
  if (oldest_heap_.size() > 2 * (msgs_.size() + 8)) compact_heap();
  oldest_heap_.push({tick, id});
}

void PendingPool::compact_heap() const {
  std::vector<HeapEntry> live;
  live.reserve(msgs_.size());
  for (std::size_t i = 0; i < msgs_.size(); ++i)
    live.push_back({ticks_[i], msgs_[i].id});
  oldest_heap_ = Heap(std::greater<HeapEntry>(), std::move(live));
}

std::size_t PendingPool::oldest_index() const {
  COIN_REQUIRE(!msgs_.empty(), "oldest_index on empty pool");
  for (;;) {
    const HeapEntry& top = oldest_heap_.top();
    const std::size_t* idx = index_of_.find(top.second);
    if (idx != nullptr) return *idx;
    oldest_heap_.pop();  // stale entry for an already-taken message
  }
}

Message PendingPool::take(std::size_t i) {
  COIN_REQUIRE(i < msgs_.size(), "take: bad index");
  Message out = std::move(msgs_[i]);
  index_of_.erase(out.id);
  if (i + 1 != msgs_.size()) {
    msgs_[i] = std::move(msgs_.back());
    ticks_[i] = ticks_.back();
    index_of_[msgs_[i].id] = i;
  }
  msgs_.pop_back();
  ticks_.pop_back();
  return out;
}

}  // namespace coincidence::sim
