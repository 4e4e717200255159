#include "sim/pending_pool.h"

#include "common/errors.h"

namespace coincidence::sim {

void PendingPool::push(Message msg, std::uint64_t tick) {
  const Entry e{tick, msg.id, msgs_.size()};
  std::size_t p = ring_.size();
  ring_.push_back(e);
  while (p > head_ && (ring_[p - 1].tick > tick ||
                       (ring_[p - 1].tick == tick && ring_[p - 1].id > e.id))) {
    ring_[p] = ring_[p - 1];
    if (ring_[p].idx != kDead) pos_[ring_[p].idx] = p;
    --p;
  }
  ring_[p] = e;
  pos_.push_back(p);
  msgs_.push_back(std::move(msg));
}

void PendingPool::compact() {
  std::size_t w = 0;
  for (std::size_t r = head_; r < ring_.size(); ++r) {
    if (ring_[r].idx == kDead) continue;
    pos_[ring_[r].idx] = w;
    ring_[w++] = ring_[r];
  }
  ring_.resize(w);
  head_ = 0;
}

std::size_t PendingPool::oldest_index() const {
  COIN_REQUIRE(!msgs_.empty(), "oldest_index on empty pool");
  return ring_[head_].idx;
}

Message PendingPool::take(std::size_t i) {
  COIN_REQUIRE(i < msgs_.size(), "take: bad index");
  ring_[pos_[i]].idx = kDead;
  Message out = std::move(msgs_[i]);
  const std::size_t last = msgs_.size() - 1;
  if (i != last) {
    msgs_[i] = std::move(msgs_[last]);
    pos_[i] = pos_[last];
    ring_[pos_[i]].idx = i;
  }
  msgs_.pop_back();
  pos_.pop_back();
  while (head_ < ring_.size() && ring_[head_].idx == kDead) ++head_;
  if (head_ == ring_.size()) {
    ring_.clear();
    head_ = 0;
  } else if (ring_.size() > 2 * (msgs_.size() + 8)) {
    // Dead entries (the consumed front included) outnumber live ones: a
    // long-lived message near the front would otherwise pin every later
    // dead entry behind it.
    compact();
  }
  return out;
}

}  // namespace coincidence::sim
