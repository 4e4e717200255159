#include "sim/pending_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "common/rng.h"

namespace coincidence::sim {
namespace {

Message mk(std::uint64_t id, ProcessId from, ProcessId to,
           std::uint64_t seq) {
  Message m;
  m.id = id;
  m.from = from;
  m.to = to;
  m.tag = "t";
  m.send_seq = seq;
  return m;
}

TEST(PendingPool, PushTakeRoundTrip) {
  PendingPool pool;
  pool.push(mk(1, 0, 1, 0), 0);
  EXPECT_EQ(pool.size(), 1u);
  Message m = pool.take(0);
  EXPECT_EQ(m.id, 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(PendingPool, OldestTracksEnqueueTick) {
  PendingPool pool;
  pool.push(mk(1, 0, 1, 0), 5);
  pool.push(mk(2, 0, 1, 1), 3);  // older tick
  pool.push(mk(3, 0, 1, 2), 9);
  EXPECT_EQ(pool.enqueue_tick(pool.oldest_index()), 3u);
}

TEST(PendingPool, OldestSurvivesSwapRemove) {
  PendingPool pool;
  for (std::uint64_t i = 0; i < 10; ++i)
    pool.push(mk(i + 1, 0, 1, i), i);
  // Remove a few from the middle; oldest must stay correct throughout.
  (void)pool.take(3);
  (void)pool.take(0);
  std::size_t oldest = pool.oldest_index();
  std::uint64_t min_tick = ~0ULL;
  for (std::size_t i = 0; i < pool.size(); ++i)
    min_tick = std::min(min_tick, pool.enqueue_tick(i));
  EXPECT_EQ(pool.enqueue_tick(oldest), min_tick);
}

TEST(PendingPool, OldestAfterTakingOldestRepeatedly) {
  PendingPool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.push(mk(i + 1, 0, 1, i), i);
  for (std::uint64_t expect = 0; expect < 5; ++expect) {
    std::size_t idx = pool.oldest_index();
    EXPECT_EQ(pool.enqueue_tick(idx), expect);
    (void)pool.take(idx);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(PendingPool, MetadataAccessors) {
  PendingPool pool;
  Message m = mk(7, 3, 4, 11);
  m.words = 5;
  pool.push(std::move(m), 2);
  EXPECT_EQ(pool.from(0), 3u);
  EXPECT_EQ(pool.to(0), 4u);
  EXPECT_EQ(pool.tag(0), "t");
  EXPECT_EQ(pool.words(0), 5u);
  EXPECT_EQ(pool.send_seq(0), 11u);
  EXPECT_EQ(pool.enqueue_tick(0), 2u);
}

TEST(PendingPool, TakeBadIndexThrows) {
  PendingPool pool;
  EXPECT_THROW(pool.take(0), PreconditionError);
  EXPECT_THROW(pool.oldest_index(), PreconditionError);
}

TEST(PendingPool, SameTickRunKeepsIdOrder) {
  // Link duplicates take fresh ids and are routed before their lower-id
  // original, all within one tick: the oldest must still be the least id.
  PendingPool pool;
  pool.push(mk(5, 0, 1, 0), 7);
  pool.push(mk(3, 0, 1, 1), 7);
  pool.push(mk(4, 0, 1, 2), 7);
  for (std::uint64_t expect : {3u, 4u, 5u}) {
    Message m = pool.take(pool.oldest_index());
    EXPECT_EQ(m.id, expect);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(PendingPool, RingStaysProportionalToLiveMessages) {
  // One message is pushed first and never taken, so it stays at the front
  // of the ring while 20000 push/take pairs churn behind it. Every take
  // leaves a dead entry the front pops cannot reach; without compaction
  // the ring would end ~20000 entries deep. Compaction caps it at
  // 2*(live+8).
  PendingPool pool;
  pool.push(mk(1, 0, 1, 0), 0);
  std::size_t max_ring = 0;
  for (std::uint64_t i = 1; i <= 20000; ++i) {
    pool.push(mk(i + 1, 0, 1, i), i);
    if (pool.size() > 4) {
      // Take the newest-but-three, never the pinned message at tick 0.
      std::size_t victim = 0;
      for (std::size_t k = 0; k < pool.size(); ++k)
        if (pool.enqueue_tick(k) == i - 3) victim = k;
      ASSERT_EQ(pool.enqueue_tick(victim), i - 3);
      (void)pool.take(victim);
    }
    max_ring = std::max(max_ring, pool.ring_size());
    ASSERT_LE(pool.ring_size(), 2 * (pool.size() + 8));
  }
  EXPECT_LT(max_ring, 64u);

  // Compaction must not corrupt the oldest-message order.
  EXPECT_EQ(pool.enqueue_tick(pool.oldest_index()), 0u);
  (void)pool.take(pool.oldest_index());
  EXPECT_EQ(pool.enqueue_tick(pool.oldest_index()), 19998u);
}

TEST(PendingPool, OldestMatchesBruteForceScan) {
  // Random push/take/oldest sequences against a linear min-(tick, id)
  // scan. Ticks mostly advance but sometimes step back, and same-tick
  // runs push descending ids, so the ring's sorted insert is exercised
  // past the append fast path, across compactions and empty pools.
  Rng rng(2020);
  for (int round = 0; round < 20; ++round) {
    PendingPool pool;
    std::vector<std::uint64_t> ids;  // mirror: ids[i] is pool index i
    std::uint64_t tick = 0, next_id = 1000;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t r = rng.next_below(10);
      if (r < 5 || pool.empty()) {
        if (rng.next_below(4) == 0) tick += rng.next_below(3);
        std::uint64_t t = tick;
        if (rng.next_below(16) == 0) t -= std::min<std::uint64_t>(t, 2);
        const std::uint64_t run = 1 + rng.next_below(3);
        next_id += run;
        for (std::uint64_t k = 0; k < run; ++k) {  // descending ids
          pool.push(mk(next_id - k, 0, 1, 0), t);
          ids.push_back(next_id - k);
        }
      } else {
        const std::size_t i = r < 8
            ? static_cast<std::size_t>(rng.next_below(pool.size()))
            : pool.oldest_index();
        Message m = pool.take(i);
        ASSERT_EQ(m.id, ids[i]);
        ids[i] = ids.back();
        ids.pop_back();
      }
      ASSERT_EQ(pool.size(), ids.size());
      if (pool.empty()) continue;
      std::size_t best = 0;
      for (std::size_t i = 1; i < pool.size(); ++i) {
        const auto key = std::make_pair(pool.enqueue_tick(i), ids[i]);
        if (key < std::make_pair(pool.enqueue_tick(best), ids[best]))
          best = i;
      }
      ASSERT_EQ(pool.oldest_index(), best) << "round " << round << " op " << op;
      ASSERT_LE(pool.ring_size(), 2 * (pool.size() + 8));
    }
  }
}

}  // namespace
}  // namespace coincidence::sim
