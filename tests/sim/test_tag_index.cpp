// TagIndex: "<prefix><digits>", then end or '/', routes to the index the
// digits spell; every other tag has none. Both the replicated log's slot
// routing and the multivalued BA's candidate routing go through it.
#include <gtest/gtest.h>

#include <optional>

#include "sim/tag_table.h"

namespace coincidence::sim {
namespace {

TEST(TagIndex, ParsesPrefixThenDigitsThenEndOrSlash) {
  TagIndex slots("slot");
  EXPECT_EQ(slots.of(Tag("slot0")), std::optional<std::size_t>(0));
  EXPECT_EQ(slots.of(Tag("slot12")), std::optional<std::size_t>(12));
  EXPECT_EQ(slots.of(Tag("slot7/mv/c3/ba")), std::optional<std::size_t>(7));
  EXPECT_EQ(slots.of(Tag("slot")), std::nullopt);       // no digits
  EXPECT_EQ(slots.of(Tag("slot/3")), std::nullopt);     // digits not first
  EXPECT_EQ(slots.of(Tag("slot3x")), std::nullopt);     // bad terminator
  EXPECT_EQ(slots.of(Tag("slot3-4/a")), std::nullopt);  // bad terminator
  EXPECT_EQ(slots.of(Tag("slo3")), std::nullopt);       // foreign prefix
  EXPECT_EQ(slots.of(Tag("")), std::nullopt);

  TagIndex candidates("slot7/c");
  EXPECT_EQ(candidates.of(Tag("slot7/c4/ba/1/coin")),
            std::optional<std::size_t>(4));
  EXPECT_EQ(candidates.of(Tag("slot7/rbc/4")), std::nullopt);
}

TEST(TagIndex, MemoizedAnswerMatchesFirstParse) {
  TagIndex slots("slot");
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(slots.of(Tag("slot42/x")), std::optional<std::size_t>(42));
    EXPECT_EQ(slots.of(Tag("slot42x")), std::nullopt);
  }
  // Memos are per TagIndex: another prefix parses the same tag afresh.
  TagIndex other("slot4");
  EXPECT_EQ(other.of(Tag("slot42/x")), std::optional<std::size_t>(2));
}

}  // namespace
}  // namespace coincidence::sim
